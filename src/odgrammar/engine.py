"""Search-based parsing and generation over a lexicon.

Both directions walk the same candidate space: an entry assignment for the
tokens, a labeled head map, a positional-head choice for every non-root
word, a template-slot choice at each positional head, and (for generation)
an arrangement of every realized domain.  A candidate is kept when the
validator accepts the realized structure.

The search skips candidates that some validator check is guaranteed to
reject: unusable head slots, cyclic head maps, extraction paths outside a
slot's set, domain-feature demands a word cannot meet (its host slot's or
its own self slot's), cardinality-breaking slot choices, and arrangements
that break sequence order or a precedence predicate.  Pruning must never
change the result set; the tests check this against the brute-force
enumeration in `odgrammar.oracle`.  Every lexical prune but one calls the
test in `odgrammar.constraints` that the validator reports from; the
extraction prune in `_iter_realizations` states its own membership test,
a crossed dtype in the slot's extraction set, as it climbs.

Parse alone runs three more checks on each word's closure: two span
checks, the domain layer's contiguity (``ods.contiguity``) and linking
condition 4 (``ds.cond4``) (`_span_fault`), and the word's precedence
predicates (``prec.self``, ``prec.pair``) on its realized domains
(`_precedence_fault`).  In parse, word indices are the surface positions,
so a closed word whose member sets are not spans, whose consecutive
realized slots overlap or run backwards, or whose domains' immediate
members a predicate of its own finds misordered, fails on every candidate
that shares the closure.  Generation places words of the unpermuted tree,
whose indices say nothing of the surface order, so it must not run them.
The closures they cut are counted per check in a ``rejections at
closure`` diagnostics line.

Placements (a positional head and a slot for every non-root word) are
searched deepest first: words are placed in dependency post-order, each
choosing from a per-tree list of (host, slot) options.  A word's domains
can only host words below it, so once those are placed its domains are
fixed: the search closes them there with `odgrammar.core.close_word`, the
one derivation of the domain layer from insertion, and checks the word's
cardinality bounds.  Every placement of the words after it shares that
closure.  Parsing realizes each complete placement from the member sets
of its closures (passed to `realize_structure`, not derived again), and
generation arranges their immediate members and realizes each order from
the same sets, renamed to the order's indices.  A domain's orderings depend
only on its owner, its slot and its members' names, so generation draws
them once per call for each such triple.  The validator is asked for one
finding per candidate, so a rejected candidate costs only the checks up to
its first failing one.  Both searches ask `iter_structure_violations`.
Parse asks from the tree stage on.  Generation checks the tree stage and
valency once, on the given tree: a permutation renames the words and keeps
their heads, dependency types, classes and entries, so it asks about each
order with ``tree_checked`` set, from the domain stage on, without valency.

Head maps and placements are one kind of search: every word makes one
choice (a labeled head, or a host and a slot) from a list of options built
before the search starts, and `_depth_first` runs both on one explicit
stack.  No walk recurses, the flattening of a generated order included, so
an input as deep as it is long meets the budget, never the recursion
limit.  Every candidate counts against ``max_candidates``: parse charges
each entry assignment, `_depth_first` each choice taken and each complete
assignment, the head-map search also each head candidate it rejects (a
used slot, or a head below the word), and generation each permutation
drawn for a domain, again each time it reuses that domain's orderings,
and each combined order.
Exceeding the budget raises ResourceLimitError rather than returning a
truncated answer.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .constraints import (
    SELF_VS_ALL,
    admits_class,
    admits_root,
    check_valency,
    missing_features,
)
from .core import (
    DependencyStructure,
    DependencyTree,
    Member,
    ResourceLimitError,
    StructureError,
    ancestor_chain,
    close_word,
    labeled_tree,
    layout_of,
    member_sets_of,
    permute_tree,
    realize_structure,
    self_slots,
    validate_tree,
)
from .lexicon import Lexicon, entry_assignments
from .serialize import canonical_structure
from .validate import iter_structure_violations

DEFAULT_MAX_CANDIDATES = 10_000_000


@dataclass(frozen=True)
class ParseResult:
    """Valid structures for a token sequence, sorted canonically.

    ``diagnostics`` summarizes the search; when ``structures`` is empty it
    says how far candidates got and which checks rejected them.
    """

    structures: tuple[DependencyStructure, ...]
    diagnostics: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.structures)


@dataclass(frozen=True)
class GenerationResult:
    """(surface, structure) pairs for a tree, sorted by surface then structure."""

    pairs: tuple[tuple[str, DependencyStructure], ...]
    diagnostics: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def surfaces(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for surface, _ in self.pairs:
            seen.setdefault(surface)
        return tuple(seen)


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self, count: int = 1) -> None:
        self.used += count
        if self.used > self.limit:
            raise ResourceLimitError(
                f"candidate budget of {self.limit} exhausted"
            )


class _Stats:
    """Search counters plus first-violation tallies for diagnostics.

    ``cuts`` counts the closures parse's checks at closure cut, by check.
    """

    def __init__(self):
        self.counts: Counter[str] = Counter()
        self.rejections: Counter[str] = Counter()
        self.cuts: Counter[str] = Counter()

    def bump(self, key: str) -> None:
        self.counts[key] += 1

    def lines(self, stages: tuple[tuple[str, str], ...]) -> tuple[str, ...]:
        out = [f"{label}: {self.counts.get(key, 0)}" for key, label in stages]
        if self.cuts:
            # the checks that cut, in the validator's order
            cut = ", ".join(
                f"{cond} ({self.cuts[cond]})"
                for cond in _CLOSURE_CHECKS
                if self.cuts[cond]
            )
            out.append(f"rejections at closure: {cut}")
        if self.rejections:
            ranked = sorted(self.rejections.items(), key=lambda kv: (-kv[1], kv[0]))
            top = ", ".join(f"{cond} ({n})" for cond, n in ranked[:6])
            out.append(f"rejections by first failing check: {top}")
        return tuple(out)


def _depth_first(levels, enter, budget):
    """Yield once per complete assignment of a backtracking search.

    A search has ``levels`` levels, each making one choice.  On reaching
    level k the driver calls ``enter(k)``, which returns None for a dead
    end.  Otherwise, below ``levels``, it returns an iterator each step of
    which takes back level k's previous choice, makes its next one and
    yields it (never None); when the iterator runs out, the last choice is
    taken back.  Reaching level ``levels`` itself with a result other than
    None completes an assignment, which the caller reads before asking for
    the next.  Each choice taken and each complete assignment costs one
    tick of ``budget``.
    """
    stack = []
    it = enter(0)
    while True:
        if it is not None:
            if len(stack) < levels:
                stack.append(it)
            else:
                budget.tick()
                yield
        # back to the deepest level with a choice left
        while stack and next(stack[-1], None) is None:
            stack.pop()
        if not stack:
            return
        budget.tick()
        it = enter(len(stack))


# ---------------------------------------------------------------------------
# realization search shared by parse and generate


def _within_bounds(closure, cards) -> bool:
    """Does a closed word meet its cardinality constraints ``cards``?"""
    for card in cards:
        count = 0
        for s, items, _, _, _ in closure:
            if s == card.slot:
                count = len(items)
                break
        if card.broken_bound(count) is not None:
            return False
    return True


_CLOSURE_CHECKS = ("ods.contiguity", "ds.cond4", "domfeat.value", "prec.self",
                   "prec.pair")


def _span_fault(closure) -> str | None:
    """The first span check a closed word's domains fail, or None.

    Read with indices as surface positions, on the first and last word
    `close_word` records for each realized slot: every member set must fill
    its span (``ods.contiguity``), and each realized slot's set must lie
    wholly before the next one's (``ds.cond4``, on consecutive slots of the
    word's sequence).  The validator checks contiguity first.
    """
    fault = None
    prev = -1  # the end of the previous slot's set; indices start at 0
    for _, _, members, first, last in closure:
        if last - first + 1 != len(members):
            return "ods.contiguity"
        if first <= prev:
            fault = "ds.cond4"
        prev = last
    return fault


def _precedence_fault(closure, preds, own, dtype_of) -> str | None:
    """The validator's id of the first of a closed word's precedence
    predicates that its domains fail, or None.

    ``preds`` are the word's predicates and ``own`` its self slot.  Read
    with indices as surface positions, each scoped slot's immediate members
    are the (member, first, last) triples `close_word` records.  Those
    spans and the members' head dtypes are final once the word closes, so
    `PrecedencePredicate.misordered` answers here as `check_precedence`
    does on every completion.
    """
    for pred in preds:
        for s, items, _, _, _ in closure:
            # items are not in surface order, which cannot change whether
            # a predicate finds a misordered pair
            if pred.scopes(s, own) and pred.misordered(items, dtype_of):
                return "prec.self" if pred.kind == SELF_VS_ALL else "prec.pair"
    return None


def _iter_realizations(tree, budget, *, closure_cuts=None):
    """Yield (positional, slot_of, closed) for a valency-checked tree.

    One pass over the words first lists each word's (positional head, slot)
    options, hosts nearest first and slots ascending.  Climbing from its
    direct head, a word stops at the root or after the first head whose
    own dtype is outside its slot's extraction set, and it skips each slot
    with a domain-feature demand it does not meet.  A word that does not
    meet a demand of its own self slot ends the search there.

    Words are placed deepest first, in dependency post-order.  When a word
    comes up, every word below it, and so every word its domains can
    host, is placed, so its domains are closed then (`close_word`) and its
    cardinality bounds checked (immediate members of one slot's domain; an
    unrealized slot counts 0); every placement of the words after it shares
    that closure.  ``closed[w]`` is word w's closure, which records each
    realized slot's members, member set and span, and each immediate
    member's span (see `odgrammar.core.Closure`).  The three values are the
    search's own state: read them before drawing the next placement.

    ``closure_cuts``, a Counter, says that word indices are surface
    positions, as in parse.  Then each closure is also span-checked
    (`_span_fault`) before its bounds, and after them the word's precedence
    predicates are run on its domains (`_precedence_fault`), both on the
    spans the closure records: a closure's member sets are the ones every
    completion realizes, so one that is not a span, is out of sequence, or
    misorders a scoped domain fails ``ods.contiguity``, ``ds.cond4``,
    ``prec.self`` or ``prec.pair`` on every completion, and is cut and
    counted in ``closure_cuts`` under that check.  Generation runs on the
    unpermuted tree, whose indices are not the surface order, and passes
    nothing; it reads only the members' names.
    """
    n = tree.n
    words = tree.words
    parent = tree.head_of()
    dtype_of = tree.dtype_of()
    self_slot = self_slots(tree)
    children: list[list[int]] = [[] for _ in range(n)]
    for w, h in parent.items():
        children[h].append(w)
    options: list[list[tuple[int, int]]] = []  # [] for the root
    for w, word in enumerate(words):
        feats = word.entry.features
        # a word is an immediate member of its own self domain, so one that
        # lacks a feature demanded there fails ``domfeat.value`` on every
        # placement
        if any(r.slot == self_slot[w] and missing_features(r.required, feats)
               for r in word.entry.domain_features):
            if closure_cuts is not None:
                closure_cuts["domfeat.value"] += 1
            return
        choices = []
        options.append(choices)
        if w == tree.root:
            continue
        host = parent[w]
        slot = words[host].entry.slot_for(dtype_of[w])
        while True:
            entry = words[host].entry
            lacking = {r.slot for r in entry.domain_features
                       if missing_features(r.required, feats)}
            choices += [(host, s) for s in range(len(entry.template.slots))
                        if s not in lacking]
            # the dtypes crossed grow as the word climbs; once one falls
            # outside the slot's extraction set, every higher head is blocked
            if host == tree.root or dtype_of[host] not in slot.extraction:
                break
            host = parent[host]
    # every word after the words below it, the root last
    order, stack = [], [tree.root]
    while stack:
        w = stack.pop()
        order.append(w)
        stack.extend(children[w])
    order.reverse()
    cards = [word.entry.cardinalities for word in words]
    preds = [word.entry.predicates for word in words]
    hosted: list[dict[int, list[int]]] = [{} for _ in range(n)]
    closed: list = [None] * n
    positional: dict[int, int] = {}
    slot_of: dict[int, int] = {}
    # a word that hosts nothing closes the same way under every placement;
    # its one domain, {w}, passes the span checks
    for w in range(n):
        if not children[w]:
            closed[w] = close_word(w, self_slot[w], {}, closed)
            if not _within_bounds(closed[w], cards[w]):
                return

    def place(w):
        for p, s in options[w]:
            positional[w] = p
            slot_of[w] = s
            here = hosted[p].setdefault(s, [])
            here.append(w)
            yield p, s
            del positional[w], slot_of[w]
            here.pop()
            if not here:
                del hosted[p][s]

    def enter(k):
        """Close order[k]; its placements, or None when a check fails."""
        w = order[k]
        if children[w]:
            closure = close_word(w, self_slot[w], hosted[w], closed)
            if closure_cuts is not None:
                fault = _span_fault(closure)
                if fault is not None:
                    closure_cuts[fault] += 1
                    return None
            if not _within_bounds(closure, cards[w]):
                return None
            if closure_cuts is not None and preds[w]:
                fault = _precedence_fault(closure, preds[w], self_slot[w], dtype_of)
                if fault is not None:
                    closure_cuts[fault] += 1
                    return None
            closed[w] = closure
        return place(w)

    # the root comes last in ``order`` and makes no choice
    for _ in _depth_first(n - 1, enter, budget):
        yield positional, slot_of, closed


def _judge(violations, stats) -> bool:
    """Is a realized candidate valid?  ``violations`` are its findings, of
    which only the first is read."""
    stats.bump("realized")
    violation = next(violations, None)
    if violation is None:
        return True
    stats.rejections[violation.condition] += 1
    return False


# ---------------------------------------------------------------------------
# parsing


def _iter_head_maps(words, lex, budget, stats):
    """Labeled trees over the words."""
    n = len(words)
    # each word's (head, dtype) options: heads ascending, dtypes in valency
    # order, and only slots whose class and features the word meets
    options: list[list[tuple[int, str]]] = [[] for _ in words]
    for w, h in itertools.permutations(range(n), 2):
        entry = words[w].entry
        for slot in words[h].entry.valency:
            if not admits_class(slot, entry.word_class):
                continue
            if missing_features(slot.features, entry.features):
                continue
            options[w].append((h, slot.dtype))
    for root in range(n):
        if not admits_root(lex, words[root].entry.word_class):
            continue
        rest = [w for w in range(n) if w != root]
        parent: dict[int, int] = {}
        dtype_of: dict[int, str] = {}
        used: set[tuple[int, str]] = set()

        def heads(w):
            for h, dt in options[w]:
                if (h, dt) in used or w in ancestor_chain(parent, h):
                    # `_depth_first` charges the candidates taken
                    budget.tick()
                    continue
                parent[w] = h
                dtype_of[w] = dt
                used.add((h, dt))
                yield h, dt
                del parent[w]
                del dtype_of[w]
                used.discard((h, dt))

        def enter(k):
            return heads(rest[k]) if k < len(rest) else ()

        for _ in _depth_first(len(rest), enter, budget):
            stats.bump("maps")
            # every head choice kept the partial map acyclic, so the
            # complete map is a tree
            yield labeled_tree(words, root, parent, dtype_of)


_PARSE_STAGES = (
    ("entries", "entry assignments tried"),
    ("maps", "labeled head maps enumerated"),
    ("trees", "head maps forming valency-checked trees"),
    ("realized", "realized structures validated"),
)


def parse(
    tokens: list[str] | tuple[str, ...],
    lex: Lexicon,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> ParseResult:
    """All valid structures whose surface order is exactly ``tokens``.

    Unknown tokens raise UnknownTokenError; blowing the candidate budget
    raises ResourceLimitError.  An empty token list yields no structures.
    """
    budget = _Budget(max_candidates)
    stats = _Stats()
    found: dict[str, DependencyStructure] = {}
    for words in entry_assignments(tokens, lex):
        budget.tick()
        stats.bump("entries")
        for tree in _iter_head_maps(words, lex, budget, stats):
            # the search builds well-formed trees, and only a lexicon built
            # in code can break their inventories: `_judge` runs the tree
            # stage on each candidate
            valency = check_valency(tree, lex)
            if not valency.ok:
                stats.rejections[valency.violations[0].condition] += 1
                continue
            stats.bump("trees")
            for positional, slot_of, closed in _iter_realizations(
                tree, budget, closure_cuts=stats.cuts
            ):
                ds = realize_structure(
                    tree, positional, slot_of, member_sets_of(closed)
                )
                if _judge(iter_structure_violations(ds, lex), stats):
                    found.setdefault(canonical_structure(ds, lex), ds)
    structures = tuple(found[key] for key in sorted(found))
    return ParseResult(structures, stats.lines(_PARSE_STAGES))


# ---------------------------------------------------------------------------
# generation


def _arrangements(names, slot, entry, dtype_of, budget):
    """Orderings of ``names``, the immediate members of the owner's domain
    ``slot`` (see `odgrammar.core.Member`).

    Orderings that put a word's own domains out of template-slot order are
    dropped, since they can never satisfy the sequence-order condition, and
    so are those that one of the owner's precedence predicates (from
    ``entry``) scoped to ``slot`` finds misordered, each member spanning its
    rank.  The result depends on the owner, the slot and the names alone,
    so `generate` draws it once per call for each such triple.  Every
    ordering drawn counts against the budget, so a large domain raises
    ResourceLimitError before its permutations pile up.
    """
    preds = [p for p in entry.predicates if p.scopes(slot, entry.template.self_slot)]
    for perm in itertools.permutations(names):
        budget.tick()
        last: dict[int, int] = {}
        for word, s in perm:
            if s is None:
                continue
            if last.get(word, -1) > s:
                break
            last[word] = s
        else:
            if preds:
                members = [(m, rank, rank) for rank, m in enumerate(perm)]
                if any(p.misordered(members, dtype_of) for p in preds):
                    continue
            yield perm


_GEN_STAGES = (
    ("placements", "positional and slot assignments tried"),
    ("orders", "domain arrangements laid out"),
    ("realized", "realized structures validated"),
)


def generate(
    tree: DependencyTree,
    lex: Lexicon,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> GenerationResult:
    """All (surface, structure) pairs realizing ``tree`` in any word order.

    The tree's indices only identify words here; every output order is
    tried.  Tokens must be bound to entries whose class matches the tree's
    class map, and the tree itself must be well formed, else
    StructureError.  A tree that breaks valency yields no pairs.
    """
    report = validate_tree(tree, lex)
    if not report.ok:
        raise StructureError("tree is not well formed:\n" + report.render())
    for w in tree.words:
        if tree.classes[w.index] != w.entry.word_class:
            raise StructureError(
                f"word {w.index} has class {tree.classes[w.index]!r} but its "
                f"entry is {w.entry.word_class!r}"
            )

    budget = _Budget(max_candidates)
    stats = _Stats()
    # valency is order-independent: when it fails, no permutation validates
    if not check_valency(tree, lex).ok:
        return GenerationResult((), stats.lines(_GEN_STAGES))

    dtype_of = tree.dtype_of()
    # (owner, slot, member names) -> the orderings `_arrangements` drew
    arranged: dict[tuple, list[tuple[Member, ...]]] = {}
    found: dict[tuple[str, str], tuple[str, DependencyStructure]] = {}
    for positional, slot_of, closed in _iter_realizations(tree, budget):
        stats.bump("placements")
        layout = layout_of(closed)
        members = member_sets_of(closed)
        choice_lists = []
        for (w, s), items in layout.items():
            names = tuple(m for m, _, _ in items)
            orderings = arranged.get((w, s, names))
            if orderings is None:
                orderings = arranged[w, s, names] = list(
                    _arrangements(names, s, tree.words[w].entry, dtype_of, budget)
                )
            else:
                # a reuse charges the draws it saves, so the budget runs
                # out where drawing them again would exhaust it
                budget.tick(math.factorial(len(names)))
            choice_lists.append(orderings)

        for combo in itertools.product(*choice_lists):
            budget.tick()
            stats.bump("orders")
            chosen = dict(zip(layout, combo))
            # the root's realized slots hold the whole sentence, in slot
            # order; each domain (word, slot) opens into its chosen order
            order: list[int] = []
            stack = [(tree.root, s) for s, _, _, _, _ in reversed(closed[tree.root])]
            while stack:
                w, s = stack.pop()
                if s is None:
                    order.append(w)
                else:
                    stack.extend(reversed(chosen[w, s]))
            permuted, new_index = permute_tree(tree, order)
            pos2 = {new_index[w]: new_index[p] for w, p in positional.items()}
            slot2 = {new_index[w]: s for w, s in slot_of.items()}
            members2 = {
                (new_index[w], s): frozenset([new_index[u] for u in words])
                for (w, s), words in members.items()
            }
            ds = realize_structure(permuted, pos2, slot2, members2)
            # the tree stage and valency held on ``tree``, so they hold on
            # every permutation of it
            if _judge(iter_structure_violations(ds, lex, tree_checked=True), stats):
                surface = " ".join(permuted.forms())
                found.setdefault((surface, canonical_structure(ds, lex)), (surface, ds))
    pairs = tuple(found[key] for key in sorted(found))
    return GenerationResult(pairs, stats.lines(_GEN_STAGES))
