"""Core data model: dependency trees linked to word-order domain structures.

A sentence is represented on two layers.  The first layer is a rooted
dependency tree over the words, with one typed edge per non-root word; the
tree may be non-projective.  The second layer is a hierarchy of *order
domains*: contiguous spans of words that carry all ordering information.

The layers are linked by insertion.  Every word realizes the domain
sequence of its lexical entry (its template) and sits inside exactly one
domain of that sequence, the self domain.  The whole realized sequence is
then nested inside one domain introduced by the word's *positional head*:
a transitive head in the tree, which coincides with the direct head unless
the word has been extracted upwards.  The sentence root nests inside an
implicit top domain spanning all words, introduced by an implicit ROOT
governor that never surfaces.

The domain layer is derived from insertion alone, one word at a time, by
`close_word`: once every word inserted into a word's domains is closed,
the word's realized slots, their immediate members and their member sets
follow.  A domain contains its introducing word (if it is the self slot)
plus every word of the domains inserted into it.  `derived_member_sets`
closes every word in insertion order; the engine's search closes each word
as it goes.  The linking index below (`StructureIndex`) checks each stored
set against the same rule as it sorts each domain's immediate members, and
the validator (`odgrammar.validate`) derives the sets only to report a
mismatch.  Validators below check the four linking conditions:

  1. each word lies in exactly one domain of its own sequence,
  2. the domains of one word's sequence are pairwise disjoint,
  3. each non-root word lies in at least two domains, one of them
     belonging to the sequence of a transitive head,
  4. the left-to-right order of each sequence is consistent with surface
     precedence.

Condition 3 is enforced by the linking stage, `StructureIndex`: each
non-root word lies in its own self domain and, by insertion, in exactly
one domain of its positional head, a transitive head; no domain sits in
two sequences, so those two domains are distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from sys import maxsize
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .lexicon import LexicalEntry, Lexicon

TOP_DOMAIN_ID = "top"


class StructureError(Exception):
    """A structure is too malformed for the requested operation."""


class UnknownTokenError(Exception):
    """A surface token has no entry in the lexicon."""

    def __init__(self, token: str):
        super().__init__(f"unknown token {token!r}")
        self.token = token


class ResourceLimitError(Exception):
    """The search exceeded its candidate budget; results were not truncated."""


class TokenLimitError(Exception):
    """Input is longer than the exhaustive enumeration is willing to take."""


@dataclass(frozen=True)
class Violation:
    """One validator finding: a condition id, the offending indices, a message."""

    condition: str
    subjects: tuple
    message: str

    def render(self) -> str:
        subj = ",".join(str(s) for s in self.subjects)
        return f"{self.condition} [{subj}]: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """Ordered list of violations; empty means the checked object is valid."""

    violations: tuple[Violation, ...]

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def ok(self) -> bool:
        return not self.violations

    def conditions(self) -> set[str]:
        return {v.condition for v in self.violations}

    def by_condition(self, condition: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.condition == condition)

    def render(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(v.render() for v in self.violations)


@dataclass(frozen=True)
class WordToken:
    """A word occurrence: surface position, form, and the lexical entry chosen for it."""

    index: int
    form: str
    entry: "LexicalEntry"


@dataclass(frozen=True)
class DependencyEdge:
    head: int
    dependent: int
    dtype: str


# Per word index: flat attribute -> value map (the word's morphosyntactic features).
FeatureMap = dict[int, dict[str, str]]


@dataclass(frozen=True)
class DependencyTree:
    """Rooted tree of typed dependencies over the words of one sentence.

    Words are kept sorted by index and edges by dependent, so that two
    trees with the same content compare equal regardless of construction
    order.  Projectivity is not required here; discontinuity is constrained
    on the domain layer instead.
    """

    words: tuple[WordToken, ...]
    root: int
    edges: tuple[DependencyEdge, ...]
    classes: dict[int, str]

    def __post_init__(self):
        object.__setattr__(
            self, "words", tuple(sorted(self.words, key=lambda w: w.index))
        )
        object.__setattr__(
            self,
            "edges",
            tuple(sorted(self.edges, key=lambda e: (e.dependent, e.head, e.dtype))),
        )

    @property
    def n(self) -> int:
        return len(self.words)

    def forms(self) -> tuple[str, ...]:
        return tuple(w.form for w in self.words)

    def head_of(self) -> dict[int, int]:
        return {e.dependent: e.head for e in self.edges}

    def dtype_of(self) -> dict[int, str]:
        return {e.dependent: e.dtype for e in self.edges}


def dependency_cycle(parent: dict[int, int], root: int, n: int) -> tuple[int, ...]:
    """The cycle that keeps a word of ``range(n)`` from reaching ``root``.

    ``()`` when every word reaches the root.  Otherwise the first word, in
    index order, whose head chain misses the root, then its transitive
    heads, nearest first, up to the last before one repeats.  ``parent``
    must map every word but the root to a word in range.
    """
    state = [0] * n  # 0 unseen, 1 on current path, 2 reaches the root
    state[root] = 2
    for start in range(n):
        if state[start]:
            continue
        path = []
        w = start
        while state[w] == 0:
            state[w] = 1
            path.append(w)
            w = parent[w]
        if state[w] == 1:
            # every earlier start reached the root, so this one is the first
            return tuple(path)
        for p in path:
            state[p] = 2
    return ()


def ancestor_chain(head_of: dict[int, int], w: int) -> tuple[int, ...]:
    """Transitive heads of ``w``, nearest first; ``head_of`` must be acyclic."""
    chain = []
    while w in head_of:
        w = head_of[w]
        chain.append(w)
    return tuple(chain)


def permute_tree(
    tree: DependencyTree, order: Iterable[int]
) -> tuple[DependencyTree, dict[int, int]]:
    """The same tree with its words laid out in ``order``.

    ``order`` lists old word indices by new position.  Forms, entries,
    classes, heads and dependency types move with their words; the map
    from old to new index is returned alongside the tree.
    """
    new_index = {old: new for new, old in enumerate(order)}
    words = tuple(
        WordToken(new, tree.words[old].form, tree.words[old].entry)
        for old, new in new_index.items()
    )
    edges = tuple(
        DependencyEdge(new_index[e.head], new_index[e.dependent], e.dtype)
        for e in tree.edges
    )
    classes = {new_index[w]: c for w, c in tree.classes.items()}
    return DependencyTree(words, new_index[tree.root], edges, classes), new_index


def labeled_tree(
    words: tuple[WordToken, ...],
    root: int,
    parent: dict[int, int],
    dtype_of: dict[int, str],
) -> DependencyTree:
    """The tree over ``words`` in which each word w but ``root`` depends on
    ``parent[w]`` by ``dtype_of[w]``, each word classed by its entry."""
    edges = tuple(DependencyEdge(h, w, dtype_of[w]) for w, h in parent.items())
    classes = {w.index: w.entry.word_class for w in words}
    return DependencyTree(words, root, edges, classes)


@dataclass(frozen=True)
class OrderDomain:
    """A named contiguous set of word indices.

    Its first and last word are taken once, as it is made, and kept beside
    the fields, so equality, hashing and repr do not see them.
    """

    id: str
    members: frozenset[int]

    def __post_init__(self):
        members = self.members
        if not isinstance(members, frozenset):
            members = frozenset(members)
            object.__setattr__(self, "members", members)
        object.__setattr__(
            self, "_span", (min(members), max(members)) if members else None
        )

    def span(self) -> tuple[int, int]:
        """(first, last) member; ValueError, as from min(), when empty."""
        if self._span is None:
            min(self.members)  # raises min()'s own ValueError
        return self._span

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class OrderDomainStructure:
    """All realized domains of a sentence plus each word's domain sequence.

    ``assoc`` maps a word index to one slot per position of its entry's
    template, holding the id of the realized domain or None where the slot
    stayed empty.  The top domain appears in ``domains`` but in no word's
    sequence; it belongs to the implicit ROOT governor.
    """

    domains: tuple[OrderDomain, ...]
    assoc: dict[int, tuple[str | None, ...]]

    def __post_init__(self):
        object.__setattr__(
            self, "domains", tuple(sorted(self.domains, key=lambda d: d.id))
        )
        object.__setattr__(
            self, "assoc", {w: tuple(seq) for w, seq in sorted(self.assoc.items())}
        )

    def by_id(self) -> dict[str, OrderDomain]:
        return {d.id: d for d in self.domains}

    def realized(self, word: int) -> tuple[str, ...]:
        return tuple(d for d in self.assoc[word] if d is not None)


@dataclass(frozen=True)
class DependencyStructure:
    """A tree, its feature maps, the domain layer, and the positional-head map.

    ``positional`` maps every non-root word to the transitive head whose
    domain hosts it.  The root is hosted by the implicit top domain and has
    no entry here.
    """

    tree: DependencyTree
    features: FeatureMap
    domains: OrderDomainStructure
    positional: dict[int, int]

    def __post_init__(self):
        object.__setattr__(
            self, "features", {w: dict(fs) for w, fs in sorted(self.features.items())}
        )
        object.__setattr__(self, "positional", dict(sorted(self.positional.items())))


# ---------------------------------------------------------------------------
# tree validation


def iter_tree_violations(
    tree: DependencyTree, lex: "Lexicon | None" = None
) -> Iterator[Violation]:
    if not tree.words:
        yield Violation("tree.empty", (), "tree has no words")
        return
    n = len(tree.words)
    indices = [w.index for w in tree.words]
    if indices != list(range(n)):
        yield Violation(
            "tree.index",
            tuple(indices),
            f"word indices must form the range 0..{n - 1}",
        )
        return
    if not 0 <= tree.root < n:
        yield Violation("tree.root-range", (tree.root,), "root index out of range")
        return

    dtypes = lex.dtype_set() if lex is not None else None
    classes = lex.class_set() if lex is not None else None
    for w in tree.words:
        if w.entry is None:
            yield Violation(
                "tree.entry-missing",
                (w.index,),
                f"word {w.index} is not bound to a lexical entry",
            )
        elif lex is not None and w.entry not in lex.entries.get(w.form, ()):
            yield Violation(
                "tree.entry-unknown",
                (w.index,),
                f"word {w.index} is bound to an entry the lexicon does not "
                f"hold for {w.form!r}",
            )
        cls = tree.classes.get(w.index)
        if cls is None:
            yield Violation(
                "tree.class-missing", (w.index,), f"word {w.index} has no class"
            )
        elif classes is not None and cls not in classes:
            yield Violation(
                "tree.class-inventory",
                (w.index, cls),
                f"class {cls!r} is not declared",
            )
    for w in sorted(w for w in tree.classes if not 0 <= w < n):
        yield Violation("tree.class-extra", (w,), f"class given for unknown word {w}")

    incoming: dict[int, list[DependencyEdge]] = {w.index: [] for w in tree.words}
    structural = False
    for e in tree.edges:
        if not (0 <= e.head < n and 0 <= e.dependent < n):
            yield Violation(
                "tree.edge-range",
                (e.head, e.dependent),
                f"edge {e.head}-{e.dtype}->{e.dependent} leaves the word range",
            )
            structural = True
            continue
        if e.head == e.dependent:
            yield Violation(
                "tree.self-edge", (e.head,), f"word {e.head} governs itself"
            )
            structural = True
            continue
        if dtypes is not None and e.dtype not in dtypes:
            yield Violation(
                "tree.dtype-inventory",
                (e.head, e.dependent, e.dtype),
                f"dependency type {e.dtype!r} is not declared",
            )
        incoming[e.dependent].append(e)

    for w in tree.words:
        edges_in = incoming[w.index]
        if w.index == tree.root:
            if edges_in:
                yield Violation(
                    "tree.root-head",
                    (w.index,),
                    "the root must not have an incoming edge",
                )
                structural = True
        elif not edges_in:
            yield Violation(
                "tree.no-head", (w.index,), f"word {w.index} has no head"
            )
            structural = True
        elif len(edges_in) > 1:
            yield Violation(
                "tree.multi-head",
                (w.index,),
                f"word {w.index} has {len(edges_in)} heads",
            )
            structural = True

    if structural:
        return
    cycle = dependency_cycle(tree.head_of(), tree.root, n)
    if cycle:
        yield Violation(
            "tree.cycle", tuple(sorted(cycle)), "dependency cycle detected"
        )


def validate_tree(tree: DependencyTree, lex: "Lexicon | None" = None) -> ValidationReport:
    """Check rootedness, single-headedness, acyclicity, and symbol inventories."""
    return ValidationReport(tuple(iter_tree_violations(tree, lex)))


# ---------------------------------------------------------------------------
# order domain structure validation


def _spans_nest(spans: list[tuple[int, int]]) -> bool:
    """Do the spans, each given as (start, -end), pairwise nest or lie apart?

    Sorted by start, longest first, they do exactly when each lies within
    the innermost earlier span that has not ended before it starts.
    """
    open_ends: list[int] = []  # the ends of a chain of nested spans
    for start, neg_end in sorted(spans):
        while open_ends and open_ends[-1] < start:
            open_ends.pop()
        if open_ends and open_ends[-1] < -neg_end:
            return False
        open_ends.append(-neg_end)
    return True


def iter_ods_violations(
    ods: OrderDomainStructure, n_words: int
) -> Iterator[Violation]:
    seen_ids: set[str] = set()
    spans: list[tuple[int, int]] | None = []  # None once a domain is no span
    for d in ods.domains:
        if d.id in seen_ids:
            yield Violation("ods.dup-id", (d.id,), f"duplicate domain id {d.id!r}")
        seen_ids.add(d.id)
        members = d.members
        if not members:
            yield Violation("ods.empty", (d.id,), f"domain {d.id!r} has no members")
            spans = None
            continue
        lo, hi = d.span()
        if lo < 0 or hi >= n_words:
            yield Violation(
                "ods.range",
                (d.id, *sorted(m for m in members if not 0 <= m < n_words)),
                f"domain {d.id!r} contains out-of-range indices",
            )
            spans = None
            continue
        if len(members) != hi - lo + 1:
            yield Violation(
                "ods.contiguity",
                (d.id,),
                f"domain {d.id!r} is not contiguous: {sorted(members)}",
            )
            spans = None
        elif spans is not None:
            spans.append((lo, -hi))

    # Any two domains must be nested or disjoint.  When every domain is a
    # span, sorting the spans decides it; only a crossing, or a domain that
    # is no span, needs the pairwise loop, which reports every overlapping
    # pair in id order.
    domains = () if spans is not None and _spans_nest(spans) else ods.domains
    for i in range(len(domains)):
        for j in range(i + 1, len(domains)):
            a, b = domains[i].members, domains[j].members
            if a & b and not (a <= b or b <= a):
                yield Violation(
                    "ods.hierarchy",
                    (domains[i].id, domains[j].id),
                    f"domains {domains[i].id!r} and {domains[j].id!r} overlap "
                    "without nesting",
                )

    full = frozenset(range(n_words))
    if n_words and not any(d.members == full for d in ods.domains):
        yield Violation(
            "ods.top", (), "no domain spans the whole sentence (top element missing)"
        )

    for w, seq in ods.assoc.items():
        if not 0 <= w < n_words:
            yield Violation(
                "ods.assoc-range", (w,), f"sequence given for unknown word {w}"
            )
        for did in seq:
            if did is not None and did not in seen_ids:
                yield Violation(
                    "ods.assoc-unknown",
                    (w, did),
                    f"sequence of word {w} names unknown domain {did!r}",
                )


def validate_domain_structure(
    ods: OrderDomainStructure, n_words: int
) -> ValidationReport:
    """Check contiguity, pairwise nesting or disjointness, and the top element."""
    return ValidationReport(tuple(iter_ods_violations(ods, n_words)))


# ---------------------------------------------------------------------------
# navigation

# An immediate member of a domain is named by a (word, slot) pair: (w, None)
# is the introducing word w itself, and (u, s) the realized domain of slot s
# of a word u inserted into the domain, under the key `layout_of` and
# `member_sets_of` give that domain.  The search's closures and the linking
# index (`StructureIndex.members`) each record a domain's members once, every
# member with its span, as (member, first position, last position).
Member = tuple[int, int | None]
SpannedMember = tuple[Member, int, int]
_first = itemgetter(1)  # a spanned member's first position


class StructureIndex:
    """The linking between the two layers of one structure, and navigation.

    Derives, once, which word and slot own each domain, the top domain,
    each word's insertion (the one domain of its positional head's
    sequence that holds it, and that domain's slot), the heads the
    insertion crosses (``crossed[w]``: w's transitive heads from its
    direct head up to, not including, its positional head, nearest first,
    so ``()`` when the two coincide), and each domain's immediate members
    in surface order (``members[did]``, what `immediate_members` returns).
    Its climb from each word to the positional head is the one such walk.
    This is the validator's linking stage: every linking fault is recorded
    in ``problems``, in the order the validator reports them, instead of
    being raised.  The member lists are only recorded when ``problems`` is
    empty.  Two more records come from the same walks, and both are False
    on an index with problems:

    - ``sequences_ordered``: every realized sequence names known, non-empty
      domains whose spans run strictly left to right, each ending before
      the next one starts (read in the walk that finds each domain's
      owner; see `iter_condition_violations`).
    - ``sets_derived``: every owned domain's immediate members, sorted by
      their first words, cover the domain's span without a gap and reach
      no further (read as the member lists are sorted).  Then each stored
      member set is the one insertion derives, by induction up the
      insertion, which is acyclic on an index without problems: a domain
      holds exactly its immediate members, its introducer when it is the
      introducer's self slot and its sub-domains as stored, and each of
      them is a span.  A slot left empty is empty in the derivation too,
      since ``slot_of`` only names realized slots and the index refuses an
      empty self slot.

    Precondition: both layers pass their own stages
    (`iter_tree_violations`, `iter_ods_violations`); the index re-checks
    nothing those own, and the validator and the ``check_*`` functions
    build it only after both.
    """

    def __init__(self, ds: DependencyStructure):
        tree = ds.tree
        n = self.n = tree.n
        # one pass over the edges; problems are appended in report order
        head_of: dict[int, int] = {}
        dtype_of: dict[int, str] = {}
        for e in tree.edges:
            head_of[e.dependent] = e.head
            dtype_of[e.dependent] = e.dtype
        self.head_of, self.dtype_of = head_of, dtype_of
        by_id = self.by_id = ds.domains.by_id()
        assoc = ds.domains.assoc
        problems: list[Violation] = []
        self.problems = problems

        self_slot: list[int | None] = [None] * n
        for w, word in enumerate(tree.words):
            seq = assoc.get(w)
            if seq is None:
                problems.append(
                    Violation(
                        "ds.assoc-missing", (w,), f"word {w} has no domain sequence"
                    )
                )
                continue
            template = word.entry.template
            own = self_slot[w] = template.self_slot
            if len(seq) != len(template.slots):
                problems.append(
                    Violation(
                        "ds.assoc-arity",
                        (w,),
                        f"word {w} realizes {len(seq)} slots but its template has "
                        f"{len(template.slots)}",
                    )
                )
                continue
            self_id = seq[own]
            if self_id not in by_id or w not in by_id[self_id].members:
                problems.append(
                    Violation(
                        "ds.self-domain",
                        (w,),
                        f"the self slot of word {w} must be realized and contain it",
                    )
                )

        owner: dict[str, tuple[int, int]] = {}
        self.owner = owner
        ordered = True  # see `sequences_ordered`
        for w in range(n):
            end = -1  # a domain starting below word 0 just fails the order test
            for slot, did in enumerate(assoc.get(w, ())):
                d = by_id.get(did)
                if d is None:
                    ordered = ordered and did is None
                    continue
                span = d._span  # None on an empty domain, which is unordered
                if span is None or span[0] <= end:
                    ordered = False
                else:
                    end = span[1]
                if did in owner:
                    problems.append(
                        Violation(
                            "ds.domain-shared",
                            (did, owner[did][0], w),
                            f"domain {did!r} appears in two sequences",
                        )
                    )
                owner[did] = (w, slot)
        unowned = [d.id for d in ds.domains.domains if d.id not in owner]
        if len(unowned) != 1 or by_id[unowned[0]].members != frozenset(range(n)):
            problems.append(
                Violation(
                    "ds.top-owner",
                    tuple(unowned),
                    "exactly one domain (the top, spanning all words) may stay "
                    "outside every word's sequence",
                )
            )
        self.top_id = unowned[0] if unowned else None

        positional = ds.positional
        for w in positional:
            if not 0 <= w < n:
                problems.append(
                    Violation(
                        "ds.positional-extra",
                        (w,),
                        f"positional head recorded for unknown word {w}",
                    )
                )
        self.insertion: dict[int, str | None] = {tree.root: self.top_id}
        self.slot_of: dict[int, int] = {}
        self.crossed: dict[int, tuple[int, ...]] = {}
        for w in range(n):
            if w == tree.root:
                if w in positional:
                    problems.append(
                        Violation(
                            "ds.positional-root",
                            (w,),
                            "the root has no positional head; it sits in the "
                            "top domain",
                        )
                    )
                continue
            p = positional.get(w)
            if p is None:
                problems.append(
                    Violation(
                        "ds.positional-missing",
                        (w,),
                        f"word {w} has no positional head",
                    )
                )
                continue
            # climb from w no higher than p, and at most n steps, which
            # also ends the walk on a cyclic tree; the heads passed below p
            # are those whose incoming edges w's insertion crosses
            crossed, u = [], w
            for _ in range(n):
                u = head_of.get(u)
                if u is None or u == p:
                    break
                crossed.append(u)
            if u != p:
                problems.append(
                    Violation(
                        "ds.positional-head",
                        (w, p),
                        f"positional head {p} is not a transitive head of word {w}",
                    )
                )
                continue
            hosts = [
                (slot, did)
                for slot, did in enumerate(assoc.get(p, ()))
                if did in by_id and w in by_id[did].members
            ]
            if len(hosts) != 1:
                problems.append(
                    Violation(
                        "ds.insertion",
                        (w, p),
                        f"word {w} must lie in exactly one domain of word {p}'s "
                        f"sequence, found {len(hosts)}",
                    )
                )
                continue
            self.slot_of[w], self.insertion[w] = hosts[0]
            self.crossed[w] = tuple(crossed)

        self.members: dict[str, tuple[SpannedMember, ...]] = {}
        self.sequences_ordered = self.sets_derived = False
        if problems:
            return
        self.sequences_ordered = ordered
        # each domain of a word's sequence nests in the word's insertion;
        # an introducer goes first, so the stable sort keeps it ahead of a
        # member that starts where it does
        members: dict[str, list[SpannedMember]] = {did: [] for did in by_id}
        for did, (w, slot) in owner.items():
            if slot == self_slot[w]:
                members[did].insert(0, ((w, None), w, w))
            members[self.insertion[w]].append(((w, slot), *by_id[did].span()))
        derived = True  # see `sets_derived`
        for did, items in members.items():
            if len(items) > 1:
                items.sort(key=_first)
            if derived and did in owner:
                lo, hi = by_id[did].span()
                reach = lo - 1
                for _, first, last in items:
                    if first < lo or first > reach + 1:
                        derived = False
                        break
                    if last > reach:
                        reach = last
                else:
                    derived = reach == hi
        self.sets_derived = derived
        self.members = {did: tuple(items) for did, items in members.items()}

    def immediate_members(self, did: str) -> tuple[SpannedMember, ...]:
        """The domain's immediate members in surface order, each as (member,
        first position, last position): its introducer, when ``did`` is the
        introducer's self domain, and its maximal sub-domains."""
        return self.members[did]


# ---------------------------------------------------------------------------
# linking conditions and derived membership


def iter_condition_violations(
    ds: DependencyStructure, idx: StructureIndex
) -> Iterator[Violation]:
    """Linking conditions 1, 2 and 4, checked literally on the stored sets.

    ``idx`` is the structure's index.  Built without problems, it means
    condition 3 already holds (see the module docstring), and it has
    checked that each word's self domain holds the word.  So when it
    records ``sequences_ordered``, all three conditions hold: each domain
    ends before the next starts (4), so the domains are disjoint (2), and
    the word lies in its self domain and in no other (1); nothing is
    walked here.  Only when that record is False, as it always is on an
    index with problems, do the literal loops run.
    """
    if idx.sequences_ordered:
        return
    by_id = idx.by_id
    seqs = [ds.domains.realized(w) for w in range(idx.n)]

    for w, seq in enumerate(seqs):
        own = [did for did in seq if w in by_id[did].members]
        if len(own) != 1:
            yield Violation(
                "ds.cond1",
                (w,),
                f"word {w} lies in {len(own)} domains of its own sequence "
                "(exactly one required)",
            )

    for w, seq in enumerate(seqs):
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if not by_id[seq[i]].members.isdisjoint(by_id[seq[j]].members):
                    yield Violation(
                        "ds.cond2",
                        (w, seq[i], seq[j]),
                        f"domains {seq[i]!r} and {seq[j]!r} of word {w}'s "
                        "sequence are not pairwise disjoint",
                    )

    for w, seq in enumerate(seqs):
        for left_id, right_id in zip(seq, seq[1:]):
            left, right = by_id[left_id], by_id[right_id]
            if left.span()[1] >= right.span()[0]:
                yield Violation(
                    "ds.cond4",
                    (w, left.id, right.id),
                    f"sequence of word {w} is not ordered: {left.id!r} must "
                    f"precede {right.id!r} on the surface",
                )


# One word's realized domains, ascending by slot: (slot, immediate members,
# member set, first word, last word) per realized slot, each immediate member
# as (member, first word, last word).  See `close_word`.  Firsts and lasts
# are word indices: surface positions in parse, the unpermuted tree's
# indices, never read, in generation.
Closure = tuple[tuple[int, list[SpannedMember], frozenset[int], int, int], ...]


def close_word(
    w: int,
    own: int,
    hosted: dict[int, list[int]],
    closed: Sequence[Closure | None],
) -> Closure:
    """Word ``w``'s realized domains, fixed once every word it hosts is closed.

    This is the one derivation of the domain layer from the insertion
    choices.  ``own`` is w's self slot, ``hosted`` maps a slot of w to the
    words inserted there, and ``closed[u]`` is this function's result for
    each such word u.  A slot is realized when it is the self slot or hosts
    a word.  Its immediate members (see `Member`) are (w, None) in the self
    slot, then (u, s) for every hosted word u (ascending) and each of u's
    realized slots s (ascending); its member set is w (in the self slot)
    plus the member sets of those domains.  Each member spans its first to
    its last word: (w, None) just w, (u, s) what u's closure records for
    slot s; the slot spans the least first and the greatest last of its
    members, so each span is computed once, as its slot closes.
    """
    out = []
    for s in sorted({own, *hosted}) if hosted else (own,):
        if s == own:
            items, acc, lo, hi = [((w, None), w, w)], {w}, w, w
        else:
            items, acc, lo, hi = [], set(), maxsize, -1
        for u in sorted(hosted.get(s, ())):
            for s2, _, members, first, last in closed[u]:
                items.append(((u, s2), first, last))
                acc |= members
                if first < lo:
                    lo = first
                if last > hi:
                    hi = last
        out.append((s, items, frozenset(acc), lo, hi))
    return tuple(out)


def _close_all(
    tree: DependencyTree, positional: dict[int, int], slot_of: dict[int, int]
) -> list[Closure]:
    """`close_word` for every word, each after the words it hosts.

    ``slot_of[w]`` names the template slot of positional(w) hosting w.
    Raises StructureError when the insertions form a cycle.
    """
    hosted: list[dict[int, list[int]]] = [{} for _ in range(tree.n)]
    for w, p in positional.items():
        hosted[p].setdefault(slot_of[w], []).append(w)
    # hosts before the words they host, from the uninserted words down; the
    # list grows as it is walked, and words on an insertion cycle are never
    # reached
    order = [w for w in range(tree.n) if w not in positional]
    for w in order:
        for words in hosted[w].values():
            order.extend(words)
    if len(order) != tree.n:
        reached = set(order)
        w = next(w for w in range(tree.n) if w not in reached)
        raise StructureError(f"insertion cycle through word {w}")
    self_slot = self_slots(tree)
    closed: list[Closure | None] = [None] * tree.n
    for w in reversed(order):
        closed[w] = close_word(w, self_slot[w], hosted[w], closed)
    return closed


def layout_of(closed: Sequence[Closure]) -> dict[tuple[int, int], list[SpannedMember]]:
    """Each realized domain (owner, slot) mapped to its immediate members,
    each as (member, first word, last word), with keys in ascending order."""
    return {(w, s): items for w, c in enumerate(closed) for s, items, _, _, _ in c}


def member_sets_of(closed: Sequence[Closure]) -> dict[tuple[int, int], frozenset[int]]:
    """Each realized domain (owner, slot) mapped to the words it contains."""
    return {(w, s): members for w, c in enumerate(closed) for s, _, members, _, _ in c}


def self_slots(tree: DependencyTree) -> list[int]:
    """Each word's template self slot, by word index."""
    return [word.entry.template.self_slot for word in tree.words]


def derived_member_sets(
    tree: DependencyTree,
    positional: dict[int, int],
    slot_of: dict[int, int],
) -> dict[tuple[int, int], frozenset[int]]:
    """Member sets every domain must carry, from `close_word` over every word.

    A domain holds its introducing word (if it is the self slot) plus every
    word of the domains nested in it.  Raises StructureError when the
    insertions form a cycle.  `realize_structure` calls it when it is not
    given the sets, and the validator only to report the slots whose stored
    sets differ; the searches derive their own as they close each word.
    """
    return member_sets_of(_close_all(tree, positional, slot_of))


def domain_id(owner: int, slot: int) -> str:
    """Canonical id for the realized domain of one template slot."""
    return f"d{owner}.{slot}"


def realize_structure(
    tree: DependencyTree,
    positional: dict[int, int],
    slot_of: dict[int, int],
    members: dict[tuple[int, int], frozenset[int]] | None = None,
) -> DependencyStructure:
    """Build the full structure determined by positional-head and slot choices.

    Word indices are taken as the surface order.  Every non-root word must
    appear in ``positional`` and ``slot_of``; member sets and the domain
    sequences are derived, and the top domain is added.  A caller that has
    already derived the member sets, ``derived_member_sets(tree, positional,
    slot_of)``, passes them as ``members``, which is read and not changed.
    """
    if members is None:
        members = derived_member_sets(tree, positional, slot_of)
    seqs = [[None] * len(word.entry.template.slots) for word in tree.words]
    domains = [OrderDomain(TOP_DOMAIN_ID, frozenset(range(tree.n)))]
    for (w, s), words in members.items():
        did = domain_id(w, s)
        domains.append(OrderDomain(did, words))
        # a slot beyond the template is realized but in no sequence
        if 0 <= s < len(seqs[w]):
            seqs[w][s] = did
    # the structure copies the feature dicts and ``positional`` itself
    return DependencyStructure(
        tree=tree,
        features={w.index: w.entry.features for w in tree.words},
        domains=OrderDomainStructure(tuple(domains), dict(enumerate(seqs))),
        positional=positional,
    )
