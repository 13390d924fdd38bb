"""Independent re-implementation of the validity decision, plus a sampler.

`independent_verdict` answers "is this structure valid under this lexicon"
from scratch: it reads only the plain data fields of the structure and the
lexical entries and never calls into the package's validators, index, or
derivation helpers.  The test suite compares it against the library on
thousands of randomly built structures; any disagreement is a bug in one
of the two implementations.

`StructureSampler` produces those structures: random trees realized into
domain layers, random mutations of valid structures, and fully random
domain layers, with the mix controlled by one seeded RNG so the whole run
is reproducible.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

from odgrammar import (
    DependencyEdge,
    DependencyStructure,
    DependencyTree,
    OrderDomain,
    OrderDomainStructure,
    StructureError,
    WordToken,
    realize_structure,
    reference_lexicon,
    structure_is_valid,
)

DEFAULT_SEED = 20260824


# ---------------------------------------------------------------------------
# the independent decision procedure


def _tree_ok(tree, lex) -> bool:
    n = len(tree.words)
    if n == 0:
        return False
    if [w.index for w in tree.words] != list(range(n)):
        return False
    if not 0 <= tree.root < n:
        return False
    known_classes = set(lex.classes)
    for w in tree.words:
        if w.entry not in lex.entries.get(w.form, ()):
            return False
        if tree.classes.get(w.index) not in known_classes:
            return False
    if set(tree.classes) != set(range(n)):
        return False
    known_dtypes = set(lex.dtypes)
    parent: dict[int, int] = {}
    for e in tree.edges:
        if not (0 <= e.head < n and 0 <= e.dependent < n):
            return False
        if e.head == e.dependent:
            return False
        if e.dtype not in known_dtypes:
            return False
        if e.dependent in parent:
            return False
        parent[e.dependent] = e.head
    if tree.root in parent:
        return False
    for w in range(n):
        if w != tree.root and w not in parent:
            return False
    for w in range(n):
        hops = 0
        cur = w
        while cur != tree.root:
            cur = parent[cur]
            hops += 1
            if hops > n:
                return False
    return True


def _domains_ok(ods, n: int) -> bool:
    ids = [d.id for d in ods.domains]
    if len(ids) != len(set(ids)):
        return False
    for d in ods.domains:
        if not d.members:
            return False
        ms = sorted(d.members)
        if ms[0] < 0 or ms[-1] >= n:
            return False
        if ms != list(range(ms[0], ms[-1] + 1)):
            return False
    sets = [set(d.members) for d in ods.domains]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            common = sets[i] & sets[j]
            if common and common != sets[i] and common != sets[j]:
                return False
    if n and set(range(n)) not in sets:
        return False
    known = set(ids)
    for w, seq in ods.assoc.items():
        if not 0 <= w < n:
            return False
        for did in seq:
            if did is not None and did not in known:
                return False
    return True


def _ancestor_sets(tree) -> dict[int, set[int]]:
    parent = {e.dependent: e.head for e in tree.edges}
    out = {}
    for w in range(len(tree.words)):
        chain = set()
        cur = w
        while cur in parent:
            cur = parent[cur]
            chain.add(cur)
        out[w] = chain
    return out


def _linking_ok(ds) -> bool:
    tree = ds.tree
    n = tree.n
    members = {d.id: set(d.members) for d in ds.domains.domains}

    for w in range(n):
        seq = ds.domains.assoc.get(w)
        if seq is None:
            return False
        entry = tree.words[w].entry
        if len(seq) != len(entry.template.slots):
            return False
        self_id = seq[entry.template.self_slot]
        if self_id is None or w not in members[self_id]:
            return False

    used = Counter(
        did
        for w in range(n)
        for did in ds.domains.assoc[w]
        if did is not None
    )
    if any(c > 1 for c in used.values()):
        return False
    unowned = [did for did in members if did not in used]
    if len(unowned) != 1 or members[unowned[0]] != set(range(n)):
        return False

    for w in ds.positional:
        if not 0 <= w < n or w == tree.root:
            return False
    ancestors = _ancestor_sets(tree)
    for w in range(n):
        if w == tree.root:
            continue
        p = ds.positional.get(w)
        if p is None or p not in ancestors[w]:
            return False
        hosts = [
            did
            for did in ds.domains.assoc[p]
            if did is not None and w in members[did]
        ]
        if len(hosts) != 1:
            return False

    for w in range(n):
        entry = tree.words[w].entry
        if tree.classes.get(w) != entry.word_class:
            return False
        if ds.features.get(w, {}) != dict(entry.features):
            return False
    return True


def _conditions_ok(ds) -> bool:
    tree = ds.tree
    n = tree.n
    members = {d.id: set(d.members) for d in ds.domains.domains}
    realized = {
        w: [did for did in ds.domains.assoc[w] if did is not None]
        for w in range(n)
    }

    for w in range(n):
        if sum(1 for did in realized[w] if w in members[did]) != 1:
            return False
        seq = realized[w]
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if members[seq[i]] & members[seq[j]]:
                    return False
        for left, right in zip(seq, seq[1:]):
            if max(members[left]) >= min(members[right]):
                return False

    ancestors = _ancestor_sets(tree)
    for w in range(n):
        if w == tree.root:
            continue
        containing = {did for did, ms in members.items() if w in ms}
        if len(containing) < 2:
            return False
        if not any(
            did in containing for a in ancestors[w] for did in realized[a]
        ):
            return False
    return True


def _lexical_ok(ds, lex) -> bool:
    tree = ds.tree
    n = tree.n
    members = {d.id: set(d.members) for d in ds.domains.domains}
    parent = {e.dependent: e.head for e in tree.edges}
    label = {e.dependent: e.dtype for e in tree.edges}
    ancestors = _ancestor_sets(tree)

    # slot of the positional head that hosts each non-root word
    host_slot = {}
    for w in range(n):
        if w == tree.root:
            continue
        p = ds.positional[w]
        for s, did in enumerate(ds.domains.assoc[p]):
            if did is not None and w in members[did]:
                host_slot[w] = s

    # stored member sets must equal the ones the insertions generate
    depth = {w: len(ancestors[w]) for w in range(n)}
    group = {w: {w} for w in range(n)}
    for w in sorted(range(n), key=lambda x: -depth[x]):
        if w != tree.root:
            group[ds.positional[w]] |= group[w]
    expected: dict[tuple[int, int], set[int]] = {}
    for w in range(n):
        expected[(w, tree.words[w].entry.template.self_slot)] = {w}
    for w in range(n):
        if w == tree.root:
            continue
        key = (ds.positional[w], host_slot[w])
        expected.setdefault(key, set()).update(group[w])
    for w in range(n):
        for s, did in enumerate(ds.domains.assoc[w]):
            want = expected.get((w, s))
            got = members[did] if did is not None else None
            if got != want:
                return False

    # valency frames
    for w in tree.words:
        by_type = {s.dtype: s for s in w.entry.valency}
        filled = set()
        for e in tree.edges:
            if e.head != w.index:
                continue
            slot = by_type.get(e.dtype)
            if slot is None or e.dtype in filled:
                return False
            filled.add(e.dtype)
            dep = tree.words[e.dependent].entry
            if slot.dep_class is not None and dep.word_class != slot.dep_class:
                return False
            for attr, value in slot.features.items():
                if dep.features.get(attr) != value:
                    return False
        for slot in w.entry.valency:
            if slot.required and slot.dtype not in filled:
                return False
    if lex.root_classes:
        if tree.words[tree.root].entry.word_class not in set(lex.root_classes):
            return False

    # extraction path licensing
    for w in range(n):
        if w == tree.root:
            continue
        head = parent[w]
        slot = next(
            (s for s in tree.words[head].entry.valency if s.dtype == label[w]),
            None,
        )
        if slot is None:
            continue
        cur = head
        while cur != ds.positional[w]:
            if label[cur] not in slot.extraction:
                return False
            cur = parent[cur]

    # immediate member lists, rebuilt from the insertion targets
    owner_of = {}
    for w in range(n):
        for s, did in enumerate(ds.domains.assoc[w]):
            if did is not None:
                owner_of[did] = (w, s)
    top_id = next(did for did in members if did not in owner_of)
    hosted_in = {tree.root: top_id}
    for w in range(n):
        if w != tree.root:
            hosted_in[w] = ds.domains.assoc[ds.positional[w]][host_slot[w]]
    imm: dict[str, list] = {did: [] for did in members}
    for w in range(n):
        for did in ds.domains.assoc[w]:
            if did is not None:
                imm[hosted_in[w]].append(("d", did))
    for did, (w, s) in owner_of.items():
        if tree.words[w].entry.template.self_slot == s:
            imm[did].append(("w", w))

    def head_word(item):
        return item[1] if item[0] == "w" else owner_of[item[1]][0]

    def span(item):
        if item[0] == "w":
            return (item[1], item[1])
        ms = members[item[1]]
        return (min(ms), max(ms))

    # per-slot counts and feature demands
    for w in range(n):
        entry = tree.words[w].entry
        for card in entry.cardinalities:
            did = ds.domains.assoc[w][card.slot]
            count = len(imm[did]) if did is not None else 0
            if count < card.min:
                return False
            if card.max is not None and count > card.max:
                return False
        for req in entry.domain_features:
            did = ds.domains.assoc[w][req.slot]
            if did is None:
                continue
            for item in imm[did]:
                feats = ds.features.get(head_word(item), {})
                for attr, value in req.required.items():
                    if feats.get(attr) != value:
                        return False

    # precedence, scoped to the introducer's realized domains
    for w in range(n):
        entry = tree.words[w].entry
        for pred in entry.predicates:
            if pred.kind == "self-vs-all":
                did = ds.domains.assoc[w][entry.template.self_slot]
                for item in imm[did]:
                    if item == ("w", w):
                        continue
                    lo, hi = span(item)
                    if pred.direction == "precedes":
                        if not w < lo:
                            return False
                    elif not w > hi:
                        return False
            else:
                for did in ds.domains.assoc[w]:
                    if did is None:
                        continue

                    def matches(item, labels):
                        hw = head_word(item)
                        return (
                            hw != w
                            and label.get(hw) in labels
                            and w in ancestors[hw]
                        )

                    lefts = [
                        i for i in imm[did] if matches(i, set(pred.left))
                    ]
                    rights = [
                        i for i in imm[did] if matches(i, set(pred.right))
                    ]
                    for a in lefts:
                        for b in rights:
                            if head_word(a) == head_word(b):
                                continue
                            alo, ahi = span(a)
                            blo, bhi = span(b)
                            if pred.direction == "precedes":
                                if ahi >= blo:
                                    return False
                            elif alo <= bhi:
                                return False
    return True


def independent_verdict(ds: DependencyStructure, lex) -> bool:
    """Validity decided from first principles; shares no code with the library."""
    return (
        _tree_ok(ds.tree, lex)
        and _domains_ok(ds.domains, ds.tree.n)
        and _linking_ok(ds)
        and _conditions_ok(ds)
        and _lexical_ok(ds, lex)
    )


# ---------------------------------------------------------------------------
# random structure generation


class StructureSampler:
    """Seeded source of dependency structures, most of them slightly broken.

    `bases` should hold known-valid structures under the same lexicon; the
    sampler replays them as-is and as mutation starting points, so that the
    valid region and its immediate neighborhood are both exercised.  Random
    construction alone almost never lands on a valid structure.
    """

    def __init__(self, seed: int = DEFAULT_SEED, lex=None, bases=()):
        self.rng = random.Random(seed)
        self.lex = lex if lex is not None else reference_lexicon()
        self.bases = list(bases)
        self.all_entries = [
            (form, e) for form, es in sorted(self.lex.entries.items()) for e in es
        ]
        self.dtypes = list(self.lex.dtypes)
        self.classes = list(self.lex.classes)

    # -- trees

    def random_tree(self) -> DependencyTree:
        rng = self.rng
        n = rng.randint(1, 6)
        picks = [rng.choice(self.all_entries) for _ in range(n)]
        words = tuple(
            WordToken(i, form, entry) for i, (form, entry) in enumerate(picks)
        )
        order = list(range(n))
        rng.shuffle(order)
        root = order[0]
        edges = []
        for pos, w in enumerate(order[1:], start=1):
            head = rng.choice(order[:pos])
            head_entry = words[head].entry
            if head_entry.valency and rng.random() < 0.8:
                dtype = rng.choice(head_entry.valency).dtype
            elif rng.random() < 0.03:
                dtype = "undeclared"
            else:
                dtype = rng.choice(self.dtypes)
            edges.append(DependencyEdge(head, w, dtype))
        classes = {w.index: w.entry.word_class for w in words}
        if rng.random() < 0.05 and n > 1:
            victim = rng.randrange(n)
            classes[victim] = rng.choice(self.classes + ["Undeclared"])
        return DependencyTree(words, root, tuple(edges), classes)

    def random_realization(self) -> DependencyStructure | None:
        rng = self.rng
        tree = self.random_tree()
        parent = {e.dependent: e.head for e in tree.edges}
        positional = {}
        slot_of = {}
        for w in range(tree.n):
            if w == tree.root:
                continue
            chain = []
            cur = w
            while cur in parent:
                cur = parent[cur]
                chain.append(cur)
            if rng.random() < 0.75:
                positional[w] = chain[0]
            else:
                positional[w] = rng.choice(chain)
            p_entry = tree.words[positional[w]].entry
            n_slots = len(p_entry.template.slots)
            if rng.random() < 0.05:
                slot_of[w] = n_slots + rng.randrange(2)
            else:
                slot_of[w] = rng.randrange(n_slots)
        try:
            return realize_structure(tree, positional, slot_of)
        except StructureError:
            return None

    # -- mutations of an existing structure

    def mutate(self, ds: DependencyStructure) -> DependencyStructure:
        rng = self.rng
        op = rng.randrange(12)
        tree = ds.tree
        n = tree.n
        domains = list(ds.domains.domains)
        assoc = dict(ds.domains.assoc)

        if op == 0 and domains:
            i = rng.randrange(len(domains))
            extra = rng.randrange(n + 1)
            domains[i] = OrderDomain(
                domains[i].id, set(domains[i].members) | {extra}
            )
        elif op == 1 and domains:
            i = rng.randrange(len(domains))
            ms = set(domains[i].members)
            if ms:
                ms.discard(rng.choice(sorted(ms)))
            domains[i] = OrderDomain(domains[i].id, ms)
        elif op == 2:
            domains.append(
                OrderDomain("stray", {rng.randrange(n)} if n else {0})
            )
        elif op == 3 and len(domains) > 1:
            del domains[rng.randrange(len(domains))]
        elif op == 4 and ds.positional:
            w = rng.choice(sorted(ds.positional))
            return dataclasses.replace(
                ds, positional={**ds.positional, w: rng.randrange(n)}
            )
        elif op == 5:
            return dataclasses.replace(
                ds, positional={**ds.positional, n + rng.randrange(3): tree.root}
            )
        elif op == 6 and assoc:
            w = rng.choice(sorted(assoc))
            seq = list(assoc[w])
            if seq:
                seq[rng.randrange(len(seq))] = None
            assoc[w] = tuple(seq)
        elif op == 7 and assoc:
            w = rng.choice(sorted(assoc))
            assoc[w] = assoc[w] + (None,)
        elif op == 8:
            feats = {k: dict(v) for k, v in ds.features.items()}
            w = rng.randrange(n)
            feats.setdefault(w, {})["case"] = "dat"
            return dataclasses.replace(ds, features=feats)
        elif op == 9 and tree.edges:
            edges = list(tree.edges)
            i = rng.randrange(len(edges))
            e = edges[i]
            if rng.random() < 0.5:
                edges[i] = DependencyEdge(e.head, e.dependent, rng.choice(self.dtypes))
            else:
                del edges[i]
            return dataclasses.replace(
                ds, tree=dataclasses.replace(tree, edges=tuple(edges))
            )
        elif op == 10:
            classes = dict(tree.classes)
            classes[rng.randrange(n)] = rng.choice(self.classes)
            return dataclasses.replace(
                ds, tree=dataclasses.replace(tree, classes=classes)
            )
        else:
            return dataclasses.replace(
                ds, tree=dataclasses.replace(tree, root=rng.randrange(n))
            )

        return dataclasses.replace(
            ds, domains=OrderDomainStructure(tuple(domains), assoc)
        )

    # -- fully random domain layers

    def random_layer(self) -> DependencyStructure:
        rng = self.rng
        tree = self.random_tree()
        n = tree.n
        pool = ["top", "a", "b"] + [
            f"d{w}.{s}" for w in range(n) for s in range(3)
        ]
        k = rng.randint(1, min(6, len(pool)))
        ids = rng.sample(pool, k)
        domains = []
        for did in ids:
            if rng.random() < 0.6:
                lo = rng.randrange(n)
                hi = rng.randrange(lo, n)
                members = set(range(lo, hi + 1))
            else:
                members = {
                    m for m in range(n) if rng.random() < 0.5
                } or {rng.randrange(n)}
            domains.append(OrderDomain(did, members))
        if rng.random() < 0.7:
            domains.append(OrderDomain("full", set(range(n))))
        assoc = {}
        for w in range(n):
            arity = len(tree.words[w].entry.template.slots)
            if rng.random() < 0.1:
                arity += rng.choice((-1, 1))
            seq = []
            for _ in range(max(arity, 0)):
                if rng.random() < 0.5:
                    seq.append(rng.choice(domains).id)
                else:
                    seq.append(None)
            assoc[w] = tuple(seq)
        positional = {}
        for w in range(n):
            if w == tree.root and rng.random() < 0.9:
                continue
            if rng.random() < 0.9:
                positional[w] = rng.randrange(n)
        features = {
            w.index: dict(w.entry.features)
            for w in tree.words
            if rng.random() < 0.9
        }
        return DependencyStructure(
            tree=tree,
            features=features,
            domains=OrderDomainStructure(tuple(domains), assoc),
            positional=positional,
        )

    def next_instance(self) -> DependencyStructure | None:
        roll = self.rng.random()
        if self.bases and roll < 0.15:
            return self.rng.choice(self.bases)
        if self.bases and roll < 0.4:
            ds = self.mutate(self.rng.choice(self.bases))
            if self.rng.random() < 0.3:
                ds = self.mutate(ds)
            return ds
        if roll < 0.75:
            ds = self.random_realization()
            if ds is not None and self.rng.random() < 0.45:
                ds = self.mutate(ds)
            return ds
        if roll < 0.9:
            ds = self.random_realization()
            return None if ds is None else self.mutate(ds)
        return self.random_layer()


_DEFAULT_BASES: list | None = None


def grammatical_bases():
    """Valid structures under the reference lexicon: parses of known sentences.

    Cached for the process; the structures are immutable and shared.
    """
    global _DEFAULT_BASES
    if _DEFAULT_BASES is None:
        from odgrammar import parse as engine_parse

        from corpus import GRAMMATICAL

        lex = reference_lexicon()
        bases = []
        for sentence in GRAMMATICAL:
            bases.extend(engine_parse(sentence.split(), lex).structures)
        _DEFAULT_BASES = bases
    return _DEFAULT_BASES


def run_agreement_trial(
    count: int, seed: int = DEFAULT_SEED, lex=None, bases=()
) -> dict:
    """Compare the library verdict with the independent one on `count` instances.

    Returns counts plus the first few disagreeing structures, if any.
    """
    sampler = StructureSampler(seed, lex, bases)
    lex = sampler.lex
    compared = valid = invalid = 0
    mismatches = []
    attempts = 0
    while compared < count:
        attempts += 1
        if attempts > count * 4:
            break
        ds = sampler.next_instance()
        if ds is None:
            continue
        expected = independent_verdict(ds, lex)
        actual = structure_is_valid(ds, lex)
        compared += 1
        if actual:
            valid += 1
        else:
            invalid += 1
        if expected != actual:
            if len(mismatches) < 3:
                mismatches.append((ds, expected, actual))
    return {
        "compared": compared,
        "valid": valid,
        "invalid": invalid,
        "mismatches": mismatches,
    }
