"""Data model, tree and domain checks, navigation, realization."""

import dataclasses
import random
from collections import Counter

import pytest

from odgrammar import (
    TOP_DOMAIN_ID,
    CardinalityConstraint,
    DependencyEdge,
    DependencyStructure,
    DependencyTree,
    OrderDomain,
    OrderDomainStructure,
    StructureError,
    StructureIndex,
    WordToken,
    check_cardinality,
    domain_id,
    entries_for,
    generate,
    load_lexicon,
    parse_structure_text,
    parse_tree_text,
    realize_structure,
    validate_domain_structure,
    validate_structure,
    validate_tree,
)
from odgrammar.core import (
    ancestor_chain,
    derived_member_sets,
    iter_condition_violations,
    iter_ods_violations,
    permute_tree,
)

from oracle_net import GENITIVE_LEXICON, genitive_tree_text


def entry(lex, form, i=0):
    return entries_for(form, lex)[i]


def key_tree(lex):
    """Object-fronted clause: den Mann hat der Junge gesehen."""
    words = (
        WordToken(0, "den", entry(lex, "den")),
        WordToken(1, "Mann", entry(lex, "Mann", 1)),
        WordToken(2, "hat", entry(lex, "hat")),
        WordToken(3, "der", entry(lex, "der")),
        WordToken(4, "Junge", entry(lex, "Junge", 0)),
        WordToken(5, "gesehen", entry(lex, "gesehen")),
    )
    edges = (
        DependencyEdge(1, 0, "det"),
        DependencyEdge(5, 1, "obj"),
        DependencyEdge(4, 3, "det"),
        DependencyEdge(2, 4, "subj"),
        DependencyEdge(2, 5, "vpart"),
    )
    classes = {w.index: w.entry.word_class for w in words}
    return DependencyTree(words, 2, edges, classes)


# the analysis from the object-fronted reading: Mann is hosted by the verb
KEY_POSITIONAL = {0: 1, 1: 2, 3: 4, 4: 2, 5: 2}
KEY_SLOTS = {0: 0, 1: 0, 3: 0, 4: 1, 5: 1}


@pytest.fixture()
def tree(lex):
    return key_tree(lex)


@pytest.fixture()
def ds(tree):
    return realize_structure(tree, KEY_POSITIONAL, KEY_SLOTS)


class TestTreeModel:
    def test_words_sorted_by_index(self, lex):
        t = key_tree(lex)
        shuffled = DependencyTree(
            tuple(reversed(t.words)), t.root, t.edges, t.classes
        )
        assert [w.index for w in shuffled.words] == list(range(6))

    def test_maps(self, tree):
        assert tree.head_of()[0] == 1
        assert tree.dtype_of()[5] == "vpart"
        assert tree.forms() == ("den", "Mann", "hat", "der", "Junge", "gesehen")

    def test_valid_tree(self, tree, lex):
        assert validate_tree(tree, lex).ok

    def test_empty_tree(self, lex):
        report = validate_tree(DependencyTree((), 0, (), {}), lex)
        assert report.conditions() == {"tree.empty"}

    def test_index_gap(self, lex):
        words = (WordToken(0, "hat", entry(lex, "hat")),
                 WordToken(2, "hat", entry(lex, "hat")))
        report = validate_tree(DependencyTree(words, 0, (), {}), lex)
        assert "tree.index" in report.conditions()

    def test_root_out_of_range(self, tree, lex):
        bad = dataclasses.replace(tree, root=9)
        assert "tree.root-range" in validate_tree(bad, lex).conditions()

    def test_missing_class(self, tree, lex):
        bad = dataclasses.replace(tree, classes={})
        assert "tree.class-missing" in validate_tree(bad, lex).conditions()

    def test_undeclared_class(self, tree, lex):
        classes = dict(tree.classes)
        classes[0] = "Adv"
        bad = dataclasses.replace(tree, classes=classes)
        assert "tree.class-inventory" in validate_tree(bad, lex).conditions()

    def test_edge_out_of_range(self, tree, lex):
        bad = dataclasses.replace(
            tree, edges=tree.edges + (DependencyEdge(9, 0, "det"),)
        )
        assert "tree.edge-range" in validate_tree(bad, lex).conditions()

    def test_self_edge(self, tree, lex):
        edges = tuple(
            DependencyEdge(0, 0, "det") if e.dependent == 0 else e
            for e in tree.edges
        )
        bad = dataclasses.replace(tree, edges=edges)
        conditions = validate_tree(bad, lex).conditions()
        assert "tree.self-edge" in conditions

    def test_undeclared_dtype(self, tree, lex):
        edges = tuple(
            dataclasses.replace(e, dtype="adv") if e.dependent == 0 else e
            for e in tree.edges
        )
        bad = dataclasses.replace(tree, edges=edges)
        assert "tree.dtype-inventory" in validate_tree(bad, lex).conditions()

    def test_root_with_head(self, tree, lex):
        bad = dataclasses.replace(
            tree, edges=tree.edges + (DependencyEdge(5, 2, "obj"),)
        )
        assert "tree.root-head" in validate_tree(bad, lex).conditions()

    def test_word_without_head(self, tree, lex):
        bad = dataclasses.replace(tree, edges=tree.edges[1:])
        assert "tree.no-head" in validate_tree(bad, lex).conditions()

    def test_two_heads(self, tree, lex):
        bad = dataclasses.replace(
            tree, edges=tree.edges + (DependencyEdge(4, 0, "det"),)
        )
        assert "tree.multi-head" in validate_tree(bad, lex).conditions()

    def test_cycle(self, lex):
        words = (
            WordToken(0, "hat", entry(lex, "hat")),
            WordToken(1, "gesehen", entry(lex, "gesehen")),
            WordToken(2, "Mann", entry(lex, "Mann", 1)),
        )
        # 1 and 2 point at each other, both unreachable from the root
        edges = (DependencyEdge(2, 1, "vpart"), DependencyEdge(1, 2, "obj"))
        classes = {0: "Vfin", 1: "Vpart", 2: "N"}
        report = validate_tree(DependencyTree(words, 0, edges, classes), lex)
        assert [v.subjects for v in report.by_condition("tree.cycle")] == [(1, 2)]

    def test_cycle_reached_through_a_tail(self, lex):
        words = (
            WordToken(0, "hat", entry(lex, "hat")),
            WordToken(1, "der", entry(lex, "der")),
            WordToken(2, "Mann", entry(lex, "Mann", 1)),
            WordToken(3, "gesehen", entry(lex, "gesehen")),
        )
        # 1 hangs off the cycle of 2 and 3, and is reported with it
        edges = (
            DependencyEdge(2, 1, "det"),
            DependencyEdge(3, 2, "obj"),
            DependencyEdge(2, 3, "vpart"),
        )
        classes = {0: "Vfin", 1: "Det", 2: "N", 3: "Vpart"}
        report = validate_tree(DependencyTree(words, 0, edges, classes), lex)
        assert [(v.condition, v.subjects) for v in report.violations] == [
            ("tree.cycle", (1, 2, 3))
        ]

    def test_deep_cycle_is_reported_once(self):
        # the genitive tree at k = 300 (606 words), with its last determiner
        # and noun, the two deepest words, heading each other
        glex = load_lexicon(GENITIVE_LEXICON.read_text())
        tree = parse_tree_text(genitive_tree_text(300), glex)
        det, noun = tree.n - 3, tree.n - 2
        edges = tuple(
            DependencyEdge(det, noun, e.dtype) if e.dependent == noun else e
            for e in tree.edges
        )
        report = validate_tree(dataclasses.replace(tree, edges=edges), glex)
        assert [(v.condition, v.subjects) for v in report.violations] == [
            ("tree.cycle", (det, noun))
        ]

    def test_nonprojective_tree_is_fine(self, tree, lex):
        # the object-fronted analysis itself is non-projective: the edge
        # gesehen -> Mann spans the root
        assert validate_tree(tree, lex).ok


class TestDomainChecks:
    def test_contiguity(self):
        ods = OrderDomainStructure(
            (OrderDomain("a", frozenset({0, 2})),), {}
        )
        conditions = validate_domain_structure(ods, 3).conditions()
        assert "ods.contiguity" in conditions

    def test_overlap_without_nesting(self):
        ods = OrderDomainStructure(
            (
                OrderDomain("a", frozenset({0, 1})),
                OrderDomain("b", frozenset({1, 2})),
                OrderDomain("t", frozenset({0, 1, 2})),
            ),
            {},
        )
        assert "ods.hierarchy" in validate_domain_structure(ods, 3).conditions()

    def test_missing_top(self):
        ods = OrderDomainStructure((OrderDomain("a", frozenset({0})),), {})
        assert "ods.top" in validate_domain_structure(ods, 2).conditions()

    def test_duplicate_id(self):
        ods = OrderDomainStructure(
            (
                OrderDomain("a", frozenset({0})),
                OrderDomain("a", frozenset({0, 1})),
            ),
            {},
        )
        assert "ods.dup-id" in validate_domain_structure(ods, 2).conditions()

    def test_empty_domain(self):
        ods = OrderDomainStructure(
            (
                OrderDomain("a", frozenset()),
                OrderDomain("t", frozenset({0})),
            ),
            {},
        )
        assert "ods.empty" in validate_domain_structure(ods, 1).conditions()

    def test_member_out_of_range(self):
        ods = OrderDomainStructure((OrderDomain("t", frozenset({0, 1})),), {})
        assert "ods.range" in validate_domain_structure(ods, 1).conditions()

    def test_assoc_unknown_domain(self):
        ods = OrderDomainStructure(
            (OrderDomain("t", frozenset({0})),), {0: ("ghost",)}
        )
        assert "ods.assoc-unknown" in validate_domain_structure(ods, 1).conditions()

    def test_valid_layer(self, ds):
        assert validate_domain_structure(ds.domains, 6).ok

    def test_span_is_first_and_last_member(self):
        # the span is taken as the domain is made, outside its fields
        for members in ({3}, {0, 1, 2}, {5, 2, 9}, range(4, 8)):
            d = OrderDomain("d", members)
            assert d.span() == (min(d.members), max(d.members))
            assert d == OrderDomain("d", frozenset(members))
            assert hash(d) == hash(OrderDomain("d", frozenset(members)))
            assert repr(d) == f"OrderDomain(id='d', members={frozenset(members)!r})"
        with pytest.raises(ValueError) as caught:
            OrderDomain("d", frozenset()).span()
        with pytest.raises(ValueError) as expected:
            min(frozenset())
        assert str(caught.value) == str(expected.value)

    def test_nesting_equals_the_pairwise_check(self):
        # the nesting check sorts spans and falls back to comparing every
        # pair of domains on a crossing or a domain that is no span; both
        # ways must give exactly the pairwise check's findings, in order
        rng = random.Random(25)
        seen = Counter()  # (every domain a span, any finding) per family
        for trial in range(3000):
            n = rng.randint(1, 10)
            kinds = SPAN_KINDS if trial % 2 else SPAN_KINDS + ODD_KINDS
            family = [random_span(rng, n)]
            for _ in range(rng.randint(0, 7)):
                family.append(random_domain(rng, rng.choice(kinds), n, family))
            ods = OrderDomainStructure(
                tuple(OrderDomain(f"d{rng.randrange(10)}", m) for m in family), {}
            )
            found = [
                (v.subjects, v.message)
                for v in iter_ods_violations(ods, n)
                if v.condition == "ods.hierarchy"
            ]
            assert found == pairwise_hierarchy(ods.domains), ods
            spans = all(
                m and 0 <= min(m) and max(m) < n and max(m) - min(m) + 1 == len(m)
                for m in family
            )
            seen[spans, bool(found)] += 1
        # span families with and without a crossing, and the families with
        # a domain that is no span, each came up many times
        assert len(seen) == 4 and min(seen.values()) > 300, seen


def pairwise_hierarchy(domains):
    """Every pair of domains, in order, that overlaps without nesting."""
    return [
        ((a.id, b.id), f"domains {a.id!r} and {b.id!r} overlap without nesting")
        for i, a in enumerate(domains)
        for b in domains[i + 1:]
        if a.members & b.members
        and not (a.members <= b.members or b.members <= a.members)
    ]


def random_span(rng, n):
    lo = rng.randrange(n)
    return frozenset(range(lo, rng.randint(lo, n - 1) + 1))


def random_domain(rng, kind, n, family):
    """A member set of ``kind``, drawn against the sets in ``family``."""
    base = sorted(m for m in rng.choice(family) if 0 <= m < n) or [0]
    lo, hi = base[0], base[-1]
    if kind == "equal":
        return frozenset(base)
    if kind == "nested":
        start = rng.randint(lo, hi)
        return frozenset(range(start, rng.randint(start, hi) + 1))
    if kind == "touching":  # shares the other's first or last word, or adjoins it
        if rng.random() < 0.5:
            start = min(hi + rng.randint(0, 1), n - 1)
            return frozenset(range(start, rng.randint(start, n - 1) + 1))
        end = max(lo - rng.randint(0, 1), 0)
        return frozenset(range(rng.randint(0, end), end + 1))
    if kind == "crossing":
        start = rng.randint(lo, hi)
        return frozenset(range(start, rng.randint(hi, n - 1) + 1))
    if kind == "gapped":
        return frozenset(rng.sample(range(n), rng.randint(1, n)))
    if kind == "empty":
        return frozenset()
    if kind == "out-of-range":
        return random_span(rng, n) | {rng.choice((-1, n))}
    return random_span(rng, n)


SPAN_KINDS = ("span", "equal", "nested", "touching", "crossing")
ODD_KINDS = ("gapped", "empty", "out-of-range")


class TestRealization:
    def test_domains(self, ds):
        by_id = ds.domains.by_id()
        assert by_id[domain_id(2, 0)].sorted_members() == (0, 1)
        assert by_id[domain_id(2, 1)].sorted_members() == (2, 3, 4, 5)
        assert domain_id(2, 2) not in by_id
        assert by_id[domain_id(1, 0)].sorted_members() == (0, 1)
        assert by_id[domain_id(4, 0)].sorted_members() == (3, 4)
        assert by_id[domain_id(5, 0)].sorted_members() == (5,)
        assert by_id[TOP_DOMAIN_ID].sorted_members() == (0, 1, 2, 3, 4, 5)

    def test_assoc(self, ds):
        assert ds.domains.assoc[2] == ("d2.0", "d2.1", None)
        assert ds.domains.assoc[1] == ("d1.0",)
        assert ds.domains.realized(2) == ("d2.0", "d2.1")

    def test_features_copied_from_entries(self, ds):
        assert ds.features[0] == {"case": "acc"}
        assert ds.features[2] == {}

    def test_derived_member_sets(self, tree):
        derived = derived_member_sets(tree, KEY_POSITIONAL, KEY_SLOTS)
        assert derived[(2, 0)] == frozenset({0, 1})
        assert derived[(2, 1)] == frozenset({2, 3, 4, 5})
        assert (2, 2) not in derived

    def test_insertion_cycle_raises(self, tree):
        looped = dict(KEY_POSITIONAL)
        looped[1] = 5
        looped[5] = 1
        with pytest.raises(StructureError):
            derived_member_sets(tree, looped, KEY_SLOTS)

    def test_conditions_hold(self, ds):
        assert list(iter_condition_violations(ds, StructureIndex(ds))) == []

    def test_cond1_violated_by_leaking_self(self, ds):
        # move the noun out of its own stored domain
        domains = tuple(
            OrderDomain(d.id, d.members - {1}) if d.id == "d1.0" else d
            for d in ds.domains.domains
        )
        bad = dataclasses.replace(
            ds, domains=OrderDomainStructure(domains, ds.domains.assoc)
        )
        assert any(
            v.condition == "ds.cond1"
            for v in iter_condition_violations(bad, StructureIndex(bad))
        )

    def test_cond4_violated_by_swapped_sequence(self, ds, tree):
        # claim the Mittelfeld precedes the Vorfeld in the verb's sequence
        assoc = dict(ds.domains.assoc)
        assoc[2] = ("d2.1", "d2.0", None)
        bad = dataclasses.replace(
            ds, domains=OrderDomainStructure(ds.domains.domains, assoc)
        )
        assert any(
            v.condition == "ds.cond4"
            for v in iter_condition_violations(bad, StructureIndex(bad))
        )

    def test_conditions_equal_the_literal_check(self, ds, tree):
        # on an index without problems the conditions first read whether
        # each sequence's spans run left to right, as the index recorded,
        # and only otherwise run the literal loops; either way the findings must be the literal ones,
        # in order.  Inputs: valid analyses and random placements over
        # random word orders, with words added to and taken from domains
        glex = load_lexicon(GENITIVE_LEXICON.read_text())
        gtree = parse_tree_text(genitive_tree_text(1), glex)
        valid = [ds, *(d for _, d in generate(gtree, glex).pairs)]
        rng = random.Random(28)
        seen = Counter()
        for _ in range(3000):
            if rng.random() < 0.5:
                base = rng.choice(valid)
            else:
                base = random_realization(rng, rng.choice((tree, gtree)))
            bad = edited_domains(rng, base)
            idx = StructureIndex(bad)
            found = [
                (v.condition, v.subjects) for v in iter_condition_violations(bad, idx)
            ]
            assert found == literal_conditions(bad), bad
            if not idx.problems:
                # ordered spans rule out findings for conditions 1, 2 and 4,
                # and unordered ones give a ds.cond4 finding
                assert idx.sequences_ordered == (not found), bad
            seen.update(condition_families(bad, idx, found))
        # ordered sequences, touching, overlapping and reversed spans, and
        # self domains that miss their word each came up many times
        assert min(seen[f] for f in CONDITION_FAMILIES) > 100, seen


def random_realization(rng, tree):
    """``tree`` in a random word order, each word hosted by a random
    transitive head in a random slot."""
    tree, _ = permute_tree(tree, rng.sample(range(tree.n), tree.n))
    head_of = tree.head_of()
    positional, slot_of = {}, {}
    for w in range(tree.n):
        if w != tree.root:
            p = positional[w] = rng.choice(ancestor_chain(head_of, w))
            slot_of[w] = rng.randrange(len(tree.words[p].entry.template.slots))
    return realize_structure(tree, positional, slot_of)


def edited_domains(rng, ds):
    """``ds`` with up to three domains of word sequences edited: a word
    added, the word next to either end added, the owner added, or a word
    taken out.  No domain is left empty."""
    n = ds.tree.n
    by_id = ds.domains.by_id()
    # only a sequence of two or more domains can be misordered
    multi = [w for w in range(n) if len(ds.domains.realized(w)) > 1]
    for _ in range(rng.randint(0, 3)):
        w = rng.choice(multi) if multi and rng.random() < 0.5 else rng.randrange(n)
        d = by_id[rng.choice(ds.domains.realized(w))]
        lo, hi = d.span()
        kind = rng.randrange(4)
        if kind == 0:
            members = d.members | {rng.randrange(n)}
        elif kind == 1:
            members = d.members | {rng.choice((max(lo - 1, 0), min(hi + 1, n - 1)))}
        elif kind == 2:
            members = d.members | {w}
        elif len(d.members) > 1:
            members = d.members - {rng.choice(sorted(d.members))}
        else:
            continue
        by_id[d.id] = OrderDomain(d.id, members)
    return dataclasses.replace(
        ds, domains=OrderDomainStructure(tuple(by_id.values()), ds.domains.assoc)
    )


def literal_conditions(ds):
    """Linking conditions 1, 2 and 4 as (condition, subjects), read off
    the stored sets word by word, condition by condition."""
    by_id = ds.domains.by_id()
    seqs = [ds.domains.realized(w) for w in range(ds.tree.n)]
    found = []
    for w, seq in enumerate(seqs):
        if len([did for did in seq if w in by_id[did].members]) != 1:
            found.append(("ds.cond1", (w,)))
    for w, seq in enumerate(seqs):
        for i, a in enumerate(seq):
            for b in seq[i + 1:]:
                if by_id[a].members & by_id[b].members:
                    found.append(("ds.cond2", (w, a, b)))
    for w, seq in enumerate(seqs):
        for a, b in zip(seq, seq[1:]):
            if max(by_id[a].members) >= min(by_id[b].members):
                found.append(("ds.cond4", (w, a, b)))
    return found


CONDITION_FAMILIES = ("ordered", "touching", "overlapping", "reversed", "self-missed")


def condition_families(ds, idx, found):
    """The families of CONDITION_FAMILIES that ``ds`` belongs to."""
    if idx.problems:
        misses = any(v.condition == "ds.self-domain" for v in idx.problems)
        return ["self-missed"] if misses else []
    if not found:
        return ["ordered"]
    by_id = ds.domains.by_id()
    families = set()
    for w in range(ds.tree.n):
        seq = ds.domains.realized(w)
        for a, b in zip(seq, seq[1:]):
            (a_first, a_last), (b_first, b_last) = by_id[a].span(), by_id[b].span()
            if a_last == b_first:
                families.add("touching")
            elif b_last < a_first:
                families.add("reversed")
            elif a_last > b_first:
                families.add("overlapping")
    return sorted(families)


# a root v hosting x, whose template has a second, non-self slot
TIE_LEXICON = """
dtypes: dep
classes: V X
root: V

entry "v" class=V {
  slot dep: class=X required extract {};
  domains [d] self=d;
}

entry "x" class=X {
  domains [a b] self=b;
}
"""

TIE_STRUCTURE = """
token 0 x 0 X
token 1 v 0 V
root 1
edge 1 dep 0
domain top 0 1
domain d1.0 0 1
domain d0.0 1
domain d0.1 0
assoc 0 d0.0 d0.1
assoc 1 d1.0
positional 0 1
"""


class TestStructureIndex:
    def test_top_and_owner(self, ds):
        idx = StructureIndex(ds)
        assert idx.top_id == TOP_DOMAIN_ID
        assert idx.owner["d2.0"] == (2, 0)
        assert TOP_DOMAIN_ID not in idx.owner

    def test_insertion(self, ds):
        idx = StructureIndex(ds)
        assert idx.insertion[2] == TOP_DOMAIN_ID
        assert idx.insertion[1] == "d2.0"
        assert idx.insertion[5] == "d2.1"
        assert idx.insertion[0] == "d1.0"

    def test_identity_not_set_equality(self, ds):
        # the fronted field and the noun's own domain hold the same words;
        # the domain tree still nests the noun's domain inside the field
        idx = StructureIndex(ds)
        by_id = ds.domains.by_id()
        assert by_id["d2.0"].members == by_id["d1.0"].members
        assert idx.immediate_members("d2.0") == (((1, 0), 0, 1),)
        assert idx.immediate_members("d1.0") == (((0, 0), 0, 0), ((1, None), 1, 1))

    def test_immediate_members_mittelfeld(self, ds):
        # the introducer spans itself; each sub-domain is named by its owner
        # and slot and spans its member set
        idx = StructureIndex(ds)
        assert idx.immediate_members("d2.1") == (
            ((2, None), 2, 2),
            ((4, 0), 3, 4),
            ((5, 0), 5, 5),
        )

    def test_introducer_first_on_a_tie(self):
        # a sub-domain that starts at its host's introducer can only come
        # from a stored set insertion does not derive, here x's domain a
        # holding v; the introducer still goes first among the members that
        # start at its position, whatever the owners' order
        lex = load_lexicon(TIE_LEXICON)
        ds = parse_structure_text(TIE_STRUCTURE, lex)
        idx = StructureIndex(ds)
        assert idx.problems == []
        assert idx.immediate_members("d1.0") == (
            ((0, 1), 0, 0),
            ((1, None), 1, 1),
            ((0, 0), 1, 1),
        )

    def test_crossed(self, ds):
        # the heads each linked word's insertion crosses, below its
        # positional head: Mann, hosted by the verb, crosses the participle
        idx = StructureIndex(ds)
        assert idx.crossed == {0: (), 1: (5,), 3: (), 4: (), 5: ()}

    def test_cyclic_tree_ends_every_walk(self, ds):
        # the index is only defined on a tree without cycles, but one built
        # on a cycle anyway ends its climbs: 1 and 5 now head each other, so
        # the root, positional head of both, lies above neither, and neither
        # is linked
        edges = tuple(
            DependencyEdge(1, 5, "vpart") if e.dependent == 5 else e
            for e in ds.tree.edges
        )
        bad = dataclasses.replace(ds, tree=dataclasses.replace(ds.tree, edges=edges))
        idx = StructureIndex(bad)
        assert [(v.condition, v.subjects) for v in idx.problems] == [
            ("ds.positional-head", (1, 2)),
            ("ds.positional-head", (5, 2)),
        ]
        assert idx.crossed == {0: (), 3: (), 4: ()}

    def test_double_owner_is_reported(self, ds):
        assoc = dict(ds.domains.assoc)
        assoc[3] = ("d0.0",)
        bad = dataclasses.replace(
            ds, domains=OrderDomainStructure(ds.domains.domains, assoc)
        )
        idx = StructureIndex(bad)
        assert [(v.condition, v.subjects) for v in idx.problems] == [
            ("ds.self-domain", (3,)),
            ("ds.domain-shared", ("d0.0", 0, 3)),
            ("ds.top-owner", ("d3.0", TOP_DOMAIN_ID)),
        ]
        # a check that builds its own index refuses the structure
        with pytest.raises(StructureError, match="appears in two sequences"):
            check_cardinality(CardinalityConstraint(0, max=1), 0, bad)

    def test_unknown_sequence_domain_is_reported(self, ds, lex):
        assoc = dict(ds.domains.assoc)
        assoc[2] = ("d2.0", "d2.1", "nope")
        bad = dataclasses.replace(
            ds, domains=OrderDomainStructure(ds.domains.domains, assoc)
        )
        # the domain stage owns this finding: the validator reports it and
        # stops, and a check refuses the structure before it builds an index
        assert [
            (v.condition, v.subjects, v.message)
            for v in validate_structure(bad, lex).violations
        ] == [
            (
                "ods.assoc-unknown",
                (2, "nope"),
                "sequence of word 2 names unknown domain 'nope'",
            ),
        ]
        with pytest.raises(StructureError, match="unknown domain 'nope'"):
            check_cardinality(CardinalityConstraint(0, max=1), 2, bad)
        # an index built anyway does not fail on the unknown id
        StructureIndex(bad)
