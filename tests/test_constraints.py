"""Predicate, cardinality, domain-feature, extraction, and valency checks."""

import pytest

from odgrammar import (
    CardinalityConstraint,
    DependencyEdge,
    DependencyTree,
    DomainFeatureRequirement,
    PrecedencePredicate,
    StructureError,
    WordToken,
    check_cardinality,
    check_domain_features,
    check_extraction,
    check_precedence,
    check_valency,
    entries_for,
    load_lexicon,
    parse_structure_text,
    realize_structure,
    render_structure_text,
    validate_structure,
)
from odgrammar.constraints import iter_valency_violations

from oracle_net import VERB_CLUSTER_LEXICON
from test_core import KEY_POSITIONAL, KEY_SLOTS, entry, key_tree


@pytest.fixture()
def key_ds(lex):
    return realize_structure(key_tree(lex), KEY_POSITIONAL, KEY_SLOTS)


def clause(lex, forms, entry_picks, root, edge_spec, positional, slots):
    """Assemble a clause structure from compact argument lists."""
    words = tuple(
        WordToken(i, f, entry(lex, f, entry_picks.get(i, 0)))
        for i, f in enumerate(forms)
    )
    edges = tuple(DependencyEdge(h, d, t) for h, t, d in edge_spec)
    classes = {w.index: w.entry.word_class for w in words}
    tree = DependencyTree(words, root, edges, classes)
    return realize_structure(tree, positional, slots)


class TestPredicateObjects:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            PrecedencePredicate("both-ways", "precedes")

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            PrecedencePredicate("self-vs-all", "sideways")

    def test_self_vs_all_rejects_labels(self):
        with pytest.raises(ValueError):
            PrecedencePredicate("self-vs-all", "precedes", left=("subj",))

    def test_pair_needs_both_sides(self):
        with pytest.raises(ValueError):
            PrecedencePredicate("labeled-pair", "precedes", left=("subj",))

    def test_render(self):
        assert PrecedencePredicate("self-vs-all", "precedes").render() == "self < *"
        pred = PrecedencePredicate(
            "labeled-pair", "follows", left=("vpart",), right=("subj", "obj")
        )
        assert pred.render() == "<vpart> after <subj,obj>"

    def test_cardinality_bounds(self):
        with pytest.raises(ValueError):
            CardinalityConstraint(0, min=2)
        with pytest.raises(ValueError):
            CardinalityConstraint(0, max=3)


class TestSelfVsAll:
    def test_verb_precedes_its_field(self, key_ds, lex):
        pred = entry(lex, "hat").predicates[0]
        assert pred.render() == "self < *"
        assert check_precedence(pred, 2, key_ds).ok

    def test_noun_follows_determiner(self, key_ds, lex):
        pred = entry(lex, "Mann", 1).predicates[0]
        assert check_precedence(pred, 1, key_ds).ok

    def test_violated_when_noun_leads(self, lex):
        ds = clause(
            lex,
            ["Mann", "den"],
            {0: 1},
            root=0,
            edge_spec=[(0, "det", 1)],
            positional={1: 0},
            slots={1: 0},
        )
        pred = entry(lex, "Mann", 1).predicates[0]
        report = check_precedence(pred, 0, ds)
        assert report.conditions() == {"prec.self"}
        # the same order under a non-root noun, which carries a dependency
        # label of its own: as introducer of its domain it is still unlabelled
        ds = clause(
            lex,
            ["Mann", "den", "hat", "der", "Junge", "gesehen"],
            {0: 1},
            root=2,
            edge_spec=[
                (0, "det", 1),
                (5, "obj", 0),
                (4, "det", 3),
                (2, "subj", 4),
                (2, "vpart", 5),
            ],
            positional={1: 0, 0: 2, 3: 4, 4: 2, 5: 2},
            slots={1: 0, 0: 0, 3: 0, 4: 1, 5: 1},
        )
        report = check_precedence(pred, 0, ds)
        assert [v.subjects for v in report.violations] == [(0, 1, "d0.0")]

    def test_findings_in_surface_order(self, lex):
        # the verb's last field, holding its participle, comes after the
        # second noun on the surface, though the verb is the first word:
        # findings follow the members' surface order, not their owners'
        ds = clause(
            lex,
            ["hat", "Mann", "Mann", "gesehen"],
            {1: 1, 2: 1},
            root=1,
            edge_spec=[(1, "det", 0), (1, "det", 2), (0, "vpart", 3)],
            positional={0: 1, 2: 1, 3: 0},
            slots={0: 0, 2: 0, 3: 2},
        )
        pred = entry(lex, "Mann", 1).predicates[0]
        expected = [(1, 2, "d1.0"), (1, 0, "d1.0")]
        report = check_precedence(pred, 1, ds)
        assert [v.subjects for v in report.violations] == expected
        report = validate_structure(ds, lex)
        assert [v.subjects for v in report.by_condition("prec.self")] == expected

    def test_scoped_to_self_domain_only(self, key_ds, lex):
        # the verb precedes everything in its own field even though two
        # words precede it on the surface
        pred = entry(lex, "hat").predicates[0]
        assert check_precedence(pred, 2, key_ds).ok


def bad_mittelfeld(lex):
    """den Mann hat gesehen der Junge: participle left of the subject."""
    return clause(
        lex,
        ["den", "Mann", "hat", "gesehen", "der", "Junge"],
        {1: 1},
        root=2,
        edge_spec=[
            (1, "det", 0),
            (3, "obj", 1),
            (5, "det", 4),
            (2, "subj", 5),
            (2, "vpart", 3),
        ],
        positional={0: 1, 1: 2, 3: 2, 4: 5, 5: 2},
        slots={0: 0, 1: 0, 3: 1, 4: 0, 5: 1},
    )


def fronted_participle(lex):
    """den Mann gesehen hat der Junge: the participle domain fills the Vorfeld."""
    return clause(
        lex,
        ["den", "Mann", "gesehen", "hat", "der", "Junge"],
        {1: 1},
        root=3,
        edge_spec=[
            (1, "det", 0),
            (2, "obj", 1),
            (3, "vpart", 2),
            (5, "det", 4),
            (3, "subj", 5),
        ],
        positional={0: 1, 1: 2, 2: 3, 4: 5, 5: 3},
        slots={0: 0, 1: 0, 2: 0, 4: 0, 5: 1},
    )


class TestLabeledPair:
    def pair_pred(self, lex):
        return entry(lex, "hat").predicates[1]

    def test_satisfied_in_key_structure(self, key_ds, lex):
        assert check_precedence(self.pair_pred(lex), 2, key_ds).ok

    def test_violated_by_early_participle(self, lex):
        report = check_precedence(self.pair_pred(lex), 2, bad_mittelfeld(lex))
        assert report.conditions() == {"prec.pair"}
        violation = report.violations[0]
        # the offending members: the participle (3) before the subject (5)
        assert violation.subjects[:3] == (2, 3, 5)

    def test_domain_scope_exempts_fronted_domain(self, lex):
        # linearly the participle precedes the subject here too, but they
        # never share a domain, so the predicate has nothing to say
        report = check_precedence(self.pair_pred(lex), 2, fronted_participle(lex))
        assert report.ok

    def test_same_head_pairs_skipped(self, lex):
        pred = PrecedencePredicate(
            "labeled-pair", "precedes", left=("det",), right=("det",)
        )
        ds = clause(
            lex,
            ["der", "Junge"],
            {},
            root=1,
            edge_spec=[(1, "det", 0)],
            positional={0: 1},
            slots={0: 0},
        )
        assert check_precedence(pred, 1, ds).ok


class TestCardinality:
    def vf_card(self, lex):
        return entry(lex, "hat").cardinalities[0]

    def test_exactly_one_fronted_member(self, key_ds, lex):
        assert check_cardinality(self.vf_card(lex), 2, key_ds).ok

    def test_empty_field_breaks_minimum(self, lex):
        ds = clause(lex, ["hat"], {}, root=0, edge_spec=[], positional={}, slots={})
        report = check_cardinality(self.vf_card(lex), 0, ds)
        assert report.conditions() == {"card.min"}

    def test_two_members_break_maximum(self, lex):
        # der Junge den Mann hat gesehen: both arguments fronted
        ds = clause(
            lex,
            ["der", "Junge", "den", "Mann", "hat", "gesehen"],
            {3: 1},
            root=4,
            edge_spec=[
                (1, "det", 0),
                (3, "det", 2),
                (5, "obj", 3),
                (4, "subj", 1),
                (4, "vpart", 5),
            ],
            positional={0: 1, 1: 4, 2: 3, 3: 4, 5: 4},
            slots={0: 0, 1: 0, 2: 0, 3: 0, 5: 1},
        )
        report = check_cardinality(self.vf_card(lex), 4, ds)
        assert report.conditions() == {"card.max"}

    def test_unconstrained_empty_slot(self, key_ds):
        unbounded = CardinalityConstraint(2, min=0, max=None)
        assert check_cardinality(unbounded, 2, key_ds).ok

    def test_out_of_range_slot(self, key_ds):
        with pytest.raises(IndexError):
            check_cardinality(CardinalityConstraint(0), 0, key_ds)
            check_cardinality(CardinalityConstraint(7), 2, key_ds)


class TestDomainFeatures:
    def nf_req(self, lex):
        return entry(lex, "hat").domain_features[0]

    def test_unrealized_slot_is_vacuous(self, key_ds, lex):
        assert check_domain_features(self.nf_req(lex), 2, key_ds).ok

    def test_member_without_feature(self, lex):
        # der Junge hat den Mann gesehen with the participle domain in the
        # final field; nothing licenses it there
        ds = clause(
            lex,
            ["der", "Junge", "hat", "den", "Mann", "gesehen"],
            {4: 1},
            root=2,
            edge_spec=[
                (1, "det", 0),
                (4, "det", 3),
                (5, "obj", 4),
                (2, "subj", 1),
                (2, "vpart", 5),
            ],
            positional={0: 1, 1: 2, 3: 4, 4: 5, 5: 2},
            slots={0: 0, 1: 0, 3: 0, 4: 0, 5: 2},
        )
        report = check_domain_features(self.nf_req(lex), 2, ds)
        assert report.conditions() == {"domfeat.value"}
        assert report.violations[0].subjects == (2, 2, 5, "extrapos")

    def test_out_of_range_slot(self, key_ds):
        with pytest.raises(IndexError):
            check_domain_features(
                DomainFeatureRequirement(9, {"extrapos": "yes"}), 2, key_ds
            )


class TestExtraction:
    def test_licensed_path(self, key_ds, lex):
        slot = entry(lex, "gesehen").slot_for("obj")
        assert check_extraction(slot, 1, key_ds).ok

    def test_trivial_path(self, key_ds, lex):
        slot = entry(lex, "Mann", 1).slot_for("det")
        assert check_extraction(slot, 0, key_ds).ok

    def test_unlicensed_crossing(self, lex):
        # the determiner climbs into the verb's field, crossing obj and
        # vpart edges its slot does not license
        ds = clause(
            lex,
            ["den", "Mann", "hat", "der", "Junge", "gesehen"],
            {1: 1},
            root=2,
            edge_spec=[
                (1, "det", 0),
                (5, "obj", 1),
                (4, "det", 3),
                (2, "subj", 4),
                (2, "vpart", 5),
            ],
            positional={0: 2, 1: 2, 3: 4, 4: 2, 5: 2},
            slots={0: 0, 1: 0, 3: 0, 4: 1, 5: 1},
        )
        slot = entry(lex, "Mann", 1).slot_for("det")
        report = check_extraction(slot, 0, ds)
        assert report.conditions() == {"extract.path"}
        # one finding per crossed head, nearest first
        assert [v.subjects for v in report.violations] == [
            (0, 1, "obj"),
            (0, 5, "vpart"),
        ]

    def test_mixed_path(self):
        # "will Peter lassen sehen" with the infinitive sehen as the subject
        # of will, a tree no valency frame admits, so that Peter's climb to
        # will crosses a licensed vinf edge into lassen, then an unlicensed
        # subj edge into sehen; only the second is reported
        vlex = load_lexicon(VERB_CLUSTER_LEXICON.read_text())
        ds = clause(
            vlex,
            ["will", "Peter", "lassen", "sehen"],
            {1: 1},
            root=0,
            edge_spec=[(2, "obj", 1), (3, "vinf", 2), (0, "subj", 3)],
            positional={1: 0, 2: 3, 3: 0},
            slots={1: 1, 2: 0, 3: 2},
        )
        slot = entry(vlex, "lassen").slot_for("obj")
        assert slot.extraction == {"vinf"}
        report = check_extraction(slot, 1, ds)
        assert [v.subjects for v in report.violations] == [(1, 3, "subj")]

    def test_non_ancestor_positional_head(self, key_ds, lex):
        import dataclasses

        slot = entry(lex, "Mann", 1).slot_for("det")
        bad = dataclasses.replace(key_ds, positional={**key_ds.positional, 0: 4})
        with pytest.raises(StructureError):
            check_extraction(slot, 0, bad)


@pytest.mark.parametrize("word", [-1, 6])
def test_word_out_of_range(key_ds, lex, word):
    # a linked structure, asked about a word it does not have
    hat = entry(lex, "hat")
    checks = [
        (check_precedence, hat.predicates[0]),
        (check_cardinality, hat.cardinalities[0]),
        (check_domain_features, hat.domain_features[0]),
        (check_extraction, entry(lex, "Mann", 1).slot_for("det")),
    ]
    for check, constraint in checks:
        with pytest.raises(StructureError, match="out of range"):
            check(constraint, word, key_ds)


def test_tree_stage_failure(key_ds, lex):
    # word 1 numbered -1: the tree stage reports ``tree.index``, and the
    # index, which reads words by position, records no linking problem
    text = render_structure_text(key_ds, lex).replace("token 1 ", "token -1 ")
    bad = parse_structure_text(text, lex)
    mann = entry(lex, "Mann", 1)
    with pytest.raises(StructureError, match="indices"):
        check_precedence(mann.predicates[0], 0, bad)


@pytest.mark.parametrize(
    "line, edited, conditions",
    [
        # the subject's domain overlaps three domains without nesting
        ("domain d4.0 3 4", "domain d4.0 1 2 3 4", {"ods.hierarchy"}),
        # the Mittelfeld loses the subject's determiner
        (
            "domain d2.1 2 3 4 5",
            "domain d2.1 2 4 5",
            {"ods.contiguity", "ods.hierarchy"},
        ),
    ],
)
def test_domain_stage_failure(key_ds, lex, line, edited, conditions):
    # the domain stage fails and the index records no linking problem;
    # every check refuses the structure rather than answer on it
    text = render_structure_text(key_ds, lex)
    assert f"{line}\n" in text
    bad = parse_structure_text(text.replace(f"{line}\n", f"{edited}\n"), lex)
    assert validate_structure(bad, lex).conditions() == conditions
    hat = entry(lex, "hat")
    checks = [
        (check_precedence, hat.predicates[0], 2),
        (check_cardinality, hat.cardinalities[0], 2),
        (check_domain_features, hat.domain_features[0], 2),
        (check_extraction, entry(lex, "Mann", 1).slot_for("det"), 0),
    ]
    for check, constraint, word in checks:
        with pytest.raises(StructureError):
            check(constraint, word, bad)


def tiny_tree(lex, forms, entry_picks, root, edge_spec):
    words = tuple(
        WordToken(i, f, entry(lex, f, entry_picks.get(i, 0)))
        for i, f in enumerate(forms)
    )
    edges = tuple(DependencyEdge(h, d, t) for h, t, d in edge_spec)
    classes = {w.index: w.entry.word_class for w in words}
    return DependencyTree(words, root, edges, classes)


class TestValency:
    def test_key_tree_passes(self, lex):
        assert check_valency(key_tree(lex), lex).ok

    def test_unknown_slot(self, lex):
        t = tiny_tree(lex, ["hat", "gesehen"], {}, 0, [(0, "propo", 1)])
        assert "lex.slot-unknown" in check_valency(t, lex).conditions()

    def test_double_fill(self, lex):
        t = tiny_tree(
            lex,
            ["hat", "Junge", "Junge"],
            {1: 0, 2: 0},
            0,
            [(0, "subj", 1), (0, "subj", 2)],
        )
        assert "lex.slot-dup" in check_valency(t, lex).conditions()

    def test_class_mismatch(self, lex):
        t = tiny_tree(lex, ["hat", "gesehen"], {}, 0, [(0, "subj", 1)])
        assert "lex.slot-class" in check_valency(t, lex).conditions()

    def test_feature_mismatch(self, lex):
        t = tiny_tree(lex, ["hat", "Mann"], {1: 1}, 0, [(0, "subj", 1)])
        assert "lex.slot-feat" in check_valency(t, lex).conditions()

    def test_missing_required(self, lex):
        t = tiny_tree(lex, ["hat"], {}, 0, [])
        report = check_valency(t, lex)
        unfilled = {v.subjects[1] for v in report.violations}
        assert unfilled == {"subj", "vpart"}

    def test_root_class(self, lex):
        t = tiny_tree(lex, ["der", "Junge"], {}, 1, [(1, "det", 0)])
        assert "lex.root-class" in check_valency(t, lex).conditions()

    def test_generator_yields_the_report_in_order(self, lex):
        t = tiny_tree(lex, ["hat", "gesehen"], {}, 0, [(0, "subj", 1)])
        report = check_valency(t, lex)
        assert len(report.violations) > 1
        assert tuple(iter_valency_violations(t, lex)) == report.violations
        assert next(iter_valency_violations(t, lex)) == report.violations[0]
