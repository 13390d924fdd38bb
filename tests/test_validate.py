"""Staged full-structure validation."""

import dataclasses
import random
from collections import Counter

import pytest

import odgrammar.validate as validate_module
from odgrammar import (
    OrderDomain,
    OrderDomainStructure,
    StructureError,
    check_cardinality,
    check_domain_features,
    check_extraction,
    check_precedence,
    check_valency,
    generate,
    load_lexicon,
    oracle_generate,
    parse,
    parse_tree_text,
    realize_structure,
    reference_lexicon_text,
    structure_is_valid,
    validate_structure,
    validate_tree,
)
from odgrammar.core import (
    StructureIndex,
    derived_member_sets,
    iter_ods_violations,
    iter_tree_violations,
)
from odgrammar.validate import iter_structure_violations

from corpus import GRAMMATICAL, KEY_SENTENCE
from harness import StructureSampler, grammatical_bases, independent_verdict
from oracle_net import clause_lexicon, genitive_tree_text
from test_constraints import bad_mittelfeld, clause, fronted_participle
from test_core import KEY_POSITIONAL, KEY_SLOTS, entry, key_tree


@pytest.fixture()
def ds(lex):
    return realize_structure(key_tree(lex), KEY_POSITIONAL, KEY_SLOTS)


def triples(report):
    return [(v.condition, v.subjects, v.message) for v in report.violations]


def with_domains(ds, domains, assoc=None):
    return dataclasses.replace(
        ds,
        domains=OrderDomainStructure(domains, assoc or ds.domains.assoc),
    )


def with_word_unbound(ds, w):
    words = tuple(
        dataclasses.replace(word, entry=None) if word.index == w else word
        for word in ds.tree.words
    )
    return dataclasses.replace(ds, tree=dataclasses.replace(ds.tree, words=words))


def without_form(lex, form):
    entries = {f: es for f, es in lex.entries.items() if f != form}
    return dataclasses.replace(lex, entries=entries)


class TestStages:
    def test_key_structure_valid(self, ds, lex):
        report = validate_structure(ds, lex)
        assert report.ok, report.render()
        assert structure_is_valid(ds, lex)

    def test_layer_errors_block_later_stages(self, ds, lex):
        # a discontiguous domain keeps linking and constraint stages quiet
        domains = tuple(
            OrderDomain(d.id, frozenset({3, 5})) if d.id == "d4.0" else d
            for d in ds.domains.domains
        )
        report = validate_structure(with_domains(ds, domains), lex)
        assert "ods.contiguity" in report.conditions()
        assert all(c.startswith(("ods.", "tree.")) for c in report.conditions())

    def test_first_finding_stops_the_domain_stage(self, ds, lex, monkeypatch):
        # d4.0 has a gap; d1.0 overlaps d2.0 and d2.1 without nesting
        changed = {"d4.0": {3, 5}, "d1.0": {1, 2}}
        domains = tuple(
            OrderDomain(d.id, changed.get(d.id, d.members))
            for d in ds.domains.domains
        )
        bad = with_domains(ds, domains)
        contiguity = (
            "ods.contiguity",
            ("d4.0",),
            "domain 'd4.0' is not contiguous: [3, 5]",
        )
        assert triples(validate_structure(bad, lex)) == [
            contiguity,
            (
                "ods.hierarchy",
                ("d1.0", "d2.0"),
                "domains 'd1.0' and 'd2.0' overlap without nesting",
            ),
            (
                "ods.hierarchy",
                ("d1.0", "d2.1"),
                "domains 'd1.0' and 'd2.1' overlap without nesting",
            ),
        ]

        drawn = []
        domain_stage = validate_module.iter_ods_violations

        def counted(*args):
            for violation in domain_stage(*args):
                drawn.append(violation.condition)
                yield violation

        monkeypatch.setattr(validate_module, "iter_ods_violations", counted)
        first = next(validate_module.iter_structure_violations(bad, lex))
        assert (first.condition, first.subjects, first.message) == contiguity
        # the nesting check has not run: one finding was asked for and made
        assert drawn == ["ods.contiguity"]
        assert not structure_is_valid(bad, lex)

    def test_hard_linking_blocks_constraints(self, ds, lex):
        bad = dataclasses.replace(
            ds, positional={k: v for k, v in ds.positional.items() if k != 5}
        )
        report = validate_structure(bad, lex)
        assert "ds.positional-missing" in report.conditions()
        assert not any(c.startswith("prec.") for c in report.conditions())

    def test_missing_sequence(self, ds, lex):
        assoc = {w: seq for w, seq in ds.domains.assoc.items() if w != 3}
        report = validate_structure(
            with_domains(ds, ds.domains.domains, assoc), lex
        )
        assert "ds.assoc-missing" in report.conditions()

    def test_arity_mismatch(self, ds, lex):
        assoc = dict(ds.domains.assoc)
        assoc[2] = ("d2.0", "d2.1")
        report = validate_structure(
            with_domains(ds, ds.domains.domains, assoc), lex
        )
        assert "ds.assoc-arity" in report.conditions()

    def test_self_slot_must_hold_owner(self, ds, lex):
        domains = tuple(
            OrderDomain(d.id, frozenset({0})) if d.id == "d1.0" else d
            for d in ds.domains.domains
        )
        report = validate_structure(with_domains(ds, domains), lex)
        assert "ds.self-domain" in report.conditions()

    def test_shared_domain(self, ds, lex):
        assoc = dict(ds.domains.assoc)
        assoc[3] = ("d0.0",)
        report = validate_structure(
            with_domains(ds, ds.domains.domains, assoc), lex
        )
        assert "ds.domain-shared" in report.conditions()

    def test_overlapping_sequence_domains(self, ds, lex):
        # d2.1 swallows all of d2.0 and d2.0 loses "Mann": the sequence of
        # "hat" is no longer a partition, and the later checks each see it
        changed = {"d2.0": {0}, "d2.1": {0, 1, 2, 3, 4, 5}}
        domains = tuple(
            OrderDomain(d.id, frozenset(changed.get(d.id, d.members)))
            for d in ds.domains.domains
        )
        bad = with_domains(ds, domains)
        assert triples(validate_structure(bad, lex)) == [
            (
                "ds.cond2",
                (2, "d2.0", "d2.1"),
                "domains 'd2.0' and 'd2.1' of word 2's sequence are not "
                "pairwise disjoint",
            ),
            (
                "ds.cond4",
                (2, "d2.0", "d2.1"),
                "sequence of word 2 is not ordered: 'd2.0' must precede "
                "'d2.1' on the surface",
            ),
            (
                "ds.members",
                (2, 0),
                "slot 0 of word 2 stores members [0], but insertion derives no domain",
            ),
            (
                "card.min",
                (2, 0),
                "slot 0 of word 2 holds 0 member(s); at least 1 required",
            ),
            (
                "prec.self",
                (2, 1, "d2.1"),
                "word 2 must precede every other member of domain 'd2.1', but "
                "not the member headed by 1",
            ),
        ]
        assert not independent_verdict(bad, lex)

    def test_exactly_one_unowned_domain(self, ds, lex):
        # a second domain outside every sequence is layer-consistent but
        # leaves the ownership linking ill defined
        domains = ds.domains.domains + (OrderDomain("stray", frozenset({0})),)
        report = validate_structure(with_domains(ds, domains), lex)
        assert "ds.top-owner" in report.conditions()

    def test_root_cannot_have_positional_head(self, ds, lex):
        bad = dataclasses.replace(ds, positional={**ds.positional, 2: 5})
        report = validate_structure(bad, lex)
        assert "ds.positional-root" in report.conditions()

    def test_positional_entry_for_unknown_word(self, ds, lex):
        bad = dataclasses.replace(ds, positional={**ds.positional, 9: 2})
        report = validate_structure(bad, lex)
        assert "ds.positional-extra" in report.conditions()

    def test_positional_must_be_transitive_head(self, ds, lex):
        bad = dataclasses.replace(ds, positional={**ds.positional, 0: 4})
        report = validate_structure(bad, lex)
        assert "ds.positional-head" in report.conditions()

    def test_insertion_needs_exactly_one_host(self, ds, lex):
        # the participle is a transitive head of the object's determiner,
        # but none of the participle's domains holds the determiner
        bad = dataclasses.replace(ds, positional={**ds.positional, 0: 5})
        assert triples(validate_structure(bad, lex)) == [
            (
                "ds.insertion",
                (0, 5),
                "word 0 must lie in exactly one domain of word 5's sequence, "
                "found 0",
            )
        ]

    @pytest.mark.parametrize(
        "head, finding",
        [
            (
                2,
                (
                    "ds.insertion",
                    (1, 2),
                    "word 1 must lie in exactly one domain of word 2's "
                    "sequence, found 0",
                ),
            ),
            (
                0,
                (
                    "ds.positional-head",
                    (1, 0),
                    "positional head 0 is not a transitive head of word 1",
                ),
            ),
        ],
    )
    def test_host_outside_the_head_chain_fails_linking(self, ds, lex, head, finding):
        # the verb's fronted field is gone and the noun sits in its own
        # determiner's domain instead: no domain of a transitive head holds
        # it, which the linking stage reports before any condition is checked
        domains = tuple(
            OrderDomain(d.id, frozenset({0, 1})) if d.id == "d0.0" else d
            for d in ds.domains.domains
            if d.id != "d2.0"
        )
        assoc = {**ds.domains.assoc, 2: (None, "d2.1", None)}
        bad = dataclasses.replace(
            with_domains(ds, domains, assoc),
            positional={**ds.positional, 1: head},
        )
        report = validate_structure(bad, lex)
        assert triples(report) == [finding]
        assert "ds.cond3" not in report.conditions()

    def test_linking_faults_are_reported_in_stage_order(self, ds, lex):
        assoc = {**ds.domains.assoc, 3: ("d0.0",)}
        positional = {**ds.positional, 0: 4, 1: 5, 2: 5, 9: 2}
        del positional[5]
        tree = dataclasses.replace(ds.tree, classes={**ds.tree.classes, 0: "N"})
        bad = dataclasses.replace(
            ds,
            tree=tree,
            domains=OrderDomainStructure(ds.domains.domains, assoc),
            positional=positional,
        )
        top = (
            "exactly one domain (the top, spanning all words) may stay "
            "outside every word's sequence"
        )
        assert triples(validate_structure(bad, lex)) == [
            (
                "ds.self-domain",
                (3,),
                "the self slot of word 3 must be realized and contain it",
            ),
            (
                "ds.domain-shared",
                ("d0.0", 0, 3),
                "domain 'd0.0' appears in two sequences",
            ),
            ("ds.top-owner", ("d3.0", "top"), top),
            (
                "ds.positional-extra",
                (9,),
                "positional head recorded for unknown word 9",
            ),
            (
                "ds.positional-head",
                (0, 4),
                "positional head 4 is not a transitive head of word 0",
            ),
            (
                "ds.insertion",
                (1, 5),
                "word 1 must lie in exactly one domain of word 5's sequence, "
                "found 0",
            ),
            (
                "ds.positional-root",
                (2,),
                "the root has no positional head; it sits in the top domain",
            ),
            ("ds.positional-missing", (5,), "word 5 has no positional head"),
            (
                "lex.class-entry",
                (0,),
                "word 0 is classed 'N' but its entry says 'Det'",
            ),
        ]

    def test_class_disagreement_is_reported(self, ds, lex):
        classes = dict(ds.tree.classes)
        classes[0] = "N"
        bad = dataclasses.replace(
            ds, tree=dataclasses.replace(ds.tree, classes=classes)
        )
        report = validate_structure(bad, lex)
        assert "lex.class-entry" in report.conditions()

    def test_feature_disagreement_is_reported(self, ds, lex):
        feats = {w: dict(fs) for w, fs in ds.features.items()}
        feats[0]["case"] = "nom"
        bad = dataclasses.replace(ds, features=feats)
        report = validate_structure(bad, lex)
        assert "lex.feature-entry" in report.conditions()


class TestTreeStage:
    """Every validation runs the tree stage on the tree as it is now."""

    def test_validation_leaves_the_tree_as_it_was(self, ds, lex):
        fields = dataclasses.fields(ds.tree)
        before = dataclasses.asdict(ds.tree)
        assert validate_structure(ds, lex).ok
        assert dataclasses.fields(ds.tree) == fields
        assert dataclasses.asdict(ds.tree) == before

    def test_class_edits_after_a_clean_validation_are_reported(self, ds, lex):
        assert validate_structure(ds, lex).ok
        ds.tree.classes[0] = "Adj"
        assert triples(validate_structure(ds, lex)) == [
            ("tree.class-inventory", (0, "Adj"), "class 'Adj' is not declared"),
        ]
        assert not structure_is_valid(ds, lex)
        del ds.tree.classes[0]
        assert triples(validate_structure(ds, lex))[0] == (
            "tree.class-missing",
            (0,),
            "word 0 has no class",
        )
        ds.tree.classes[0] = "Det"
        assert validate_structure(ds, lex).ok

    def test_class_for_an_unknown_word_is_reported(self, ds, lex):
        bad = dataclasses.replace(
            ds, tree=dataclasses.replace(ds.tree, classes={**ds.tree.classes, 9: "N"})
        )
        assert triples(validate_structure(bad, lex)) == [
            ("tree.class-extra", (9,), "class given for unknown word 9"),
        ]
        assert not independent_verdict(bad, lex)

    def test_unbound_word_is_reported(self, ds, lex):
        # the key analysis with word 0 bound to no entry: a finding of the
        # tree stage, with or without a lexicon, and the harness agrees
        unbound = with_word_unbound(ds, 0)
        expected = [
            ("tree.entry-missing", (0,), "word 0 is not bound to a lexical entry"),
        ]
        assert triples(validate_tree(unbound.tree)) == expected
        assert triples(validate_structure(unbound, lex)) == expected
        assert not structure_is_valid(unbound, lex)
        assert not independent_verdict(unbound, lex)

    def test_unbound_word_is_refused_by_every_check(self, ds, lex):
        unbound = with_word_unbound(ds, 0)
        hat = entry(lex, "hat")
        checks = [
            (check_precedence, hat.predicates[0], 2),
            (check_cardinality, hat.cardinalities[0], 2),
            (check_domain_features, hat.domain_features[0], 2),
            (check_extraction, entry(lex, "gesehen").slot_for("obj"), 1),
        ]
        for check, constraint, word in checks:
            with pytest.raises(StructureError, match="word 0 is not bound"):
                check(constraint, word, unbound)
        with pytest.raises(StructureError, match="word 0 is not bound"):
            check_valency(unbound.tree, lex)

    def test_unbound_word_is_refused_by_both_searches(self, ds, lex):
        unbound = with_word_unbound(ds, 0)
        with pytest.raises(StructureError, match="tree.entry-missing"):
            generate(unbound.tree, lex)
        assert oracle_generate(unbound.tree, lex) == ()

    def test_entry_the_lexicon_does_not_hold_is_reported(self, ds, lex):
        # the key analysis against a lexicon without the form of word 4:
        # a finding of the tree stage when a lexicon is given, and the
        # harness agrees
        narrow = without_form(lex, "Junge")
        expected = [
            (
                "tree.entry-unknown",
                (4,),
                "word 4 is bound to an entry the lexicon does not hold for 'Junge'",
            ),
        ]
        assert triples(validate_tree(ds.tree, narrow)) == expected
        assert triples(validate_structure(ds, narrow)) == expected
        assert not structure_is_valid(ds, narrow)
        assert not independent_verdict(ds, narrow)
        assert validate_tree(ds.tree).ok

    def test_entry_the_lexicon_does_not_hold_is_refused_by_both_searches(
        self, ds, lex
    ):
        narrow = without_form(lex, "Junge")
        with pytest.raises(StructureError, match="tree.entry-unknown"):
            generate(ds.tree, narrow)
        assert oracle_generate(ds.tree, narrow) == ()

    def test_another_inventory_runs_the_stage_again(self, ds, lex):
        assert validate_structure(ds, lex).ok
        narrow = dataclasses.replace(
            lex, classes=tuple(c for c in lex.classes if c != "Det")
        )
        report = validate_structure(ds, narrow)
        assert ("tree.class-inventory", (0, "Det")) in [
            (v.condition, v.subjects) for v in report.violations
        ]
        assert validate_structure(ds, lex).ok


class TestDerivedMembers:
    def participle_takes_the_subject(self, ds):
        # hand the subject's words to the participle domain; hierarchy and
        # contiguity still hold, the derivation does not
        domains = []
        for d in ds.domains.domains:
            if d.id == "d5.0":
                domains.append(OrderDomain(d.id, frozenset({3, 4, 5})))
            else:
                domains.append(d)
        return with_domains(ds, tuple(domains))

    def test_stored_sets_must_match_insertion(self, ds, lex):
        report = validate_structure(self.participle_takes_the_subject(ds), lex)
        assert "ds.members" in report.conditions()

    def test_local_check_reads_each_domain(self, ds):
        # every self domain holds its introducer, and the participle domain
        # holds more than its introducer and sub-domains
        assert StructureIndex(ds).sets_derived
        bad = self.participle_takes_the_subject(ds)
        assert not StructureIndex(bad).sets_derived


def reference_member_findings(ds, idx):
    """The ``ds.members`` findings, from the derived set of every slot."""
    derived = derived_member_sets(ds.tree, ds.positional, idx.slot_of)
    by_id = ds.domains.by_id()
    found = []
    for w in range(ds.tree.n):
        for s, did in enumerate(ds.domains.assoc[w]):
            expected = derived.get((w, s))
            stored = by_id[did].members if did is not None else None
            if stored != expected:
                stores = f"members {sorted(stored)}" if stored else "no domain"
                derives = sorted(expected) if expected else "no domain"
                found.append((
                    "ds.members",
                    (w, s),
                    f"slot {s} of word {w} stores {stores}, but insertion "
                    f"derives {derives}",
                ))
    return found


def random_realization(rng, tree):
    """Positional heads and slots drawn uniformly from each word's options."""
    head_of = tree.head_of()
    positional, slot_of = {}, {}
    for w in range(tree.n):
        if w != tree.root:
            chain = [head_of[w]]
            while chain[-1] != tree.root:
                chain.append(head_of[chain[-1]])
            p = positional[w] = rng.choice(chain)
            slot_of[w] = rng.randrange(len(tree.words[p].entry.template.slots))
    return realize_structure(tree, positional, slot_of)


def member_edits(ds):
    """Each edit of the stored sets, as (kind, domain sets, sequences)."""
    sets = {d.id: d.members for d in ds.domains.domains}
    assoc = ds.domains.assoc
    n = ds.tree.n
    for w, seq in assoc.items():
        for s, did in enumerate(seq):
            if did is None:
                new = f"x{w}.{s}"
                grown = {**assoc, w: seq[:s] + (new,) + seq[s + 1:]}
                for i in range(n):
                    for j in range(i, n):
                        span = frozenset(range(i, j + 1))
                        yield "realize", {**sets, new: span}, grown
                continue
            words = sets[did]
            for x in range(n):
                if x not in words:
                    yield "add", {**sets, did: words | {x}}, assoc
                elif len(words) > 1:
                    yield "drop", {**sets, did: words - {x}}, assoc
                    for sibling in seq:
                        if sibling not in (None, did):
                            moved = {did: words - {x}, sibling: sets[sibling] | {x}}
                            yield "move", {**sets, **moved}, assoc


def reaches_member_check(ds):
    """The structure's index, when both layers and the linking pass, else None."""
    if next(iter_ods_violations(ds.domains, ds.tree.n), None) is not None:
        return None
    idx = StructureIndex(ds)
    return None if idx.problems else idx


class TestLocalMemberCheck:
    """The per-domain member check decides exactly what the derivation does."""

    EDITS_PER_KIND = 2  # taken from each realization, of those that reach the check

    def test_equals_the_derivation_on_edited_realizations(self, lex):
        genitive = clause_lexicon()
        trees = [
            (analysis.tree, lex)
            for sentence in GRAMMATICAL
            for analysis in parse(sentence.split(), lex).structures
        ]
        trees += [
            (parse_tree_text(genitive_tree_text(k), genitive), genitive) for k in (0, 1)
        ]
        rng = random.Random(26)
        kinds = Counter()
        verdicts = Counter()
        while sum(kinds.values()) < 2000 or min(kinds.values()) <= 200:
            tree, lexicon = rng.choice(trees)
            base = random_realization(rng, tree)
            if reaches_member_check(base) is None:
                continue
            edits = list(member_edits(base))
            rng.shuffle(edits)
            taken = Counter()
            for kind, sets, assoc in edits:
                if taken[kind] == self.EDITS_PER_KIND:
                    continue
                domains = tuple(OrderDomain(did, words) for did, words in sets.items())
                edited = with_domains(base, domains, assoc)
                idx = reaches_member_check(edited)
                if idx is None:
                    continue
                taken[kind] += 1
                expected = reference_member_findings(edited, idx)
                report = validate_structure(edited, lexicon)
                found = report.by_condition("ds.members")
                assert [(v.condition, v.subjects, v.message) for v in found] == expected
                assert idx.sets_derived == (not expected)
                verdicts[bool(expected)] += 1
            kinds += taken
        assert set(kinds) == {"drop", "add", "move", "realize"}
        # both verdicts occur: some edits keep the sets derivable
        assert min(verdicts.values()) > 100


class TestFullPipeline:
    def test_precedence_rejection(self, lex):
        report = validate_structure(bad_mittelfeld(lex), lex)
        assert report.conditions() == {"prec.pair"}

    def test_fronted_participle_is_valid(self, lex):
        assert validate_structure(fronted_participle(lex), lex).ok

    def nachfeld_structure(self, lexicon):
        return clause(
            lexicon,
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

    def test_final_field_needs_the_license(self, lex):
        report = validate_structure(self.nachfeld_structure(lex), lex)
        assert report.conditions() == {"domfeat.value"}

    def test_without_the_gate_the_final_field_opens(self):
        relaxed = load_lexicon(
            reference_lexicon_text().replace("  feat nf extrapos=yes;\n", "")
        )
        ds = self.nachfeld_structure(relaxed)
        assert validate_structure(ds, relaxed).ok

    def test_is_valid_agrees_with_full_report(self, ds, lex):
        cases = [
            ds,
            bad_mittelfeld(lex),
            fronted_participle(lex),
            self.nachfeld_structure(lex),
        ]
        for case in cases:
            assert structure_is_valid(case, lex) == validate_structure(case, lex).ok


class TestTreeChecked:
    def test_equals_the_full_report_on_checked_trees(self, lex):
        # the searches set ``tree_checked`` only on trees that pass the
        # tree stage and valency; there it must change nothing, and the
        # plain call must still lead with the tree stage elsewhere
        sampler = StructureSampler(seed=17, lex=lex, bases=grammatical_bases())
        seen = Counter()
        for _ in range(1500):
            ds = sampler.next_instance()
            if ds is None:
                continue
            report = validate_structure(ds, lex)
            tree_finding = next(iter_tree_violations(ds.tree, lex), None)
            if tree_finding is not None:
                assert report.violations[0] == tree_finding
                seen["tree fails"] += 1
                continue
            if not check_valency(ds.tree, lex).ok:
                continue
            checked = list(iter_structure_violations(ds, lex, tree_checked=True))
            assert checked == list(report.violations)
            seen["valid" if report.ok else "invalid"] += 1
        assert min(seen[k] for k in ("valid", "invalid", "tree fails")) > 0, seen


class TestKeySentence:
    def test_surface_matches(self, ds):
        assert " ".join(ds.tree.forms()) == KEY_SENTENCE
