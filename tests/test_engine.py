"""Search engine: parsing and generation, checked against the oracle."""

import dataclasses

import pytest

import odgrammar.engine as engine_module
from odgrammar import (
    DependencyEdge,
    DependencyTree,
    ResourceLimitError,
    StructureError,
    UnknownTokenError,
    WordToken,
    canonical_structure,
    entries_for,
    generate,
    load_lexicon,
    oracle_generate,
    oracle_parse,
    parse,
    parse_tree_text,
)

from corpus import (
    CONTRADICTORY_LEXICON,
    FAN_LEXICON,
    KEY_SENTENCE,
    KEY_TREE_ORDERS,
    KEY_TREE_PAIRS,
    NOUN_ROOT_LEXICON,
    SENTENCES,
)
from oracle_net import GENITIVE_LEXICON
from test_core import key_tree


def canon(result, lex):
    return [canonical_structure(ds, lex) for ds in result.structures]


class TestParse:
    def test_corpus_counts(self, lex):
        for sentence, expected in SENTENCES:
            got = len(parse(sentence.split(), lex).structures)
            assert got == expected, f"{sentence!r}: {got} != {expected}"

    def test_key_sentence_analysis(self, lex, key_structure):
        assert key_structure.positional[1] == 2
        assert key_structure.domains.assoc[2] == ("d2.0", "d2.1", None)

    def test_deterministic(self, lex):
        first = canon(parse(KEY_SENTENCE.split(), lex), lex)
        second = canon(parse(KEY_SENTENCE.split(), lex), lex)
        assert first == second

    def test_prune_matches_oracle(self, lex):
        for sentence in [
            KEY_SENTENCE,
            "der Junge hat den Mann gesehen",
            "hat der Junge den Mann gesehen",
            "der Junge hat gesehen",
        ]:
            tokens = sentence.split()
            pruned = canon(parse(tokens, lex), lex)
            oracle = [canonical_structure(ds, lex) for ds in oracle_parse(tokens, lex)]
            assert pruned == oracle, sentence

    def test_unknown_token(self, lex):
        with pytest.raises(UnknownTokenError):
            parse(["der", "Hund"], lex)

    def test_empty_input(self, lex):
        assert parse([], lex).structures == ()

    def test_resource_limit(self, lex):
        with pytest.raises(ResourceLimitError):
            parse(KEY_SENTENCE.split(), lex, max_candidates=5)

    def test_resource_limit_counts_partial_head_maps(self, lex):
        # no labeled head map over these tokens completes, but the search
        # extends partial maps by 20 head choices on the way
        tokens = "gesehen Mann hat hat".split()
        result = parse(tokens, lex, max_candidates=20)
        assert result.structures == ()
        assert "labeled head maps enumerated: 0" in result.diagnostics
        with pytest.raises(ResourceLimitError):
            parse(tokens, lex, max_candidates=19)

    def test_diagnostics_on_failure(self, lex):
        result = parse("hat der Junge den Mann gesehen".split(), lex)
        assert result.structures == ()
        text = "\n".join(result.diagnostics)
        assert "rejections" in text

    def test_results_sorted_and_unique(self, lex):
        result = parse("der Junge hat den Mann gesehen".split(), lex)
        keys = canon(result, lex)
        assert keys == sorted(set(keys))


class TestGenerate:
    def test_key_tree(self, lex, key_structure):
        result = generate(key_structure.tree, lex)
        assert len(result.pairs) == KEY_TREE_PAIRS
        assert tuple(sorted(result.surfaces())) == KEY_TREE_ORDERS

    def test_pairs_sorted(self, lex, key_structure):
        result = generate(key_structure.tree, lex)
        keys = [(s, canonical_structure(ds, lex)) for s, ds in result.pairs]
        assert keys == sorted(keys)

    def test_prune_matches_oracle(self, lex, key_structure, key_tree_oracle_pairs):
        pruned = generate(key_structure.tree, lex)
        assert [
            (s, canonical_structure(d, lex)) for s, d in pruned.pairs
        ] == key_tree_oracle_pairs

    def test_every_output_reparses(self, lex, key_structure):
        for surface, ds in generate(key_structure.tree, lex).pairs:
            back = parse(surface.split(), lex)
            assert canonical_structure(ds, lex) in canon(back, lex)

    def test_missing_required_dependent(self, lex):
        verb = entries_for("hat", lex)[0]
        part = entries_for("gesehen", lex)[0]
        noun = entries_for("Junge", lex)[0]
        det = entries_for("der", lex)[0]
        words = (
            WordToken(0, "der", det),
            WordToken(1, "Junge", noun),
            WordToken(2, "hat", verb),
            WordToken(3, "gesehen", part),
        )
        edges = (
            DependencyEdge(1, 0, "det"),
            DependencyEdge(2, 1, "subj"),
            DependencyEdge(2, 3, "vpart"),
        )
        tree = DependencyTree(
            words, 2, edges, {0: "Det", 1: "N", 2: "Vfin", 3: "Vpart"}
        )
        assert generate(tree, lex).pairs == ()
        assert oracle_generate(tree, lex) == ()

    def test_unbound_word_rejected(self, lex):
        words = (WordToken(0, "hat", None),)
        bad = DependencyTree(words, 0, (), {0: "Vfin"})
        with pytest.raises(StructureError):
            generate(bad, lex)

    def test_class_disagreement_rejected(self, lex):
        tree = key_tree(lex)
        classes = dict(tree.classes)
        classes[0] = "N"
        with pytest.raises(StructureError):
            generate(dataclasses.replace(tree, classes=classes), lex)

    def test_malformed_tree_rejected(self, lex):
        tree = key_tree(lex)
        bad = dataclasses.replace(tree, edges=tree.edges[1:])
        with pytest.raises(StructureError):
            generate(bad, lex)

    def test_resource_limit(self, lex, key_structure):
        with pytest.raises(ResourceLimitError):
            generate(key_structure.tree, lex, max_candidates=3)

    def test_budget_counts_permutations(self):
        flex = load_lexicon(FAN_LEXICON)
        r, x = entries_for("r", flex)[0], entries_for("x", flex)[0]
        words = (WordToken(0, "r", r),) + tuple(
            WordToken(i, "x", x) for i in range(1, 5)
        )
        edges = tuple(DependencyEdge(0, i, dt) for i, dt in enumerate("abcd", 1))
        classes = {w.index: w.entry.word_class for w in words}
        tree = DependencyTree(words, 0, edges, classes)
        result = generate(tree, flex)
        assert result.surfaces() == ("r x x x x",)
        assert result.diagnostics[:2] == (
            "positional and slot assignments tried: 1",
            "domain arrangements laid out: 1",
        )
        # one placement and one order, but the root's domain has 120
        # permutations to draw before its one arrangement is found
        with pytest.raises(ResourceLimitError):
            generate(tree, flex, max_candidates=50)

    def test_contradictory_orders(self):
        clex = load_lexicon(CONTRADICTORY_LEXICON)
        a, b = entries_for("a", clex)[0], entries_for("b", clex)[0]
        words = (WordToken(0, "a", a), WordToken(1, "b", b))
        tree = DependencyTree(
            words, 0, (DependencyEdge(0, 1, "x"),), {0: "A", 1: "B"}
        )
        assert generate(tree, clex).pairs == ()
        assert oracle_generate(tree, clex) == ()

    def test_noun_root_orders(self):
        nlex = load_lexicon(NOUN_ROOT_LEXICON)
        det = entries_for("der", nlex)[0]
        noun = entries_for("Junge", nlex)[0]
        words = (WordToken(0, "der", det), WordToken(1, "Junge", noun))
        tree = DependencyTree(
            words, 1, (DependencyEdge(1, 0, "det"),), {0: "Det", 1: "N"}
        )
        result = generate(tree, nlex)
        assert result.surfaces() == ("der Junge",)


# der Junge hat den Mann des Mannes gesehen, with "des Mannes" the genitive
# of "Mann": the benchmark's genitive tree for one "des Mannes"
GENITIVE_TREE = """\
token 0 der 0 Det
token 1 Junge 0 N
token 2 hat 0 Vfin
token 3 den 0 Det
token 4 Mann 1 N
token 5 des 0 Det
token 6 Mannes 0 N
token 7 gesehen 0 Vpart
root 2
edge 1 det 0
edge 2 subj 1
edge 2 vpart 7
edge 7 obj 4
edge 4 det 3
edge 4 gen 6
edge 6 det 5
"""


class TestDiagnostics:
    """Search counts where a noun inserted elsewhere realizes two domains.

    The cardinality prune counts one immediate member per realized domain
    of each inserted word; a weaker prune lets more candidates reach the
    validator without changing any result, so only the counts show it.
    """

    @pytest.fixture(scope="class")
    def glex(self):
        return load_lexicon(GENITIVE_LEXICON.read_text())

    @pytest.mark.parametrize(
        "sentence, structures, rejections",
        [
            (
                "den Mann des Mannes hat der Junge gesehen",
                0,
                "ods.contiguity (28), ds.cond4 (5), prec.self (1)",
            ),
            (
                "der Junge hat den Mann des Mannes gesehen",
                2,
                "ods.contiguity (18), ds.cond4 (12), prec.self (2)",
            ),
        ],
    )
    def test_parse_counts(self, glex, sentence, structures, rejections):
        result = parse(sentence.split(), glex)
        assert len(result.structures) == structures
        assert result.diagnostics == (
            "entry assignments tried: 4",
            "labeled head maps enumerated: 2",
            "head maps forming valency-checked trees: 2",
            "realized structures validated: 34",
            f"rejections by first failing check: {rejections}",
        )

    def test_generate_counts(self, glex):
        result = generate(parse_tree_text(GENITIVE_TREE, glex), glex)
        assert len(result.pairs) == 42
        assert result.diagnostics == (
            "positional and slot assignments tried: 18",
            "domain arrangements laid out: 42",
            "realized structures validated: 42",
        )


class TestRealizationFromLayout:
    """Parsing realizes each placement from the layout its prune derived."""

    def test_layout_gives_the_structure_realization_derives(self, lex, monkeypatch):
        glex = load_lexicon(GENITIVE_LEXICON.read_text())
        inputs = [(sentence.split(), lex) for sentence, _ in SENTENCES]
        for chain in ("", " des Mannes"):
            inputs.append((f"der Junge hat den Mann{chain} gesehen".split(), glex))
            inputs.append((f"der Junge hat gesehen den Mann{chain}".split(), glex))

        realize = engine_module.realize_structure
        compared = 0

        def checked(tree, positional, slot_of, layout=None):
            nonlocal compared
            assert layout is not None
            ds = realize(tree, positional, slot_of, layout)
            assert ds == realize(tree, positional, slot_of)
            compared += 1
            return ds

        monkeypatch.setattr(engine_module, "realize_structure", checked)
        realized = 0
        for tokens, lexicon in inputs:
            for line in parse(tokens, lexicon).diagnostics:
                if line.startswith("realized structures validated: "):
                    realized += int(line.rsplit(" ", 1)[1])
        assert compared == realized == 238
