"""End-to-end acceptance checks, one per headline guarantee of the package.

Each test evaluates one guarantee and prints a single line of the form

    [acceptance] criterion N: PASS

directly on the terminal (bypassing pytest's capture), so a plain pytest
run shows the scoreboard.  A FAIL line names the sub-checks that broke and
the test then fails normally.
"""

import time

import pytest

from odgrammar import (
    LABELED_PAIR,
    SELF_VS_ALL,
    canonical_structure,
    check_precedence,
    entries_for,
    generate,
    load_lexicon,
    parse,
    parse_structure_json,
    parse_structure_text,
    parse_tree_text,
    realize_structure,
    reference_lexicon,
    reference_lexicon_text,
    render_lexicon,
    render_structure_json,
    render_structure_text,
    render_tree_text,
    structure_is_valid,
)

from corpus import GRAMMATICAL, KEY_SENTENCE
from harness import DEFAULT_SEED, grammatical_bases, run_agreement_trial
from oracle_net import corpus_nets, run_nets
from test_constraints import bad_mittelfeld, fronted_participle
from test_core import KEY_POSITIONAL, KEY_SLOTS, key_tree


@pytest.fixture()
def announce(capsys):
    def _announce(num: int, checks: dict[str, bool]):
        failed = [name for name, ok in checks.items() if not ok]
        with capsys.disabled():
            if failed:
                print(f"[acceptance] criterion {num}: FAIL ({'; '.join(failed)})")
            else:
                print(f"[acceptance] criterion {num}: PASS")
        assert not failed, f"criterion {num} failed: {failed}"

    return _announce


def test_criterion_1_unique_key_analysis(lex, announce):
    """The key sentence gets exactly the expected analysis, quickly."""
    start = time.monotonic()
    result = parse(KEY_SENTENCE.split(), lex)
    elapsed = time.monotonic() - start
    expected = realize_structure(key_tree(lex), KEY_POSITIONAL, KEY_SLOTS)
    found = result.structures[0] if result.structures else None
    announce(
        1,
        {
            "exactly one structure": len(result.structures) == 1,
            "structure matches the hand-built one": found == expected,
            "fronted object hosted by the finite verb": found is not None
            and found.positional.get(1) == 2,
            "object extracted across the participle": found is not None
            and found.tree.head_of().get(1) == 5,
            "final field stays unrealized": found is not None
            and found.domains.assoc[2][2] is None,
            "parsed in under a second": elapsed < 1.0,
        },
    )


def test_criterion_2_scoped_order_predicates(lex, key_structure, announce):
    """Ordering requirements bind inside their domain and nowhere else."""
    hat = entries_for("hat", lex)[0]
    self_pred = next(p for p in hat.predicates if p.kind == SELF_VS_ALL)
    pair_pred = next(p for p in hat.predicates if p.kind == LABELED_PAIR)
    bad = bad_mittelfeld(lex)
    fronted = fronted_participle(lex)
    announce(
        2,
        {
            "early participle trips the pair predicate": check_precedence(
                pair_pred, 2, bad
            ).conditions()
            == {"prec.pair"},
            "bad order rejected as a whole": not structure_is_valid(bad, lex),
            "key order satisfies both predicates": check_precedence(
                pair_pred, 2, key_structure
            ).ok
            and check_precedence(self_pred, 2, key_structure).ok,
            "fronted participle escapes the predicate's domain": check_precedence(
                pair_pred, 3, fronted
            ).ok,
            "fronted clause valid as a whole": structure_is_valid(fronted, lex),
        },
    )


def test_criterion_3_extraction_licensing(lex, announce):
    """Emptying one extraction set removes exactly the fronting analyses."""
    pinned = load_lexicon(
        reference_lexicon_text().replace("extract {vpart}", "extract {}")
    )
    ambiguous = "der Junge hat den Mann gesehen".split()
    announce(
        3,
        {
            "fronted object parses when licensed": len(
                parse(KEY_SENTENCE.split(), lex).structures
            )
            == 1,
            "fronted object blocked when pinned": len(
                parse(KEY_SENTENCE.split(), pinned).structures
            )
            == 0,
            "plain order ambiguous when licensed": len(
                parse(ambiguous, lex).structures
            )
            == 2,
            "plain order unique when pinned": len(
                parse(ambiguous, pinned).structures
            )
            == 1,
        },
    )


def test_criterion_4_matches_exhaustive_oracle(lex, announce, key_tree_oracle_pairs):
    """The pruned search returns exactly the exhaustive oracle's results, and
    the validator the independent rewrite's verdicts, on the corpus."""
    net = run_nets(corpus_nets())
    generated = [
        (surface, canonical_structure(ds, lex))
        for surface, ds in generate(key_tree(lex), lex).pairs
    ]
    announce(
        4,
        {
            "parse and the validator agree on the corpus": not net.disagreements,
            "every placement of the corpus trees judged": (net.judged, net.valid)
            == (5040, 9),
            "generation agrees on the key tree's (surface, structure) pairs": (
                generated == key_tree_oracle_pairs
            ),
        },
    )


def test_criterion_5_validator_agreement(lex, announce):
    """The validator matches an independent re-implementation at scale."""
    stats = run_agreement_trial(
        10_000, seed=DEFAULT_SEED, bases=grammatical_bases()
    )
    announce(
        5,
        {
            "ten thousand instances compared": stats["compared"] == 10_000,
            "no verdict disagreements": stats["mismatches"] == [],
            "valid region exercised": stats["valid"] >= 1000,
            "invalid region exercised": stats["invalid"] >= 5000,
        },
    )


def test_criterion_6_parse_generate_duality(lex, announce):
    """Parsing and generation are inverse views of the same relation."""
    parse_cache: dict[str, dict[str, object]] = {}

    def parses(surface: str):
        if surface not in parse_cache:
            parse_cache[surface] = {
                canonical_structure(ds, lex): ds
                for ds in parse(surface.split(), lex).structures
            }
        return parse_cache[surface]

    gen_cache: dict[str, set] = {}

    def generated(tree):
        key = render_tree_text(tree, lex)
        if key not in gen_cache:
            gen_cache[key] = {
                (surface, canonical_structure(ds, lex))
                for surface, ds in generate(tree, lex).pairs
            }
        return gen_cache[key]

    not_reparsed = []
    not_regenerated = []
    for sentence in GRAMMATICAL:
        for canon, ds in parses(sentence).items():
            if (sentence, canon) not in generated(ds.tree):
                not_regenerated.append(sentence)
    for pairs in list(gen_cache.values()):
        for surface, canon in sorted(pairs):
            if canon not in parses(surface):
                not_reparsed.append(surface)
    announce(
        6,
        {
            "every parse is regenerated from its tree": not not_regenerated,
            "every generated pair parses back": not not_reparsed,
        },
    )


def test_criterion_7_determinism_and_round_trips(lex, announce):
    """Repeated runs are identical and serialization is lossless."""
    first = parse(KEY_SENTENCE.split(), lex)
    second = parse(KEY_SENTENCE.split(), lex)
    tree = key_tree(lex)
    gen_first = generate(tree, lex)
    gen_second = generate(tree, lex)
    bases = grammatical_bases()
    announce(
        7,
        {
            "parse repeats byte for byte": first.structures == second.structures
            and first.diagnostics == second.diagnostics,
            "generation repeats byte for byte": gen_first.pairs == gen_second.pairs
            and gen_first.diagnostics == gen_second.diagnostics,
            "text round trip is exact": all(
                parse_structure_text(render_structure_text(ds, lex), lex) == ds
                for ds in bases
            ),
            "json round trip is exact": all(
                parse_structure_json(render_structure_json(ds, lex), lex) == ds
                for ds in bases
            ),
            "tree round trip is exact": parse_tree_text(
                render_tree_text(tree, lex), lex
            )
            == tree,
            "lexicon text is a fixed point": render_lexicon(
                load_lexicon(reference_lexicon_text())
            )
            == render_lexicon(reference_lexicon()),
        },
    )
