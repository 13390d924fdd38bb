"""Digest snapshot of the library's answers over a fixed set of inputs.

The script prints one line per input: what was run, then the SHA-256 of
each part of its answer.

- ``parse``: the structures (``structure_obj``, in result order) and the
  diagnostics, on the 25 corpus sentences over the bundled lexicon and on
  ``der Junge hat den Mann (des Mannes)^k gesehen``, k = 0..3, and its
  twin with the participle before the object, over ``bench/genitive.lex``.
- ``parse@N``: the outcome of each corpus sentence at a candidate budget
  of N, either the answer or the ``ResourceLimitError`` message.
- ``generate``: the (surface, structure) pairs and the diagnostics on the
  key sentence's tree and on the genitive trees k = 0..2, and the key
  tree's outcome at budgets 97 and 98.
- ``validate``: the full ``validate_structure`` report (condition,
  subjects, message of every violation) on each instance of a seeded
  ``harness.StructureSampler`` stream over the bundled lexicon.
- ``check``: on the same instances, the outcome of every public
  ``check_*`` call `check_calls` lists, with the key tree's valency slots:
  the rendered report, or ``StructureError`` and its message; ``refused``
  counts the calls that raised.
- ``random seed=N``: over the seeded random lexicon N of
  ``random_lexicon``, N = 0..39, the parse structures and, apart, the
  parse diagnostics of every sentence of 1 to 3 tokens, the generate pairs and diagnostics of
  every analysed tree, and the full ``validate_structure`` report on every
  placement of every analysed tree.  These lexica use every constraint
  kind, so this is the stream that shows whether the constraint checks
  still report the same findings.

No line holds a time, so two runs on the same code print the same bytes.
To show that a change leaves the answers unchanged, run this script (the
change's copy) against both source trees and compare:

    PYTHONPATH=<parent>/src python tests/output_snapshot.py > parent.txt
    PYTHONPATH=src python tests/output_snapshot.py > change.txt
    diff parent.txt change.txt

It takes under a minute.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from odgrammar import (  # noqa: E402
    ResourceLimitError,
    StructureError,
    check_cardinality,
    check_domain_features,
    check_extraction,
    check_precedence,
    generate,
    load_lexicon,
    parse,
    parse_tree_text,
    reference_lexicon,
    render_tree_text,
    validate_structure,
)
from odgrammar.serialize import canonical_structure, structure_obj  # noqa: E402

from cli_snapshot import KEY_TREE  # noqa: E402
from corpus import SENTENCES  # noqa: E402
from harness import StructureSampler, grammatical_bases  # noqa: E402
from oracle_net import (  # noqa: E402
    GENITIVE_LEXICON,
    genitive_tokens,
    genitive_tree_text,
    placements,
    sentences,
)
from random_lexicon import FORMS, MAX_TOKENS, random_lexicon_text  # noqa: E402

PARSE_BUDGETS = (1, 5, 19, 50, 200, 1000)
GENERATE_BUDGETS = (97, 98)
VALIDATE_SEED = 20261018
VALIDATE_COUNT = 3000
RANDOM_SEEDS = range(40)


def sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, ensure_ascii=False).encode()
    ).hexdigest()


def parse_line(tokens, lex, **budget) -> str:
    try:
        result = parse(tokens, lex, **budget)
    except ResourceLimitError as exc:
        return f"ResourceLimitError={sha(str(exc))}"
    structures = [structure_obj(ds, lex) for ds in result.structures]
    return f"structures={sha(structures)}\tdiagnostics={sha(result.diagnostics)}"


def generate_line(tree, lex, **budget) -> str:
    try:
        result = generate(tree, lex, **budget)
    except ResourceLimitError as exc:
        return f"ResourceLimitError={sha(str(exc))}"
    pairs = [(surface, canonical_structure(ds, lex)) for surface, ds in result.pairs]
    return f"pairs={sha(pairs)}\tdiagnostics={sha(result.diagnostics)}"


def report_obj(ds, lex) -> list:
    return [
        (v.condition, repr(v.subjects), v.message)
        for v in validate_structure(ds, lex).violations
    ]


def check_calls(ds, slots):
    """Every public ``check_*`` call on ``ds`` as (check, constraint, word):
    each word's entry constraints against that word, then each of
    ``slots`` against the word as the dependent."""
    for word in ds.tree.words:
        entry = word.entry
        for check, constraints in (
            (check_precedence, entry.predicates),
            (check_cardinality, entry.cardinalities),
            (check_domain_features, entry.domain_features),
            (check_extraction, slots),
        ):
            for constraint in constraints:
                yield check, constraint, word.index


def check_line(ds, slots) -> str:
    outcomes, refused = [], 0
    for check, constraint, w in check_calls(ds, slots):
        try:
            outcomes.append(check(constraint, w, ds).render())
        except StructureError as exc:
            outcomes.append(f"StructureError: {exc}")
            refused += 1
    return f"calls={len(outcomes)}\trefused={refused}\tdigest={sha(outcomes)}"


def random_lexicon_lines(seed: int):
    """The parse, generate and validate digests over one random lexicon."""
    lex = load_lexicon(random_lexicon_text(seed))
    structures, diagnostics, trees = [], [], {}
    for tokens in sentences(FORMS, range(1, MAX_TOKENS + 1)):
        result = parse(tokens, lex)
        structures.append([structure_obj(ds, lex) for ds in result.structures])
        diagnostics.append(result.diagnostics)
        for ds in result.structures:
            trees.setdefault(render_tree_text(ds.tree, lex), ds.tree)
    generates, reports = [], []
    for tree in trees.values():
        generates.append(generate_line(tree, lex))
        reports.extend(report_obj(ds, lex) for ds in placements(tree))
    yield (
        f"random seed={seed} parse\tstructures={sha(structures)}"
        f"\tdiagnostics={sha(diagnostics)}"
    )
    yield f"random seed={seed} generate\ttrees={len(trees)}\tanswers={sha(generates)}"
    yield f"random seed={seed} validate\treports={len(reports)}\tdigest={sha(reports)}"


def main() -> int:
    lex = reference_lexicon()
    glex = load_lexicon(GENITIVE_LEXICON.read_text(encoding="utf-8"))

    for sentence, _ in SENTENCES:
        print(f"parse {sentence!r}\t{parse_line(sentence.split(), lex)}")
    for k in range(4):
        tokens = genitive_tokens(k)
        # the twin moves the participle in front of the object
        twin = tokens[:3] + tokens[-1:] + tokens[3:-1]
        for t in (tokens, twin):
            print(f"parse {' '.join(t)!r}\t{parse_line(t, glex)}")
    for budget in PARSE_BUDGETS:
        for sentence, _ in SENTENCES:
            line = parse_line(sentence.split(), lex, max_candidates=budget)
            print(f"parse@{budget} {sentence!r}\t{line}")

    key_tree = parse_tree_text(KEY_TREE, lex)
    print(f"generate key\t{generate_line(key_tree, lex)}")
    for budget in GENERATE_BUDGETS:
        line = generate_line(key_tree, lex, max_candidates=budget)
        print(f"generate@{budget} key\t{line}")
    for k in range(3):
        tree = parse_tree_text(genitive_tree_text(k), glex)
        print(f"generate genitive k={k}\t{generate_line(tree, glex)}")

    sampler = StructureSampler(VALIDATE_SEED, lex, grammatical_bases())
    slots = [s for w in key_tree.words for s in w.entry.valency]
    for i in range(VALIDATE_COUNT):
        ds = sampler.next_instance()
        if ds is None:
            print(f"validate #{i}\tnone")
            continue
        print(f"validate #{i}\treport={sha(report_obj(ds, lex))}")
        print(f"check #{i}\t{check_line(ds, slots)}")

    for seed in RANDOM_SEEDS:
        for line in random_lexicon_lines(seed):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
