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
- ``members``: on the same instances, after every ``validate`` and
  ``check`` line, one line for each instance whose layers pass their own
  stages and whose linking index has no problems: the number of domains
  and a digest of ``immediate_members`` on every domain, by domain id.
- ``tree``: the ``validate_tree`` report (condition, subjects, message of
  every violation) on each of a seeded stream of random head maps of 1 to
  9 words over the bundled lexicon.  Every non-root word takes a head
  other than itself, or, now and then, none, so cycles, reached directly
  or through a tail, are common.
- ``crossed``: on the key structure with some of its words re-headed at
  random, cycles included, the conditions of the linking index's
  ``problems`` and its ``crossed`` map: for each word it links, the heads
  its insertion crosses, from the direct head up to the positional head.
- ``random seed=N``: over the seeded random lexicon N of
  ``random_lexicon``, N = 0..39, the parse structures and, apart, the
  parse diagnostics of every sentence of 1 to 3 tokens, the generate pairs and diagnostics of
  every analysed tree, and the full ``validate_structure`` report on every
  placement of every analysed tree.  These lexica use every constraint
  kind, so this is the stream that shows whether the constraint checks
  still report the same findings.
- ``validate-pool``: the full ``validate_structure`` report on each input
  of the bench ``validate`` pool, read with ``parse_structure_text``.  The
  inputs are built with ``bench/workloads.py``: ``valid_structures``, then
  ``validate_item`` for the kinds ``valid``, ``realize`` and ``edit`` in
  that order, ``validate_pool_size`` items of each.  One SHA-256 is
  updated with ``json.dumps([[condition, list(subjects), message], ...])``
  of each report in turn; the line gives the input count and its digest.
- ``validate-edits``: the full ``validate_structure`` report on each of
  8,000 seeded edited structures.  Input ``i`` draws, with
  ``random.Random(f"validate-edits-{i}")``, one structure of
  ``workloads.valid_structures``, renders it with
  ``render_structure_text``, and applies ``workloads._edit_field`` one to
  four times with the same generator.  A text ``parse_structure_text``
  refuses contributes ``["SerializationError", message]``; every other
  one contributes its report as in ``validate-pool``.  The line gives the
  input count, how many of them were read, and one SHA-256 over all.

No line holds a time, so two runs on the same code print the same bytes.
To show that a change leaves the answers unchanged, run this script (the
change's copy) against both source trees and compare:

    PYTHONPATH=<parent>/src python tests/output_snapshot.py > parent.txt
    PYTHONPATH=src python tests/output_snapshot.py > change.txt
    diff parent.txt change.txt

It takes under a minute.  pytest does not collect this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent / "bench"))

from odgrammar import (  # noqa: E402
    DependencyEdge,
    DependencyTree,
    ResourceLimitError,
    SerializationError,
    StructureError,
    StructureIndex,
    WordToken,
    check_cardinality,
    check_domain_features,
    check_extraction,
    check_precedence,
    generate,
    load_lexicon,
    parse,
    parse_structure_text,
    parse_tree_text,
    reference_lexicon,
    render_structure_text,
    render_tree_text,
    validate_domain_structure,
    validate_structure,
    validate_tree,
)
from odgrammar.oracle import placements  # noqa: E402
from odgrammar.serialize import canonical_structure, structure_obj  # noqa: E402

from cli_snapshot import KEY_STRUCTURE, KEY_TREE  # noqa: E402
from corpus import SENTENCES  # noqa: E402
from harness import StructureSampler, grammatical_bases  # noqa: E402
from oracle_net import (  # noqa: E402
    GENITIVE_LEXICON,
    genitive_tokens,
    genitive_tree_text,
    sentences,
)
from random_lexicon import FORMS, MAX_TOKENS, random_lexicon_text  # noqa: E402
import workloads  # noqa: E402

PARSE_BUDGETS = (1, 5, 19, 50, 200, 1000)
GENERATE_BUDGETS = (97, 98)
VALIDATE_SEED = 20261018
VALIDATE_COUNT = 3000
TREE_SEED = 20261019
TREE_COUNT = 2000
CROSSED_COUNT = 500
RANDOM_SEEDS = range(40)
VALIDATE_EDITS_COUNT = 8000


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


def members_line(i: int, ds) -> str | None:
    """The ``members`` line of instance ``i``, or None when its layers or
    its linking fail, where the index records no members."""
    if not validate_tree(ds.tree).ok:
        return None
    if not validate_domain_structure(ds.domains, ds.tree.n).ok:
        return None
    idx = StructureIndex(ds)
    if idx.problems:
        return None
    members = [(d.id, idx.immediate_members(d.id)) for d in ds.domains.domains]
    return f"members #{i}\tdomains={len(members)}\tdigest={sha(members)}"


def random_head_map(rng, lex, all_entries) -> DependencyTree:
    """1 to 9 words, each non-root word headed by another word or, one
    time in ten, by none."""
    n = rng.randint(1, 9)
    picks = [rng.choice(all_entries) for _ in range(n)]
    words = tuple(WordToken(i, form, entry) for i, (form, entry) in enumerate(picks))
    root = rng.randrange(n)
    edges = tuple(
        DependencyEdge(other_word(rng, n, w), w, rng.choice(lex.dtypes))
        for w in range(n)
        if w != root and rng.random() >= 0.1
    )
    classes = {w.index: w.entry.word_class for w in words}
    return DependencyTree(words, root, edges, classes)


def other_word(rng, n: int, w: int) -> int:
    return rng.choice([h for h in range(n) if h != w])


def reheaded(ds, rng):
    """``ds`` with each non-root word, one time in two, given a new head."""
    edges = tuple(
        DependencyEdge(other_word(rng, ds.tree.n, e.dependent), e.dependent, e.dtype)
        if rng.random() < 0.5
        else e
        for e in ds.tree.edges
    )
    return dataclasses.replace(ds, tree=dataclasses.replace(ds.tree, edges=edges))


def tree_lines(lex):
    """The ``tree`` lines, then the ``crossed`` lines, from one seeded stream."""
    rng = random.Random(TREE_SEED)
    all_entries = [(form, e) for form, es in sorted(lex.entries.items()) for e in es]
    for i in range(TREE_COUNT):
        tree = random_head_map(rng, lex, all_entries)
        report = [
            (v.condition, v.subjects, v.message)
            for v in validate_tree(tree, lex).violations
        ]
        yield f"tree #{i}\tn={tree.n}\treport={report}"
    key = parse_structure_text(KEY_STRUCTURE, lex)
    for i in range(CROSSED_COUNT):
        ds = reheaded(key, rng)
        idx = StructureIndex(ds)
        heads = sorted((e.dependent, e.head) for e in ds.tree.edges)
        problems = [v.condition for v in idx.problems]
        crossed = sorted(idx.crossed.items())
        yield f"crossed #{i}\theads={heads}\tproblems={problems}\tcrossed={crossed}"


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


def validate_pool_line(lexica, valid) -> str:
    digest, count = hashlib.sha256(), 0
    for kind in ("valid", "realize", "edit"):
        for i in range(workloads.validate_pool_size(kind, valid)):
            request = workloads.validate_item(kind, i, valid, lexica)
            report = workloads.run_request(request, lexica)
            triples = [
                [v.condition, list(v.subjects), v.message] for v in report.violations
            ]
            digest.update(json.dumps(triples).encode())
            count += 1
    return f"validate-pool\tinputs={count}\tdigest={digest.hexdigest()}"


def validate_edits_line(lexica, valid) -> str:
    digest, read = hashlib.sha256(), 0
    for i in range(VALIDATE_EDITS_COUNT):
        rng = random.Random(f"validate-edits-{i}")
        name, base = valid[rng.randrange(len(valid))]
        lex = lexica[name]
        text = render_structure_text(base, lex)
        for _ in range(rng.randint(1, 4)):
            text = workloads._edit_field(rng, text, lex)
        try:
            ds = parse_structure_text(text, lex)
        except SerializationError as exc:
            outcome = ["SerializationError", str(exc)]
        else:
            read += 1
            outcome = [
                [v.condition, list(v.subjects), v.message]
                for v in validate_structure(ds, lex).violations
            ]
        digest.update(json.dumps(outcome).encode())
    return (
        f"validate-edits\tinputs={VALIDATE_EDITS_COUNT}\tread={read}"
        f"\tdigest={digest.hexdigest()}"
    )


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
    member_lines = []
    for i in range(VALIDATE_COUNT):
        ds = sampler.next_instance()
        if ds is None:
            print(f"validate #{i}\tnone")
            continue
        print(f"validate #{i}\treport={sha(report_obj(ds, lex))}")
        print(f"check #{i}\t{check_line(ds, slots)}")
        line = members_line(i, ds)
        if line is not None:
            member_lines.append(line)
    for line in member_lines:
        print(line)

    for line in tree_lines(lex):
        print(line)

    for seed in RANDOM_SEEDS:
        for line in random_lexicon_lines(seed):
            print(line)
    lexica = workloads.load_lexica()
    valid = workloads.valid_structures(lexica)
    print(validate_pool_line(lexica, valid))
    print(validate_edits_line(lexica, valid))
    return 0


if __name__ == "__main__":
    sys.exit(main())
