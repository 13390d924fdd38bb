"""The differential net: the engine against the oracle, and the validator
against the harness, over every test lexicon.

``run_net(token_lists, lex)`` compares, on one lexicon:

- ``load_lexicon(render_lexicon(lex))`` with ``lex``;
- on each sentence, ``parse`` with ``oracle_parse`` as canonical strings;
- on each ``parse`` and ``generate`` call, its ``realized structures
  validated`` count with its result count: the search realizes only its
  answers, and a weakened prune, which changes no result, shows here;
- on each distinct tree among the oracle's analyses, `structure_is_valid`
  with ``harness.independent_verdict`` on every placement of the tree in
  its own word order; the valid ones must be the oracle's analyses with
  that tree;
- on a tree of at most ``ALL_ORDERS_MAX_WORDS`` words, also ``generate``
  with ``oracle_generate`` as (surface, canonical structure) pairs, with
  the verdicts taken on every placement in every word order; the valid
  ones must be the oracle's pairs.

The engine prunes with the validator's own constraint tests, so engine
and oracle agree even where such a test is wrong; the harness shares no
code with the validator and sees it.

A sentence longer than ``OracleConfig().max_tokens`` is past the oracle's
reach, so ``run_net`` makes three checks that need no oracle in its place:

- ``harness.independent_verdict`` on every ``parse`` answer (soundness);
- the ``realized`` count against the result count, on every call;
- with ``regenerate``, duality: ``generate`` on each distinct tree among
  the answers must give the sentence with each of its answers, and every
  (surface, structure) pair it gives must be among ``parse``'s answers
  on that surface.

Their limits: a valid structure that both directions miss does not show,
since nothing enumerates structures apart from the engine.  Parse's
closure cuts are not in generate, and generate's arrangement prunes are
not in parse, so a fault in either shows as a broken duality; a fault in
a step both share (the search's per-tree pass in ``_iter_realizations``,
``close_word``, ``_depth_first``) does not.  Nor does one in the two
constructors the engine and the oracle share, ``entry_assignments`` and
``labeled_tree``, in any comparison: only the pinned counts and digests
of the tests see it.

A source is a lexicon with a Tier-1 slice and a full sweep of sentences:

- ``noun-phrases``: ``bench/genitive.lex`` with its ``root:`` line replaced
  by ``root: N``.  Its nouns realize two domains (``[d post]``), so a noun
  inserted into another noun's domain is two immediate members there, and
  ``feat post case=gen`` is a domain-feature demand; no other test lexicon
  has either.  The slice is every noun phrase of up to 3 tokens over the
  six forms and every 4-token one over four of them; the sweep, every one
  of up to 4 tokens over all six.
- ``clauses``: the same lexicon with the verb as root, on ``CLAUSES``
  (slice) or ``FULL_CLAUSES`` (sweep).
- ``random``: the seeded lexica of ``random_lexicon``, each on every
  sentence of 1 to 3 tokens; seeds 0..11 in the slice, 0..199 in the
  sweep.
- ``corpus``: the bundled lexicon on the 25 corpus sentences, in both.
- ``verb-clusters``: ``verb_cluster.lex``, whose objects climb out of
  nested infinitives (``extract {vinf}``) and scramble; no other test
  lexicon extracts across more than one head.  The slice is every order of
  ``verb_cluster_tokens(1)``; the sweep adds ``VERB_CLUSTERS`` of 6 tokens.
- ``above-limit``: sentences past the oracle's limit, with the checks
  above.  The slice regenerates ``genitive_tokens(2)`` (10 tokens) and
  judges the answers of ``genitive_tokens(4)`` (14) and
  ``verb_cluster_tokens(3)`` (8); the sweep regenerates
  ``genitive_tokens(2)``, ``genitive_tokens(3)`` and
  ``verb_cluster_tokens(3)`` and judges the answers of
  ``genitive_tokens(4)`` and ``genitive_tokens(5)`` (16).

Tier-1 runs the slices in ``test_oracle_net.py``, ``test_random_lexicon.py``
and criterion 4 of ``test_acceptance.py``.  The sweep of the chosen sources
(all by default) runs from the repository root with

    PYTHONPATH=src python tests/oracle_net.py [SOURCE ...] [--seeds FIRST LAST]

where ``--seeds`` picks the random seeds FIRST..LAST-1.  It prints one line
of counts per source and exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from odgrammar import (
    OracleConfig,
    canonical_structure,
    generate,
    load_lexicon,
    oracle_generate,
    oracle_parse,
    parse,
    reference_lexicon,
    render_lexicon,
    render_tree_text,
    structure_is_valid,
)
from odgrammar.core import permute_tree
from odgrammar.oracle import placements

from corpus import SENTENCES
from harness import independent_verdict
from random_lexicon import FORMS as RANDOM_FORMS
from random_lexicon import MAX_TOKENS, random_lexicon_text

GENITIVE_LEXICON = Path(__file__).resolve().parent.parent / "bench" / "genitive.lex"
VERB_CLUSTER_LEXICON = Path(__file__).resolve().parent / "verb_cluster.lex"

FORMS = ("der", "den", "des", "Junge", "Mann", "Mannes")
SLICE_FORMS = ("der", "des", "Mann", "Mannes")

# the grammatical clause of the benchmark's genitive family at k = 0, its
# ungrammatical twin, and two clauses with a genitive
CLAUSES = (
    "der Junge hat den Mann gesehen",
    "der Junge hat gesehen den Mann",
    "der Mann des Mannes hat gesehen",
    "des Mannes hat der Junge gesehen",
)
FULL_CLAUSES = CLAUSES + ("hat der Junge den Mann des Mannes",)

# verb_cluster_tokens(2), its second infinitive extraposed, and two orders
# that break ``card vf = 1``
VERB_CLUSTERS = (
    "Hans will Maria Peter lassen sehen",
    "Hans will Maria sehen Peter lassen",
    "Maria Hans will Peter lassen sehen",
    "will Hans Maria Peter lassen sehen",
)

# the largest tree whose every word order is judged and generated: 4 words
# give 24 orders, 6 words (a clause) 720, where ``oracle_generate`` takes
# minutes
ALL_ORDERS_MAX_WORDS = 4


def clause_lexicon():
    return load_lexicon(GENITIVE_LEXICON.read_text())


def noun_root_lexicon():
    text = GENITIVE_LEXICON.read_text()
    text, n = re.subn(r"(?m)^root: .*$", "root: N", text)
    if n != 1:
        raise ValueError(f"{GENITIVE_LEXICON} has {n} root lines, expected 1")
    return load_lexicon(text)


def genitive_tokens(k: int) -> tuple[str, ...]:
    """``der Junge hat den Mann (des Mannes)^k gesehen``."""
    return ("der", "Junge", "hat", "den", "Mann", *("des", "Mannes") * k, "gesehen")


def verb_cluster_tokens(k: int) -> tuple[str, ...]:
    """``Hans will N1 ... Nk Vk ... V1``, for k up to 4."""
    names = ("Maria", "Peter", "Anna", "Eva")
    verbs = ("sehen", "lassen", "helfen", "lehren")
    return ("Hans", "will", *names[:k], *reversed(verbs[:k]))


def genitive_tree_text(k: int) -> str:
    """The tree of ``genitive_tokens(k)``, each noun taking the next ``des
    Mannes`` as its genitive, in the tree text format."""
    forms = genitive_tokens(k)
    classes = {"der": "Det", "den": "Det", "des": "Det", "hat": "Vfin",
               "gesehen": "Vpart", "Junge": "N", "Mann": "N", "Mannes": "N"}
    # the accusative "Mann" is the form's second entry
    lines = [
        f"token {i} {form} {1 if i == 4 else 0} {classes[form]}"
        for i, form in enumerate(forms)
    ]
    last = len(forms) - 1
    lines += ["root 2", "edge 1 det 0", "edge 2 subj 1",
              f"edge 2 vpart {last}", f"edge {last} obj 4", "edge 4 det 3"]
    noun = 4
    for det in range(5, last, 2):
        lines += [f"edge {noun} gen {det + 1}", f"edge {det + 1} det {det}"]
        noun = det + 1
    return "\n".join(lines) + "\n"


def sentences(forms, lengths):
    for k in lengths:
        yield from itertools.product(forms, repeat=k)


@dataclass
class NetResult:
    sentences: int = 0
    with_analyses: int = 0
    # distinct trees among the oracle's analyses, and the oracle's
    # (surface, structure) pairs on those whose every order is generated
    trees: int = 0
    pairs: int = 0
    # placements judged by both validators, and those both call valid
    judged: int = 0
    valid: int = 0
    # past the oracle's limit: the sentences, their answers (each judged by
    # the harness alone), and the pairs and surfaces of their regeneration
    beyond: int = 0
    answers: int = 0
    regenerated: int = 0
    surfaces: int = 0
    disagreements: list[str] = field(default_factory=list)

    COUNTS = ("sentences", "with_analyses", "trees", "pairs", "judged", "valid",
              "beyond", "answers", "regenerated", "surfaces")

    def add(self, other: NetResult, label: str = "") -> None:
        for name in self.COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.disagreements += [label + item for item in other.disagreements]

    def summary(self) -> str:
        parts = [f"{self.sentences} sentences, {self.with_analyses} with analyses"]
        if self.beyond:
            parts.append(
                f"{self.beyond} past the oracle's limit, {self.answers} answers "
                f"judged alone, {self.regenerated} pairs regenerated over "
                f"{self.surfaces} surfaces"
            )
        if self.sentences > self.beyond:
            parts += [
                f"{self.trees} trees, {self.pairs} (surface, structure) pairs",
                f"{self.judged} placements judged, {self.valid} valid",
            ]
        return "; ".join(parts + [f"{len(self.disagreements)} disagreements"])


def _pairs(pairs, lex) -> list:
    return [(surface, canonical_structure(ds, lex)) for surface, ds in pairs]


def _realized(result) -> int:
    """The ``realized structures validated`` count of a search result."""
    prefix = "realized structures validated: "
    return next(int(line[len(prefix):]) for line in result.diagnostics
                if line.startswith(prefix))


def _parse(tokens, lex, result: NetResult):
    """``parse``'s answers as canonical strings, with the realized check."""
    parsed = parse(tokens, lex)
    engine = [canonical_structure(ds, lex) for ds in parsed.structures]
    if _realized(parsed) != len(engine):
        result.disagreements.append(f"parse realized {_realized(parsed)} "
                                    f"for {len(engine)} of {' '.join(tokens)!r}")
    return parsed, engine


def _check_beyond(tokens, lex, parsed, engine, regenerate, result: NetResult):
    """The checks that need no oracle, on one sentence past its limit."""
    sentence = " ".join(tokens)
    result.beyond += 1
    result.answers += len(engine)
    for ds in parsed.structures:
        if not independent_verdict(ds, lex):
            result.disagreements.append(f"the harness rejects an answer of "
                                        f"{sentence!r}: {canonical_structure(ds, lex)}")
    if not regenerate:
        return
    # tree text -> (tree, its answers); surface -> structures generated on it
    trees, generated = {}, {}
    for ds, canonical in zip(parsed.structures, engine):
        text = render_tree_text(ds.tree, lex)
        trees.setdefault(text, (ds.tree, []))[1].append(canonical)
    for text, (tree, answers) in trees.items():
        found = generate(tree, lex)
        if _realized(found) != len(found.pairs):
            result.disagreements.append(f"generate realized {_realized(found)} "
                                        f"for {len(found.pairs)} of\n{text}")
        result.regenerated += len(found.pairs)
        for surface, canonical in _pairs(found.pairs, lex):
            generated.setdefault(surface, set()).add(canonical)
        missing = set(answers) - generated.get(sentence, set())
        if missing:
            result.disagreements.append(f"generate misses {len(missing)} answers "
                                        f"of {sentence!r} on\n{text}")
    result.surfaces += len(generated)
    for surface, structures in generated.items():
        _, parsed_back = _parse(surface.split(), lex, result)
        missing = structures - set(parsed_back)
        if missing:
            result.disagreements.append(f"parse misses {len(missing)} generated "
                                        f"structures of {surface!r}")


def run_net(token_lists, lex, regenerate: bool = True) -> NetResult:
    """Make every comparison of the net on one lexicon; past the oracle's
    limit, the checks that need none, duality only with ``regenerate``."""
    result = NetResult()
    if load_lexicon(render_lexicon(lex)) != lex:
        result.disagreements.append("render round trip")
    limit = OracleConfig().max_tokens
    # tree text -> (tree, the number of the oracle's analyses with it)
    analysed = {}
    for tokens in token_lists:
        result.sentences += 1
        parsed, engine = _parse(tokens, lex, result)
        if len(tokens) > limit:
            result.with_analyses += bool(engine)
            _check_beyond(tokens, lex, parsed, engine, regenerate, result)
            continue
        oracle = oracle_parse(tokens, lex)
        if engine != [canonical_structure(ds, lex) for ds in oracle]:
            result.disagreements.append(f"parse {' '.join(tokens)!r}")
        result.with_analyses += bool(oracle)
        for ds in oracle:
            text = render_tree_text(ds.tree, lex)
            tree, count = analysed.get(text, (ds.tree, 0))
            analysed[text] = tree, count + 1
    for text, (tree, expected) in analysed.items():
        result.trees += 1
        orders = [tuple(range(tree.n))]
        if tree.n <= ALL_ORDERS_MAX_WORDS:
            oracle = _pairs(oracle_generate(tree, lex), lex)
            generated = generate(tree, lex)
            if _pairs(generated.pairs, lex) != oracle:
                result.disagreements.append(f"generate\n{text}")
            if _realized(generated) != len(generated.pairs):
                result.disagreements.append(f"generate realized {_realized(generated)} "
                                            f"for {len(generated.pairs)} of\n{text}")
            result.pairs += len(oracle)
            orders, expected = itertools.permutations(range(tree.n)), len(oracle)
        valid = 0
        for order in orders:
            permuted, _ = permute_tree(tree, order)
            for ds in placements(permuted):
                result.judged += 1
                verdict = structure_is_valid(ds, lex)
                valid += verdict
                if verdict != independent_verdict(ds, lex):
                    result.disagreements.append(
                        f"verdict on order {order} of\n{text}"
                        f"positional {ds.positional}, domains {ds.domains.assoc}"
                    )
        result.valid += valid
        if valid != expected:
            result.disagreements.append(
                f"{valid} valid placements, the oracle has {expected}, of\n{text}"
            )
    return result


def noun_phrase_nets(full: bool = False):
    token_lists = sentences(FORMS, range(1, 5 if full else 4))
    if not full:
        token_lists = itertools.chain(token_lists, sentences(SLICE_FORMS, (4,)))
    return [("", noun_root_lexicon(), token_lists)]


def clause_nets(full: bool = False):
    clauses = FULL_CLAUSES if full else CLAUSES
    return [("", clause_lexicon(), [c.split() for c in clauses])]


def random_nets(seeds=range(12)):
    for seed in seeds:
        lex = load_lexicon(random_lexicon_text(seed))
        yield f"seed {seed}: ", lex, sentences(RANDOM_FORMS, range(1, MAX_TOKENS + 1))


def corpus_nets():
    return [("", reference_lexicon(), [s.split() for s, _ in SENTENCES])]


def verb_cluster_nets(full: bool = False):
    tokens = verb_cluster_tokens(1)
    token_lists = [list(order) for order in itertools.permutations(tokens)]
    if full:
        token_lists += [s.split() for s in VERB_CLUSTERS]
    return [("", load_lexicon(VERB_CLUSTER_LEXICON.read_text()), token_lists)]


def above_limit_nets(full: bool = False):
    """Sentences past the oracle's limit, as (label, lexicon, sentences,
    regenerate)."""
    glex = clause_lexicon()
    vlex = load_lexicon(VERB_CLUSTER_LEXICON.read_text())
    clusters = [verb_cluster_tokens(3)]
    regenerated = [genitive_tokens(k) for k in ((2, 3) if full else (2,))]
    judged = [genitive_tokens(k) for k in ((4, 5) if full else (4,))]
    return [
        ("", glex, regenerated, True),
        ("", glex, judged, False),
        ("", vlex, clusters, full),
    ]


def run_nets(nets) -> NetResult:
    """Run the net on each (label, lexicon, sentences[, regenerate]) of a
    source; each disagreement starts with its label."""
    total = NetResult()
    for label, lex, token_lists, *regenerate in nets:
        total.add(run_net(token_lists, lex, *regenerate), label)
    return total


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run the net's full sweep.")
    parser.add_argument(
        "sources", nargs="*", metavar="SOURCE",
        help="noun-phrases, clauses, random, corpus, verb-clusters or "
             "above-limit (default: all six)",
    )
    parser.add_argument(
        "--seeds", nargs=2, type=int, default=(0, 200), metavar=("FIRST", "LAST"),
        help="run the random seeds FIRST..LAST-1 (default: 0 200)",
    )
    args = parser.parse_args(argv)
    sweeps = {
        "noun-phrases": lambda: noun_phrase_nets(full=True),
        "clauses": lambda: clause_nets(full=True),
        "random": lambda: random_nets(range(*args.seeds)),
        "corpus": corpus_nets,
        "verb-clusters": lambda: verb_cluster_nets(full=True),
        "above-limit": lambda: above_limit_nets(full=True),
    }
    unknown = [name for name in args.sources if name not in sweeps]
    if unknown:
        parser.error(f"unknown source {unknown[0]!r}")
    disagreements = []
    for name in args.sources or sweeps:
        start = time.monotonic()
        result = run_nets(sweeps[name]())
        print(f"{name}: {result.summary()}; {time.monotonic() - start:.1f} s")
        disagreements += result.disagreements
    for item in disagreements:
        print(f"disagreement: {item}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
