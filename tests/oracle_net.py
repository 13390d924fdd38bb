"""Engine-vs-oracle net over the genitive scaling lexicon.

The noun-phrase net reads ``bench/genitive.lex`` with its ``root:`` line
replaced by ``root: N``, so bare noun phrases are sentences.  Its nouns
realize two domains (``[d post]``), so a noun inserted into another noun's
domain is two immediate members there, and ``feat post case=gen`` is a
domain-feature demand that genitive nouns can meet.  No other test lexicon
has either.  The clause net reads the lexicon as it is, with the verb as
root.

For each sentence, ``parse`` must equal ``oracle_parse`` as canonical
strings.  In the noun-phrase net, for each distinct tree among the
analyses, ``generate`` must also equal ``oracle_generate`` as (surface,
canonical structure) pairs; a clause tree has six or more words, where
``oracle_generate`` takes minutes, so the clause net compares parses only.

The Tier-1 slice (``tests/test_oracle_net.py``) runs every noun phrase of up
to 3 tokens over the six determiner and noun forms, every 4-token one over
four of them, and the 6-token clauses of ``CLAUSES``.  The full sweep,
every noun phrase of up to 4 tokens over all six forms and the clauses of
``FULL_CLAUSES``, runs from the repository root with

    PYTHONPATH=src python tests/oracle_net.py

and exits 1 on any disagreement.
"""

from __future__ import annotations

import itertools
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from odgrammar import (
    canonical_structure,
    generate,
    load_lexicon,
    oracle_generate,
    oracle_parse,
    parse,
    render_tree_text,
)

GENITIVE_LEXICON = Path(__file__).resolve().parent.parent / "bench" / "genitive.lex"

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


def slice_sentences():
    yield from sentences(FORMS, range(1, 4))
    yield from sentences(SLICE_FORMS, (4,))


def full_sentences():
    yield from sentences(FORMS, range(1, 5))


@dataclass
class NetResult:
    sentences: int = 0
    with_analyses: int = 0
    trees: int = 0
    pairs: int = 0
    disagreements: list[str] = field(default_factory=list)
    # the distinct trees among the oracle's analyses, in first-seen order
    analysed: list = field(default_factory=list)
    # structures judged by both validators, and those both call valid
    # (``random_lexicon.verdict_net``)
    candidates: int = 0
    valid: int = 0


def run_net(token_lists, lex, trees: bool = True) -> NetResult:
    """Compare engine and oracle on every sentence and, unless ``trees`` is
    false, on every analysed tree."""
    result = NetResult()
    analysed = {}
    for tokens in token_lists:
        result.sentences += 1
        engine = [canonical_structure(ds, lex) for ds in parse(tokens, lex).structures]
        oracle = oracle_parse(tokens, lex)
        if engine != [canonical_structure(ds, lex) for ds in oracle]:
            result.disagreements.append(f"parse {' '.join(tokens)!r}")
        if oracle:
            result.with_analyses += 1
        for ds in oracle:
            analysed.setdefault(render_tree_text(ds.tree, lex), ds.tree)
    result.analysed = list(analysed.values())
    if not trees:
        return result
    for text, tree in analysed.items():
        engine = [
            (surface, canonical_structure(ds, lex))
            for surface, ds in generate(tree, lex).pairs
        ]
        oracle = [
            (surface, canonical_structure(ds, lex))
            for surface, ds in oracle_generate(tree, lex)
        ]
        result.trees += 1
        result.pairs += len(oracle)
        if engine != oracle:
            result.disagreements.append(f"generate\n{text}")
    return result


def main() -> int:
    nets = (
        ("noun phrases", full_sentences(), noun_root_lexicon(), True),
        ("clauses", (c.split() for c in FULL_CLAUSES), clause_lexicon(), False),
    )
    disagreements = []
    for name, token_lists, lex, trees in nets:
        start = time.monotonic()
        result = run_net(token_lists, lex, trees)
        print(
            f"{name}: {result.sentences} sentences, {result.with_analyses} with "
            f"analyses; {result.trees} trees, {result.pairs} (surface, "
            f"structure) pairs; {len(result.disagreements)} disagreements; "
            f"{time.monotonic() - start:.1f} s"
        )
        disagreements += result.disagreements
    for item in disagreements:
        print(f"disagreement: {item}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
