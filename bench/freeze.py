"""Recompute the frozen answers in ``answers.json``.

    python3 bench/freeze.py            # takes a few minutes (oracle runs)

Where the exhaustive oracle can take an input (up to 7 tokens) the answer
is the oracle's, and the engine must agree with it.  Above that, the answer
is the engine's output at the commit this is run on, kept as a regression
reference: the naive engine mode runs out of its candidate budget on the
8-token genitive sentence, so it cannot serve.  ``validate`` answers are
the validator's reports at that commit.  Run this only on purpose, when an
output is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys

from worker import run_meta  # puts the checkout's src/ on sys.path first

import workloads as W
from odgrammar import (
    OracleConfig,
    generate,
    oracle_orders,
    oracle_parse,
    parse,
    parse_structure_text,
    validate_structure,
)

ORACLE_LIMIT = OracleConfig().max_tokens


def tree_signature(tree, lex) -> str:
    """Identity of a tree up to renumbering of its words."""
    deps: dict[int, list[tuple[str, int]]] = {w: [] for w in range(tree.n)}
    for e in tree.edges:
        deps[e.head].append((e.dtype, e.dependent))

    def sig(w):
        word = tree.words[w]
        kids = sorted(f"{dt}:{sig(d)}" for dt, d in deps[w])
        return f"({word.form}/{lex.entry_ordinal(word.entry)} {' '.join(kids)})"

    return sig(tree.root)


def oracle_pairs(tree, lex):
    """(surface, structure) pairs of a tree, from the oracle alone: every
    accepted order, parsed exhaustively, keeping the analyses of this tree."""
    want = tree_signature(tree, lex)
    pairs = []
    for surface in oracle_orders(tree, lex):
        for ds in oracle_parse(surface.split(), lex):
            if tree_signature(ds.tree, lex) == want:
                pairs.append((surface, ds))
    return pairs


def main() -> int:
    engine_label = f"engine@{run_meta(0)['git_commit'][:12]}"
    lexica = W.load_lexica()
    out = {"fragment-parse": {}, "genitive-parse": {}, "generate": {}}
    disagreements = []

    for req in W.fragment_requests() + W.genitive_requests(repeats=1):
        lex = lexica[req.lexicon]
        engine = parse(req.payload, lex).structures
        answer = W.parse_answer(engine, lex)
        source = engine_label
        if req.tokens <= ORACLE_LIMIT:
            oracle = oracle_parse(req.payload, lex)
            if W.parse_answer(oracle, lex) != answer:
                disagreements.append(req.key)
            answer, source = W.parse_answer(oracle, lex), "oracle_parse"
            engine = oracle
        group = "fragment-parse" if req.key.startswith("fragment:") else "genitive-parse"
        out[group][req.key] = {"digest": answer, "results": len(engine),
                               "tokens": req.tokens, "source": source}
        print(req.key, source, len(engine), file=sys.stderr)

    for req in W.generate_requests(lexica):
        lex = lexica[req.lexicon]
        pairs = generate(req.payload, lex).pairs
        answer = W.generate_answer(pairs, lex)
        source = engine_label
        if req.tokens <= ORACLE_LIMIT:
            pairs = oracle_pairs(req.payload, lex)
            if W.generate_answer(pairs, lex) != answer:
                disagreements.append(req.key)
            answer, source = W.generate_answer(pairs, lex), "oracle_orders+oracle_parse"
        out["generate"][req.key] = {"digest": answer, "results": len(pairs),
                                    "tokens": req.tokens, "source": source}
        print(req.key, source, len(pairs), file=sys.stderr)

    valid = W.valid_structures(lexica)
    digests = {}
    for kind in ("valid", "realize", "edit"):
        for i in range(W.validate_pool_size(kind, valid)):
            req = W.validate_item(kind, i, valid, lexica)
            lex = lexica[req.lexicon]
            report = validate_structure(parse_structure_text(req.payload, lex), lex)
            digests[req.key] = W.validate_answer(report)
    out["validate"] = {"source": f"validator@{engine_label.split('@')[1]}",
                       "digests": digests}

    W.ANSWERS_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    if disagreements:
        print(f"engine differs from the oracle on {disagreements}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
