"""Engine-vs-oracle net over seeded random lexica.

Each seed writes one small lexicon in the text format: 2–3 word classes,
2–3 dependency types, one attribute, and 3 forms with 1–2 entries each.
Across seeds the lexica draw every statement kind the format has:
inventories, an optional ``root:`` line, entry features, valency slots
with class and feature demands, ``required``/``optional`` and extraction
sets of up to three types, templates of 1–3 fields, ``card`` with ``=``,
``<=`` and ``>=``, domain-feature demands, self-ordering predicates with
and without ``in``, and ``before``/``after`` pair predicates.

Per lexicon, ``check_seed`` first checks that the text loads and that
``load_lexicon(render_lexicon(lex)) == lex``.  Then ``oracle_net.run_net``
compares ``parse`` with ``oracle_parse`` on every sentence of 1 to 3
tokens, and ``generate`` with ``oracle_generate`` on every tree the
oracle's analyses contain.  Last, ``verdict_net`` compares the validator's
``structure_is_valid`` with ``harness.independent_verdict`` on every
placement of every such tree in every word order.  The engine prunes with
the validator's own constraint tests, so the engine-vs-oracle comparison
cannot see a fault in one of those tests; this comparison can.

The Tier-1 slice (``tests/test_random_lexicon.py``) runs ``SLICE_SEEDS``.
A larger range runs from the repository root with

    PYTHONPATH=src python tests/random_lexicon.py [FIRST LAST]

(seeds FIRST..LAST-1, by default 0..200) and exits 1 on any disagreement.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from odgrammar import (  # noqa: E402
    load_lexicon,
    realize_structure,
    render_lexicon,
    render_tree_text,
    structure_is_valid,
)
from odgrammar.core import ancestor_chain, permute_tree  # noqa: E402

from harness import independent_verdict  # noqa: E402
from oracle_net import NetResult, run_net, sentences  # noqa: E402

SLICE_SEEDS = range(12)
FULL_SEEDS = range(200)
FORMS = ("u", "v", "w")
MAX_TOKENS = 3


def _some(rng: random.Random, symbols, most: int) -> list:
    """A non-empty random subset of ``symbols``, in their order."""
    k = rng.randint(1, min(most, len(symbols)))
    picked = set(rng.sample(list(symbols), k))
    return [s for s in symbols if s in picked]


def random_lexicon_text(seed: int) -> str:
    rng = random.Random(seed)
    classes = ["C0", "C1", "C2"][: rng.randint(2, 3)]
    dtypes = ["a", "b", "c"][: rng.randint(2, 3)]
    values = ("p", "q")
    lines = [
        "dtypes: " + " ".join(dtypes),
        "classes: " + " ".join(classes),
        "attr f: " + " ".join(values),
    ]
    if rng.random() < 0.8:
        lines.append("root: " + " ".join(_some(rng, classes, 2)))
    for form in FORMS:
        for _ in range(1 if rng.random() < 0.7 else 2):
            lines.append("")
            lines.extend(_random_entry(rng, form, classes, dtypes, values))
    return "\n".join(lines) + "\n"


def _random_entry(rng, form, classes, dtypes, values) -> list[str]:
    out = [f'entry "{form}" class={rng.choice(classes)} {{']
    if rng.random() < 0.5:
        out.append(f"  feat f={rng.choice(values)};")
    for dt in dtypes:
        if rng.random() < 0.5:
            continue
        parts = [f"slot {dt}:"]
        if rng.random() < 0.6:
            parts.append(f"class={rng.choice(classes)}")
        if rng.random() < 0.3:
            parts.append(f"feat f={rng.choice(values)}")
        parts.append("required" if rng.random() < 0.3 else "optional")
        extract = _some(rng, dtypes, 3) if rng.random() < 0.4 else []
        parts.append("extract {" + ",".join(extract) + "}")
        out.append("  " + " ".join(parts) + ";")
    fields = ["s0", "s1", "s2"][: rng.choice((1, 1, 2, 2, 3))]
    own = rng.choice(fields)
    out.append(f"  domains [{' '.join(fields)}] self={own};")
    for name in fields:
        if rng.random() < 0.25:
            out.append(f"  card {name} {rng.choice(('=', '<=', '>='))} 1;")
        if rng.random() < 0.15:
            out.append(f"  feat {name} f={rng.choice(values)};")
    if rng.random() < 0.25:
        scope = f" in {own}" if rng.random() < 0.5 else ""
        out.append(f"  order self {rng.choice('<>')} *{scope};")
    if rng.random() < 0.3:
        left = ",".join(_some(rng, dtypes, 2))
        right = ",".join(_some(rng, dtypes, 2))
        out.append(f"  order <{left}> {rng.choice(('before', 'after'))} <{right}>;")
    out.append("}")
    return out


def placements(tree):
    """Every structure realizing ``tree`` in its own word order.

    Each non-root word takes every transitive head as its positional head
    and every template slot of that head, as `odgrammar.oracle` does; the
    structures are not validated.
    """
    head_of = tree.head_of()
    non_root = [w for w in range(tree.n) if w != tree.root]
    chains = [ancestor_chain(head_of, w) for w in non_root]
    for heads in itertools.product(*chains):
        positional = dict(zip(non_root, heads))
        slot_ranges = [range(len(tree.words[p].entry.template.slots)) for p in heads]
        for slots in itertools.product(*slot_ranges):
            yield realize_structure(tree, positional, dict(zip(non_root, slots)))


def verdict_net(trees, lex, result: NetResult) -> None:
    """Compare `structure_is_valid` with the harness's independent verdict on
    every placement of every tree in every word order."""
    for tree in trees:
        for order in itertools.permutations(range(tree.n)):
            permuted, _ = permute_tree(tree, order)
            for ds in placements(permuted):
                result.candidates += 1
                verdict = structure_is_valid(ds, lex)
                result.valid += verdict
                if verdict != independent_verdict(ds, lex):
                    result.disagreements.append(
                        f"verdict on order {order} of\n{render_tree_text(tree, lex)}"
                        f"positional {ds.positional}, domains {ds.domains.assoc}"
                    )


def check_seed(seed: int) -> NetResult:
    """Round-trip the seed's lexicon, compare engine and oracle on it, then
    the validator and the harness."""
    text = random_lexicon_text(seed)
    lex = load_lexicon(text)
    if load_lexicon(render_lexicon(lex)) != lex:
        result = NetResult()
        result.disagreements.append(f"seed {seed}: render round trip\n{text}")
        return result
    result = run_net(sentences(FORMS, range(1, MAX_TOKENS + 1)), lex)
    verdict_net(result.analysed, lex, result)
    result.disagreements = [f"seed {seed}: {d}" for d in result.disagreements]
    return result


def run_seeds(seeds) -> NetResult:
    total = NetResult()
    for seed in seeds:
        result = check_seed(seed)
        total.sentences += result.sentences
        total.with_analyses += result.with_analyses
        total.trees += result.trees
        total.pairs += result.pairs
        total.candidates += result.candidates
        total.valid += result.valid
        total.disagreements += result.disagreements
    return total


def main(argv: list[str]) -> int:
    seeds = range(int(argv[0]), int(argv[1])) if argv else FULL_SEEDS
    start = time.monotonic()
    result = run_seeds(seeds)
    print(
        f"seeds {seeds.start}..{seeds.stop - 1}: {result.sentences} sentences, "
        f"{result.with_analyses} with analyses; {result.trees} trees, "
        f"{result.pairs} (surface, structure) pairs; "
        f"{result.candidates} placements judged, {result.valid} valid; "
        f"{len(result.disagreements)} disagreements; "
        f"{time.monotonic() - start:.1f} s"
    )
    for item in result.disagreements:
        print(f"disagreement: {item}")
    return 1 if result.disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
