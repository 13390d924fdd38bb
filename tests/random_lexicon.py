"""Seeded random lexica for the differential net (``oracle_net``).

Each seed writes one small lexicon in the text format: 2–3 word classes,
2–3 dependency types, one attribute, and 3 forms with 1–2 entries each.
Across seeds the lexica draw every statement kind the format has:
inventories, an optional ``root:`` line, entry features, valency slots
with class and feature demands, ``required``/``optional`` and extraction
sets of up to three types, templates of 1–3 fields, ``card`` with ``=``,
``<=`` and ``>=``, domain-feature demands, self-ordering predicates with
and without ``in``, and ``before``/``after`` pair predicates.

The net runs each lexicon on every sentence of 1 to ``MAX_TOKENS`` tokens
over ``FORMS``.  At 4 tokens the net is too slow for Tier-1 and for its
full sweep (ROADMAP item 4).
"""

from __future__ import annotations

import random

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
