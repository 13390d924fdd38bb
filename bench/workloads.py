"""Inputs, frozen answers and output digests for the benchmark workloads.

Every input is built here from the benchmark's own data: the bundled
lexicon, the scaling lexicon ``genitive.lex`` beside this file, a copy of
the 25-sentence corpus, and the seeded ``validate`` set.  Each request has
a key under which ``answers.json`` stores the digest of its correct output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from odgrammar import (
    SerializationError,
    canonical_structure,
    generate,
    load_lexicon,
    parse,
    parse_structure_text,
    parse_tree_text,
    realize_structure,
    reference_lexicon_text,
    render_structure_text,
    validate_structure,
)

BENCH_DIR = Path(__file__).resolve().parent
ANSWERS_PATH = BENCH_DIR / "answers.json"
GENITIVE_LEXICON_PATH = BENCH_DIR / "genitive.lex"

WORKLOADS = ("fragment-parse", "genitive-parse", "generate", "validate")

# The corpus over the bundled lexicon: 7 grammatical, 18 ungrammatical.
FRAGMENT_SENTENCES = (
    "den Mann hat der Junge gesehen",
    "der Junge hat den Mann gesehen",
    "gesehen hat der Junge den Mann",
    "gesehen hat den Mann der Junge",
    "den Mann gesehen hat der Junge",
    "hat der Junge den Mann gesehen",
    "der Junge den Mann hat gesehen",
    "den Mann hat gesehen der Junge",
    "der Junge hat gesehen den Mann",
    "der Junge gesehen hat den Mann",
    "hat gesehen der Junge den Mann",
    "den Junge hat der Mann gesehen",
    "der Mann hat den Junge gesehen",
    "den Mann hat den Junge gesehen",
    "der Mann hat der Junge gesehen",
    "der Junge hat gesehen",
    "Junge hat den Mann gesehen",
    "der Junge hat den Mann",
    "gesehen den Mann hat der Junge",
    "den der hat Mann Junge gesehen",
    "der Junge",
    "hat",
    "gesehen",
    "der der Junge hat den Mann gesehen",
    "den Mann hat der Junge gesehen gesehen",
)

# The corpus sentence with a unique analysis; its tree is the key tree.
KEY_SENTENCE = "den Mann hat der Junge gesehen"

# k = 3 gives 12 tokens.  Larger k, and generation above 10 tokens, cost
# minutes and factorially growing memory before the first budget check, so
# they are left out on purpose.
GENITIVE_PARSE_KS = (0, 1, 2, 3)
# A pass parses each sentence below 12 tokens this many times and the two
# 12-token sentences once.  The 12-token pair takes 90% of a pass either
# way; the repeats give the shorter sizes enough calls in a run for steady
# latency percentiles.
GENITIVE_SHORT_REPEATS = 5
GENITIVE_GENERATE_KS = (0, 1, 2)

# Per pass, the validate set draws this many inputs of each kind from a
# fixed pool whose answers are frozen; the seed chooses which.
VALIDATE_POOL = {"realize": 600, "edit": 600}  # plus every valid structure
VALIDATE_DRAW = {"valid": 120, "realize": 240, "edit": 240}


@dataclass(frozen=True)
class Request:
    """One call of the closed loop: an operation on one prepared input."""

    key: str
    op: str  # "parse", "generate" or "validate"
    lexicon: str  # "bundled" or "genitive"
    payload: object  # token tuple, DependencyTree, or structure text
    tokens: int


def load_lexica() -> dict:
    return {
        "bundled": load_lexicon(reference_lexicon_text()),
        "genitive": load_lexicon(GENITIVE_LEXICON_PATH.read_text()),
    }


def genitive_tokens(k: int, grammatical: bool) -> tuple[str, ...]:
    """``der Junge hat den Mann (des Mannes)^k gesehen``, or the variant
    with the participle moved in front of the object."""
    chain = ("des", "Mannes") * k
    if grammatical:
        return ("der", "Junge", "hat", "den", "Mann", *chain, "gesehen")
    return ("der", "Junge", "hat", "gesehen", "den", "Mann", *chain)


def genitive_tree_text(k: int) -> str:
    """The right-branching tree of the grammatical genitive sentence:
    each noun takes the next ``des Mannes`` as its genitive."""
    tokens = genitive_tokens(k, True)
    n = len(tokens)
    ordinal = {"Mann": 1}  # the accusative "Mann"; every other form is unique
    classes = {"der": "Det", "den": "Det", "des": "Det", "Junge": "N",
               "Mann": "N", "Mannes": "N", "hat": "Vfin", "gesehen": "Vpart"}
    lines = [
        f"token {i} {form} {ordinal.get(form, 0)} {classes[form]}"
        for i, form in enumerate(tokens)
    ]
    lines += ["root 2", "edge 1 det 0", "edge 2 subj 1", f"edge 2 vpart {n - 1}",
              f"edge {n - 1} obj 4", "edge 4 det 3"]
    noun = 4
    for j in range(k):
        det, gen = 5 + 2 * j, 6 + 2 * j
        lines += [f"edge {noun} gen {gen}", f"edge {gen} det {det}"]
        noun = gen
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output digests


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\x00")
    return h.hexdigest()[:20]


def parse_answer(structures, lex) -> str:
    return digest(sorted(canonical_structure(ds, lex) for ds in structures))


def generate_answer(pairs, lex) -> str:
    return digest(sorted(f"{s}\t{canonical_structure(ds, lex)}" for s, ds in pairs))


def validate_answer(report) -> str:
    return digest(json.dumps([v.condition, list(v.subjects)]) for v in report.violations)


def run_request(req: Request, lexica: dict):
    """Make one call; returns the library's result object."""
    lex = lexica[req.lexicon]
    if req.op == "parse":
        return parse(req.payload, lex)
    if req.op == "generate":
        return generate(req.payload, lex)
    return validate_structure(parse_structure_text(req.payload, lex), lex)


def answer_of(req: Request, result, lexica: dict) -> str:
    lex = lexica[req.lexicon]
    if req.op == "parse":
        return parse_answer(result.structures, lex)
    if req.op == "generate":
        return generate_answer(result.pairs, lex)
    return validate_answer(result)


def load_answers() -> dict[str, str]:
    """Flat map from request key to frozen digest."""
    data = json.loads(ANSWERS_PATH.read_text())
    flat = {}
    for workload in ("fragment-parse", "genitive-parse", "generate"):
        for key, rec in data[workload].items():
            flat[key] = rec["digest"]
    flat.update(data["validate"]["digests"])
    return flat


# ---------------------------------------------------------------------------
# request sets


def fragment_requests() -> list[Request]:
    return [
        Request(f"fragment:{s}", "parse", "bundled", tuple(s.split()), len(s.split()))
        for s in FRAGMENT_SENTENCES
    ]


def genitive_requests(ks=GENITIVE_PARSE_KS, repeats=GENITIVE_SHORT_REPEATS) -> list[Request]:
    out = []
    for k in ks:
        for grammatical, tag in ((True, "genitive"), (False, "genitive-bad")):
            toks = genitive_tokens(k, grammatical)
            req = Request(f"{tag}:k={k}", "parse", "genitive", toks, len(toks))
            out.extend([req] * (repeats if k < 3 else 1))
    return out


def key_tree(lexica):
    """Tree of the key sentence's unique analysis, in the bundled lexicon."""
    (ds,) = parse(KEY_SENTENCE.split(), lexica["bundled"]).structures
    return ds.tree


def generate_requests(lexica, ks=GENITIVE_GENERATE_KS) -> list[Request]:
    out = [Request("generate:key", "generate", "bundled", key_tree(lexica), 6)]
    for k in ks:
        tree = parse_tree_text(genitive_tree_text(k), lexica["genitive"])
        out.append(Request(f"generate:genitive k={k}", "generate", "genitive", tree, tree.n))
    return out


def valid_structures(lexica) -> list[tuple[str, object]]:
    """(lexicon name, structure) for every parse of the parse workloads up to
    10 tokens and every generated pair of the generate workload, deduplicated
    and in canonical order."""
    found = {}

    def add(name, structures):
        for ds in structures:
            found.setdefault((name, canonical_structure(ds, lexica[name])), ds)

    for s in FRAGMENT_SENTENCES:
        add("bundled", parse(s.split(), lexica["bundled"]).structures)
    for k in range(3):
        add("genitive", parse(genitive_tokens(k, True), lexica["genitive"]).structures)
    for req in generate_requests(lexica):
        add(req.lexicon, (ds for _, ds in generate(req.payload, lexica[req.lexicon]).pairs))
    return [(name, found[(name, canon)]) for name, canon in sorted(found)]


def _random_realization(rng: random.Random, tree):
    """Positional heads and slots drawn uniformly; mostly invalid."""
    head_of = tree.head_of()
    positional, slot_of = {}, {}
    for w in range(tree.n):
        if w == tree.root:
            continue
        chain = [head_of[w]]
        while chain[-1] != tree.root:
            chain.append(head_of[chain[-1]])
        p = rng.choice(chain)
        positional[w] = p
        slot_of[w] = rng.randrange(len(tree.words[p].entry.template.slots))
    return realize_structure(tree, positional, slot_of)


def _edit_field(rng: random.Random, text: str, lex) -> str:
    """Change one field of one record of a serialized structure."""
    lines = text.splitlines()
    n = sum(1 for line in lines if line.startswith("token "))
    domain_ids = [line.split()[1] for line in lines if line.startswith("domain ")]
    i = rng.randrange(len(lines))
    fields = lines[i].split()
    kind = fields[0]
    if kind == "token":
        if len(fields) > 5 and rng.random() < 0.5:
            j = rng.randrange(5, len(fields))
            attr = fields[j].split("=", 1)[0]
            fields[j] = f"{attr}={rng.choice(lex.attributes[attr])}"
        else:
            fields[4] = rng.choice(lex.classes)
    elif kind == "root":
        fields[1] = str(rng.randrange(n))
    elif kind == "edge":
        if rng.random() < 0.5:
            fields[rng.choice((1, 3))] = str(rng.randrange(n))
        else:
            fields[2] = rng.choice(lex.dtypes)
    elif kind == "domain":
        members = fields[2:]
        choice = rng.randrange(3)
        if choice == 0 and len(members) > 1:
            members.pop(rng.randrange(len(members)))
        elif choice == 1:
            members.append(str(rng.randrange(n)))
        else:
            members[rng.randrange(len(members))] = str(rng.randrange(n))
        fields[2:] = members
    elif kind == "assoc":
        j = rng.randrange(2, len(fields))
        fields[j] = rng.choice(["-", *domain_ids])
    else:  # positional
        fields[rng.choice((1, 2))] = str(rng.randrange(n))
    lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def validate_item(kind: str, i: int, valid, lexica) -> Request:
    """Pool item ``i`` of one kind; the same (kind, i) always gives the
    same input, so its answer can be frozen."""
    if kind == "valid":
        name, ds = valid[i]
        text = render_structure_text(ds, lexica[name])
        return Request(f"valid:{i}", "validate", name, text, ds.tree.n)
    rng = random.Random(f"{kind}-{i}")
    name, base = valid[rng.randrange(len(valid))]
    lex = lexica[name]
    if kind == "realize":
        text = render_structure_text(_random_realization(rng, base.tree), lex)
    else:
        original = render_structure_text(base, lex)
        while True:
            text = _edit_field(rng, original, lex)
            if text == original:
                continue
            try:
                parse_structure_text(text, lex)
            except SerializationError:
                continue
            break
    return Request(f"{kind}:{i}", "validate", name, text, base.tree.n)


def validate_pool_size(kind: str, valid) -> int:
    return len(valid) if kind == "valid" else VALIDATE_POOL[kind]


def validate_requests(lexica, seed: int, draw=VALIDATE_DRAW) -> list[Request]:
    """The seeded validate set: ``draw[kind]`` pool items of each kind."""
    valid = valid_structures(lexica)
    rng = random.Random(seed)
    out = []
    for kind in ("valid", "realize", "edit"):
        picks = rng.sample(range(validate_pool_size(kind, valid)), draw[kind])
        out.extend(validate_item(kind, i, valid, lexica) for i in sorted(picks))
    return out


def requests_for(workload: str, lexica, seed: int, smoke: bool = False) -> list[Request]:
    """The requests of one pass.  ``smoke`` keeps only the smallest sizes."""
    if workload == "fragment-parse":
        return fragment_requests()
    if workload == "genitive-parse":
        return genitive_requests((0,) if smoke else GENITIVE_PARSE_KS)
    if workload == "generate":
        return generate_requests(lexica, (0,) if smoke else GENITIVE_GENERATE_KS)
    if workload == "validate":
        if smoke:
            return validate_requests(lexica, seed, {k: 10 for k in VALIDATE_DRAW})
        return validate_requests(lexica, seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_requests(workload: str, requests: list[Request]) -> list[Request]:
    """The warm-up pass: every request of the smallest size in the pass.

    For fragment-parse and validate every input is small, so the warm-up
    is the whole pass; for the scaling workloads it is the k = 0 inputs
    (and the key tree), which run every code path of the larger ones.
    """
    if workload in ("genitive-parse", "generate"):
        return [r for r in requests if r.tokens <= 6]
    return list(requests)
