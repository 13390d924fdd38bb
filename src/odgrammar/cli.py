"""Command line front end.

Subcommands: parse, generate, validate, oracle, check-lexicon.  The
lexicon comes from --lexicon, the ODGRAMMAR_LEXICON environment variable,
or the bundled German fragment, in that order.

Each subcommand returns what it found; `main` alone renders it and picks
the exit code: 0 for a non-empty or agreeing result, 1 for empty, invalid,
or disagreeing, 2 for usage and input errors (including unreadable or
non-UTF-8 input files, named in the message, and a closed stdout), 3 when
a search or size limit was hit.

Machine output (--format machine) is a JSON envelope whose bytes depend
only on the input.  --timing times the whole subcommand, reading the
input and the lexicon included: machine output gains a "seconds" key,
human output a final "elapsed:" line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import engine, oracle
from .core import (
    ResourceLimitError,
    StructureError,
    TokenLimitError,
    UnknownTokenError,
)
from .lexicon import Lexicon, LexiconError, load_lexicon, reference_lexicon
from .serialize import (
    SerializationError,
    canonical_structure,
    parse_structure_text,
    parse_tree_text,
    render_structure_text,
    structure_obj,
)
from .validate import validate_structure

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def tokenize(sentence: str) -> list[str]:
    """Whitespace tokens; one sentence-final period is dropped.

    The period is not a word: it stands for the implicit root governor,
    which carries no surface position of its own.
    """
    toks = sentence.split()
    if toks:
        if toks[-1] == ".":
            toks.pop()
        elif toks[-1].endswith("."):
            toks[-1] = toks[-1][:-1]
    return toks


def _read_file(path: str) -> str:
    """A UTF-8 text file; a file that is not UTF-8 counts as unreadable."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path} is not UTF-8 text: {exc}") from None


def _load_lexicon(args) -> Lexicon:
    path = args.lexicon or os.environ.get("ODGRAMMAR_LEXICON")
    if path:
        return load_lexicon(_read_file(path))
    return reference_lexicon()


def _read_input(args) -> str:
    if getattr(args, "file", None) and args.file != "-":
        return _read_file(args.file)
    return sys.stdin.read()


def _sentence_tokens(args) -> list[str]:
    if getattr(args, "sentence", None):
        return tokenize(args.sentence)
    return tokenize(_read_input(args))


def _listing(structures, lex: Lexicon) -> list[str]:
    lines = [f"{len(structures)} structure(s)."]
    for i, ds in enumerate(structures, 1):
        lines.append(f"--- structure {i}")
        lines.append(render_structure_text(ds, lex).removesuffix("\n"))
    return lines


# ---------------------------------------------------------------------------
# subcommands
#
# Each returns (found, payload, lines): whether it found something, the
# machine payload, and the human output lines.  `main` renders one of the
# two and turns `found` into exit code 0 or 1.

Outcome = tuple[bool, dict, list[str]]


def _cmd_parse(args) -> Outcome:
    lex = _load_lexicon(args)
    tokens = _sentence_tokens(args)
    result = engine.parse(tokens, lex, max_candidates=args.max_candidates)
    found = bool(result.structures)
    payload = {
        "command": "parse",
        "tokens": tokens,
        "status": "ok" if found else "empty",
        "structures": [structure_obj(ds, lex) for ds in result.structures],
        "diagnostics": list(result.diagnostics),
    }
    if found:
        return found, payload, _listing(result.structures, lex)
    lines = ["no structures.", *(f"  {line}" for line in result.diagnostics)]
    return found, payload, lines


def _cmd_generate(args) -> Outcome:
    lex = _load_lexicon(args)
    tree = parse_tree_text(_read_input(args), lex)
    result = engine.generate(tree, lex, max_candidates=args.max_candidates)
    found = bool(result.pairs)
    payload = {
        "command": "generate",
        "status": "ok" if found else "empty",
        "pairs": [
            {"surface": surface, "structure": structure_obj(ds, lex)}
            for surface, ds in result.pairs
        ],
        "surfaces": list(result.surfaces()),
        "diagnostics": list(result.diagnostics),
    }
    if not found:
        lines = ["no realizations.", *(f"  {line}" for line in result.diagnostics)]
        return found, payload, lines
    lines = [f"{len(result.pairs)} realization(s), {len(result.surfaces())} order(s)."]
    for i, (surface, ds) in enumerate(result.pairs, 1):
        lines.append(f"--- realization {i}: {surface}")
        if not args.surfaces_only:
            lines.append(render_structure_text(ds, lex).removesuffix("\n"))
    return found, payload, lines


def _cmd_validate(args) -> Outcome:
    lex = _load_lexicon(args)
    ds = parse_structure_text(_read_input(args), lex)
    report = validate_structure(ds, lex)
    payload = {
        "command": "validate",
        "status": "valid" if report.ok else "invalid",
        "violations": [
            {
                "condition": v.condition,
                "subjects": list(v.subjects),
                "message": v.message,
            }
            for v in report.violations
        ],
    }
    if report.ok:
        return True, payload, ["valid."]
    lines = [f"invalid: {len(report.violations)} violation(s).", report.render()]
    return False, payload, lines


def _cmd_oracle(args) -> Outcome:
    lex = _load_lexicon(args)
    config = oracle.OracleConfig(max_tokens=args.max_tokens)
    if args.orders:
        tree = parse_tree_text(_read_input(args), lex)
        if args.diff:
            # whole (surface, structure) pairs: a right surface realized by
            # a wrong structure is a difference too
            def keys(pairs):
                return [
                    f"{surface}\n{canonical_structure(ds, lex)}"
                    for surface, ds in pairs
                ]

            engine_pairs = engine.generate(
                tree, lex, max_candidates=args.max_candidates
            ).pairs
            oracle_pairs = oracle.oracle_generate(tree, lex, config)
            return _diff_report("orders", keys(engine_pairs), keys(oracle_pairs))
        accepted = oracle.oracle_orders(tree, lex, config)
        payload = {
            "command": "oracle",
            "mode": "orders",
            "status": "ok" if accepted else "empty",
            "orders": list(accepted),
        }
        if not accepted:
            return False, payload, ["no accepted orders."]
        return True, payload, [f"{len(accepted)} accepted order(s).", *accepted]

    tokens = _sentence_tokens(args)
    structures = oracle.oracle_parse(tokens, lex, config)
    if args.diff:
        canon = [canonical_structure(ds, lex) for ds in structures]
        result = engine.parse(tokens, lex, max_candidates=args.max_candidates)
        engine_canon = [canonical_structure(ds, lex) for ds in result.structures]
        return _diff_report("parse", engine_canon, canon)
    payload = {
        "command": "oracle",
        "mode": "parse",
        "tokens": tokens,
        "status": "ok" if structures else "empty",
        "structures": [structure_obj(ds, lex) for ds in structures],
    }
    if not structures:
        return False, payload, ["no structures."]
    return True, payload, _listing(structures, lex)


def _diff_report(mode, engine_items, oracle_items) -> Outcome:
    only_engine = sorted(set(engine_items) - set(oracle_items))
    only_oracle = sorted(set(oracle_items) - set(engine_items))
    agree = not only_engine and not only_oracle
    payload = {
        "command": "oracle",
        "mode": mode,
        "diff": True,
        "status": "agree" if agree else "differ",
        "engine_count": len(engine_items),
        "oracle_count": len(oracle_items),
        "only_engine": only_engine,
        "only_oracle": only_oracle,
    }
    if agree:
        lines = [f"engine and oracle agree ({len(oracle_items)} result(s))."]
        return True, payload, lines
    lines = ["engine and oracle disagree."]
    for item in only_engine:
        lines += ["only engine:", item]
    for item in only_oracle:
        lines += ["only oracle:", item]
    return False, payload, lines


def _cmd_check_lexicon(args) -> Outcome:
    try:
        lex = _load_lexicon(args)
    except LexiconError as exc:
        payload = {"command": "check-lexicon", "status": "invalid", "error": str(exc)}
        return False, payload, [f"invalid lexicon: {exc}"]
    forms = sorted(lex.entries)
    n_entries = sum(len(es) for es in lex.entries.values())
    payload = {
        "command": "check-lexicon",
        "status": "ok",
        "entries": n_entries,
        "forms": forms,
        "dtypes": list(lex.dtypes),
        "classes": list(lex.classes),
        "attributes": {k: list(v) for k, v in lex.attributes.items()},
        "root_classes": list(lex.root_classes),
    }
    lines = [
        f"lexicon ok: {n_entries} entries, {len(lex.dtypes)} dtypes, "
        f"{len(lex.classes)} classes, {len(lex.attributes)} attributes.",
        "forms: " + " ".join(forms),
    ]
    if lex.root_classes:
        lines.append("root classes: " + " ".join(lex.root_classes))
    return True, payload, lines


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--lexicon",
        metavar="PATH",
        default=None,
        help="lexicon file (default: $ODGRAMMAR_LEXICON or the bundled fragment)",
    )
    sub.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="output style; machine is a byte-stable JSON envelope",
    )
    sub.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock time in the output",
    )
    sub.add_argument(
        "--max-candidates",
        type=int,
        default=engine.DEFAULT_MAX_CANDIDATES,
        metavar="N",
        help="search budget before giving up with exit code 3",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odgrammar",
        description="dependency parsing and linearization with order domains",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse a sentence into structures")
    p.add_argument("sentence", nargs="?", help="sentence (default: read stdin)")
    p.add_argument("--file", metavar="PATH", help="read the sentence from a file")
    _add_common(p)
    p.set_defaults(func=_cmd_parse)

    g = subs.add_parser("generate", help="linearize a tree read in text form")
    g.add_argument("--file", metavar="PATH", help="tree file (default: stdin)")
    g.add_argument(
        "--surfaces-only",
        action="store_true",
        help="human format: print orders without the structures",
    )
    _add_common(g)
    g.set_defaults(func=_cmd_generate)

    v = subs.add_parser("validate", help="check a structure read in text form")
    v.add_argument("--file", metavar="PATH", help="structure file (default: stdin)")
    _add_common(v)
    v.set_defaults(func=_cmd_validate)

    o = subs.add_parser(
        "oracle", help="exhaustive reference enumeration for short inputs"
    )
    o.add_argument("sentence", nargs="?", help="sentence (ignored with --orders)")
    o.add_argument("--file", metavar="PATH", help="input file (default: stdin)")
    o.add_argument(
        "--orders",
        action="store_true",
        help="read a tree and list its accepted surface orders",
    )
    o.add_argument(
        "--diff",
        action="store_true",
        help="compare with the engine; exit 1 on any difference",
    )
    o.add_argument(
        "--max-tokens",
        type=int,
        default=oracle.OracleConfig.max_tokens,
        metavar="N",
        help="refuse longer inputs (exit code 3)",
    )
    _add_common(o)
    o.set_defaults(func=_cmd_oracle)

    c = subs.add_parser("check-lexicon", help="load a lexicon and summarize it")
    _add_common(c)
    c.set_defaults(func=_cmd_check_lexicon)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        found, payload, lines = args.func(args)
        seconds = time.monotonic() - start
        if args.format == "machine":
            if args.timing:
                payload["seconds"] = round(seconds, 6)
            lines = [json.dumps(payload, sort_keys=True, indent=2)]
        elif args.timing:
            lines.append(f"elapsed: {seconds:.3f}s")
        print("\n".join(lines))
        # a closed stdout fails here, inside the mapping below, and not
        # when the interpreter flushes at exit
        sys.stdout.flush()
        return EXIT_OK if found else EXIT_EMPTY
    except (TokenLimitError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except BrokenPipeError as exc:
        # what stays buffered would fail again when the interpreter flushes
        # stdout at exit; send it nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        LexiconError,
        SerializationError,
        StructureError,
        UnknownTokenError,
        UnicodeDecodeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
