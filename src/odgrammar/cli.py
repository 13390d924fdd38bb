"""Command line front end.

Subcommands: parse, generate, validate, oracle, check-lexicon.  The
lexicon comes from --lexicon, the ODGRAMMAR_LEXICON environment variable,
or the bundled German fragment, in that order.  Exit codes: 0 for a
non-empty or agreeing result, 1 for empty, invalid, or disagreeing, 2 for
usage and input errors, 3 when a search or size limit was hit.

Machine output (--format machine) is a JSON envelope whose bytes depend
only on the input; wall-clock timing is added only with --timing.
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


def _load_lexicon(args) -> Lexicon:
    path = args.lexicon or os.environ.get("ODGRAMMAR_LEXICON")
    if path:
        return load_lexicon(Path(path).read_text(encoding="utf-8"))
    return reference_lexicon()


def _read_input(args) -> str:
    if getattr(args, "file", None) and args.file != "-":
        return Path(args.file).read_text(encoding="utf-8")
    return sys.stdin.read()


def _sentence_tokens(args) -> list[str]:
    if getattr(args, "sentence", None):
        return tokenize(args.sentence)
    return tokenize(_read_input(args))


def _machine(payload: dict, args, seconds: float) -> int:
    exit_code = payload.pop("_exit", EXIT_OK)
    if args.timing:
        payload["seconds"] = round(seconds, 6)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return exit_code


def _print_structures(structures, lex: Lexicon) -> None:
    print(f"{len(structures)} structure(s).")
    for i, ds in enumerate(structures, 1):
        print(f"--- structure {i}")
        print(render_structure_text(ds, lex), end="")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args) -> int:
    lex = _load_lexicon(args)
    tokens = _sentence_tokens(args)
    start = time.monotonic()
    result = engine.parse(tokens, lex, max_candidates=args.max_candidates)
    seconds = time.monotonic() - start
    status = "ok" if result.structures else "empty"
    if args.format == "machine":
        payload = {
            "command": "parse",
            "tokens": tokens,
            "status": status,
            "structures": [structure_obj(ds, lex) for ds in result.structures],
            "diagnostics": list(result.diagnostics),
            "_exit": EXIT_OK if result.structures else EXIT_EMPTY,
        }
        return _machine(payload, args, seconds)
    if not result.structures:
        print("no structures.")
        for line in result.diagnostics:
            print(f"  {line}")
        if args.timing:
            print(f"elapsed: {seconds:.3f}s")
        return EXIT_EMPTY
    _print_structures(result.structures, lex)
    if args.timing:
        print(f"elapsed: {seconds:.3f}s")
    return EXIT_OK


def _cmd_generate(args) -> int:
    lex = _load_lexicon(args)
    tree = parse_tree_text(_read_input(args), lex)
    start = time.monotonic()
    result = engine.generate(tree, lex, max_candidates=args.max_candidates)
    seconds = time.monotonic() - start
    status = "ok" if result.pairs else "empty"
    if args.format == "machine":
        payload = {
            "command": "generate",
            "status": status,
            "pairs": [
                {"surface": surface, "structure": structure_obj(ds, lex)}
                for surface, ds in result.pairs
            ],
            "surfaces": list(result.surfaces()),
            "diagnostics": list(result.diagnostics),
            "_exit": EXIT_OK if result.pairs else EXIT_EMPTY,
        }
        return _machine(payload, args, seconds)
    if not result.pairs:
        print("no realizations.")
        for line in result.diagnostics:
            print(f"  {line}")
        return EXIT_EMPTY
    print(f"{len(result.pairs)} realization(s), {len(result.surfaces())} order(s).")
    for i, (surface, ds) in enumerate(result.pairs, 1):
        print(f"--- realization {i}: {surface}")
        if not args.surfaces_only:
            print(render_structure_text(ds, lex), end="")
    if args.timing:
        print(f"elapsed: {seconds:.3f}s")
    return EXIT_OK


def _cmd_validate(args) -> int:
    lex = _load_lexicon(args)
    ds = parse_structure_text(_read_input(args), lex)
    start = time.monotonic()
    report = validate_structure(ds, lex)
    seconds = time.monotonic() - start
    if args.format == "machine":
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
            "_exit": EXIT_OK if report.ok else EXIT_EMPTY,
        }
        return _machine(payload, args, seconds)
    if report.ok:
        print("valid.")
        return EXIT_OK
    print(f"invalid: {len(report.violations)} violation(s).")
    print(report.render())
    return EXIT_EMPTY


def _cmd_oracle(args) -> int:
    lex = _load_lexicon(args)
    config = oracle.OracleConfig(max_tokens=args.max_tokens)
    start = time.monotonic()
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
            return _diff_report(
                args,
                "orders",
                keys(engine_pairs),
                keys(oracle.oracle_generate(tree, lex, config)),
                time.monotonic() - start,
            )
        accepted = oracle.oracle_orders(tree, lex, config)
        seconds = time.monotonic() - start
        if args.format == "machine":
            payload = {
                "command": "oracle",
                "mode": "orders",
                "status": "ok" if accepted else "empty",
                "orders": list(accepted),
                "_exit": EXIT_OK if accepted else EXIT_EMPTY,
            }
            return _machine(payload, args, seconds)
        if not accepted:
            print("no accepted orders.")
            return EXIT_EMPTY
        print(f"{len(accepted)} accepted order(s).")
        for surface in accepted:
            print(surface)
        return EXIT_OK

    tokens = _sentence_tokens(args)
    structures = oracle.oracle_parse(tokens, lex, config)
    canon = [canonical_structure(ds, lex) for ds in structures]
    if args.diff:
        result = engine.parse(tokens, lex, max_candidates=args.max_candidates)
        engine_canon = [canonical_structure(ds, lex) for ds in result.structures]
        return _diff_report(
            args, "parse", engine_canon, canon, time.monotonic() - start
        )
    seconds = time.monotonic() - start
    if args.format == "machine":
        payload = {
            "command": "oracle",
            "mode": "parse",
            "tokens": tokens,
            "status": "ok" if structures else "empty",
            "structures": [structure_obj(ds, lex) for ds in structures],
            "_exit": EXIT_OK if structures else EXIT_EMPTY,
        }
        return _machine(payload, args, seconds)
    if not structures:
        print("no structures.")
        return EXIT_EMPTY
    _print_structures(structures, lex)
    return EXIT_OK


def _diff_report(args, mode, engine_items, oracle_items, seconds) -> int:
    only_engine = sorted(set(engine_items) - set(oracle_items))
    only_oracle = sorted(set(oracle_items) - set(engine_items))
    agree = not only_engine and not only_oracle
    if args.format == "machine":
        payload = {
            "command": "oracle",
            "mode": mode,
            "diff": True,
            "status": "agree" if agree else "differ",
            "engine_count": len(engine_items),
            "oracle_count": len(oracle_items),
            "only_engine": only_engine,
            "only_oracle": only_oracle,
            "_exit": EXIT_OK if agree else EXIT_EMPTY,
        }
        return _machine(payload, args, seconds)
    if agree:
        print(f"engine and oracle agree ({len(oracle_items)} result(s)).")
        return EXIT_OK
    print("engine and oracle disagree.")
    for item in only_engine:
        print("only engine:")
        print(item)
    for item in only_oracle:
        print("only oracle:")
        print(item)
    return EXIT_EMPTY


def _cmd_check_lexicon(args) -> int:
    try:
        lex = _load_lexicon(args)
    except LexiconError as exc:
        if args.format == "machine":
            payload = {
                "command": "check-lexicon",
                "status": "invalid",
                "error": str(exc),
                "_exit": EXIT_EMPTY,
            }
            return _machine(payload, args, 0.0)
        print(f"invalid lexicon: {exc}")
        return EXIT_EMPTY
    forms = sorted(lex.entries)
    n_entries = sum(len(es) for es in lex.entries.values())
    if args.format == "machine":
        payload = {
            "command": "check-lexicon",
            "status": "ok",
            "entries": n_entries,
            "forms": forms,
            "dtypes": list(lex.dtypes),
            "classes": list(lex.classes),
            "attributes": {k: list(v) for k, v in lex.attributes.items()},
            "root_classes": list(lex.root_classes),
            "_exit": EXIT_OK,
        }
        return _machine(payload, args, 0.0)
    print(
        f"lexicon ok: {n_entries} entries, {len(lex.dtypes)} dtypes, "
        f"{len(lex.classes)} classes, {len(lex.attributes)} attributes."
    )
    print("forms: " + " ".join(forms))
    if lex.root_classes:
        print("root classes: " + " ".join(lex.root_classes))
    return EXIT_OK


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TokenLimitError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (
        LexiconError,
        SerializationError,
        StructureError,
        UnknownTokenError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
