"""The names and diagnostics labels the benchmark reads from the library.

The benchmark's traced runs replace library names listed in
``bench/tracing.py``'s ``WRAPPED``, and its engine counts come from the
diagnostics lines whose labels ``bench/worker.py``'s ``ENGINE_COUNTS``
lists.  Both files are read as source here, never run, so a change to the
library that drops one of those names or labels fails this test.  The
traced verdict is ``odgrammar.engine.iter_structure_violations``, so both
searches must judge every realized structure through that name.
"""

import ast
import importlib
from pathlib import Path

import odgrammar.engine
from odgrammar import generate, parse

from corpus import KEY_SENTENCE

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def assigned(filename: str, name: str) -> ast.expr:
    """The value a bench file assigns to the module-level ``name``."""
    tree = ast.parse((BENCH_DIR / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"bench/{filename} assigns no {name}")


def test_every_wrapped_name_exists():
    entries = assigned("tracing.py", "WRAPPED").elts
    assert entries
    for entry in entries:
        module, attr = ast.unparse(entry.elts[0]), ast.literal_eval(entry.elts[1])
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_every_engine_count_label_is_printed(lex):
    labels = ast.literal_eval(assigned("worker.py", "ENGINE_COUNTS"))
    parsed = parse(KEY_SENTENCE.split(), lex)
    generated = generate(parsed.structures[0].tree, lex)
    printed = {
        line.split(": ", 1)[0]
        for line in parsed.diagnostics + generated.diagnostics
    }
    assert set(labels) <= printed, set(labels) - printed


def test_both_searches_judge_through_the_traced_verdict(lex, monkeypatch):
    calls = []
    original = odgrammar.engine.iter_structure_violations

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(odgrammar.engine, "iter_structure_violations", counting)
    validated = "realized structures validated: "
    parsed = parse(KEY_SENTENCE.split(), lex)
    assert validated + str(len(calls)) in parsed.diagnostics
    assert len(calls) == 1
    calls.clear()
    generated = generate(parsed.structures[0].tree, lex)
    assert validated + str(len(calls)) in generated.diagnostics
    assert len(calls) == 6
