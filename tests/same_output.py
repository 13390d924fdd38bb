"""Does this checkout's library give the same output as another checkout's?

The script runs this checkout's ``tests/output_snapshot.py`` and
``tests/cli_snapshot.py`` twice each: once with the other checkout's
``src`` on ``PYTHONPATH`` and once with this checkout's.  So both sides are
judged by the same inputs and the same digests; only the library differs.
For each script it prints whether the two outputs are the same and, if not,
the first line that differs, with its line number and both sides' text.
It exits 1 when any output differs or any run fails, else 0.

Run it from anywhere, naming the other checkout's root:

    python tests/same_output.py OTHER_CHECKOUT

Each script takes some seconds per side.  pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("tests/output_snapshot.py", "tests/cli_snapshot.py")


def run(script: str, src: Path) -> list[str] | None:
    """The script's output lines with ``src`` on ``PYTHONPATH``, or None
    if it failed, after printing its error output."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, str(ROOT / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        print(f"{script} with {src} exited {done.returncode}:\n{done.stderr}")
        return None
    return done.stdout.splitlines()


def first_difference(a: list[str], b: list[str]) -> tuple[int, str, str] | None:
    """The first line number where ``a`` and ``b`` differ, with both lines,
    a missing line shown as ``<no line>``; None when they are equal."""
    for i, pair in enumerate(zip_longest(a, b, fillvalue="<no line>"), 1):
        if pair[0] != pair[1]:
            return (i, *pair)
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="root of the checkout to compare with")
    args = ap.parse_args(argv)
    other_src = args.other.resolve() / "src"
    if not (other_src / "odgrammar").is_dir():
        ap.error(f"{other_src} holds no odgrammar package")
    same = True
    for script in SCRIPTS:
        theirs, ours = run(script, other_src), run(script, ROOT / "src")
        if theirs is None or ours is None:
            same = False
            continue
        diff = first_difference(theirs, ours)
        if diff is None:
            print(f"{script}: same ({len(ours)} lines)")
            continue
        same = False
        line, other, this = diff
        print(f"{script}: line {line} differs")
        print(f"  other: {other}")
        print(f"  this:  {this}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
