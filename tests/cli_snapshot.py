"""Byte snapshot of the command line over a fixed list of commands.

Each command runs as ``python -m odgrammar ...`` in a fresh temporary
directory holding the input files it names, with empty stdin.  The script
prints one line per command: the argv, the exit code, and the SHA-256 of
stdout and of stderr.  The list reaches every subcommand and every branch
a correct engine can reach, in both formats, with exit codes 0, 1, 2 and 3;
the "engine and oracle disagree" branch needs a broken engine and is pinned
by ``tests/test_cli.py`` instead.  No command passes ``--timing``, whose
output varies from run to run.

To show that a change leaves the command line's bytes unchanged, run the
script on both checkouts and compare:

    PYTHONPATH=<checkout>/src python tests/cli_snapshot.py > snap.txt

pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from corpus import CONTRADICTORY_LEXICON, KEY_SENTENCE, NOUN_ROOT_LEXICON  # noqa: E402
from oracle_net import GENITIVE_LEXICON  # noqa: E402

KEY_TREE = """\
token 0 den 0 Det
token 1 Mann 1 N
token 2 hat 0 Vfin
token 3 der 0 Det
token 4 Junge 0 N
token 5 gesehen 0 Vpart
root 2
edge 1 det 0
edge 5 obj 1
edge 4 det 3
edge 2 subj 4
edge 2 vpart 5
"""

KEY_STRUCTURE = """\
token 0 den 0 Det case=acc
token 1 Mann 1 N case=acc
token 2 hat 0 Vfin
token 3 der 0 Det case=nom
token 4 Junge 0 N case=nom
token 5 gesehen 0 Vpart
root 2
edge 1 det 0
edge 5 obj 1
edge 4 det 3
edge 2 subj 4
edge 2 vpart 5
domain d0.0 0
domain d1.0 0 1
domain d2.0 0 1
domain d2.1 2 3 4 5
domain d3.0 3
domain d4.0 3 4
domain d5.0 5
domain top 0 1 2 3 4 5
assoc 0 d0.0
assoc 1 d1.0
assoc 2 d2.0 d2.1 -
assoc 3 d3.0
assoc 4 d4.0
assoc 5 d5.0
positional 0 1
positional 1 2
positional 3 4
positional 4 2
positional 5 2
"""

FILES = {
    "key.tree": KEY_TREE,
    "key.ds": KEY_STRUCTURE,
    # the determiner hosted by the verb: an extraction its slot forbids
    "bad.ds": KEY_STRUCTURE.replace("positional 0 1", "positional 0 2"),
    "junk.txt": "banana banana\n",
    "root.txt": "root\n",
    "sentence.txt": KEY_SENTENCE + ".\n",
    "noun.lex": NOUN_ROOT_LEXICON,
    "noun.tree": "token 0 der 0 Det\ntoken 1 Junge 0 N\nroot 1\nedge 1 det 0\n",
    "contra.lex": CONTRADICTORY_LEXICON,
    "contra.tree": "token 0 a 0 A\ntoken 1 b 0 B\nroot 0\nedge 0 x 1\n",
    "broken.lex": "dtypes: x x\n",
    "genitive.lex": GENITIVE_LEXICON.read_text(encoding="utf-8"),
    # 1,006 tokens: a search deeper than the interpreter's recursion limit
    "long.txt": "der Junge hat den Mann" + " des Mannes" * 500 + " gesehen\n",
}

REJECTED = "hat der Junge den Mann gesehen"
NOUN = ("--lexicon", "noun.lex")
CONTRA = ("--lexicon", "contra.lex")

# each runs as given and again with --format machine
BOTH: list[tuple[str, ...]] = [
    ("parse", KEY_SENTENCE),
    ("parse", REJECTED),
    ("parse", "der Hund schläft"),
    ("parse", KEY_SENTENCE, "--max-candidates", "5"),
    ("parse", "--file", "sentence.txt"),
    ("parse", "der", "--lexicon", "broken.lex"),
    ("generate", "--file", "key.tree"),
    ("generate", "--file", "contra.tree", *CONTRA),
    ("generate", "--file", "junk.txt"),
    ("generate", "--file", "key.tree", "--max-candidates", "5"),
    ("generate", "--file", "noun.tree", *NOUN),
    ("validate", "--file", "key.ds"),
    ("validate", "--file", "bad.ds"),
    ("validate", "--file", "junk.txt"),
    ("oracle", KEY_SENTENCE),
    ("oracle", REJECTED),
    ("oracle", KEY_SENTENCE, "--diff"),
    ("oracle", "hat " * 8),
    ("oracle", "--orders", "--file", "noun.tree", *NOUN),
    ("oracle", "--orders", "--diff", "--file", "noun.tree", *NOUN),
    ("oracle", "--orders", "--file", "contra.tree", *CONTRA),
    ("check-lexicon",),
    ("check-lexicon", *NOUN),
    ("check-lexicon", "--lexicon", "broken.lex"),
    ("check-lexicon", "--lexicon", "nope.lex"),
]

# argument errors, stdin input and the remaining human-format branches
HUMAN_ONLY: list[tuple[str, ...]] = [
    ("parse", KEY_SENTENCE + "."),
    ("parse",),
    ("parse", KEY_SENTENCE, "--no-prune"),
    ("parse", "--help"),
    ("generate",),
    ("generate", "--file", "key.tree", "--surfaces-only"),
    ("generate", "--file", "nope.tree"),
    ("validate",),
    ("validate", "--file", "root.txt"),
    ("oracle",),
    ("oracle", REJECTED, "--diff"),
    ("oracle", "--orders", "--diff", "--file", "contra.tree", *CONTRA),
    ("oracle", KEY_SENTENCE, "--max-tokens", "3"),
    ("oracle", "der Hund"),
    ("oracle", "--orders", "--file", "junk.txt"),
    (),
    ("parse", "--file", "long.txt", "--lexicon", "genitive.lex", "--max-candidates", "1100"),
]

# (argv, extra environment)
ENV_COMMANDS: list[tuple[tuple[str, ...], dict[str, str]]] = [
    (("parse", "der Junge"), {"ODGRAMMAR_LEXICON": "noun.lex"}),
    (("check-lexicon", "--format", "machine"), {"ODGRAMMAR_LEXICON": "noun.lex"}),
    (("check-lexicon",), {"ODGRAMMAR_LEXICON": "broken.lex"}),
    (("check-lexicon",), {"ODGRAMMAR_LEXICON": "nope.lex"}),
]


def commands() -> list[tuple[tuple[str, ...], dict[str, str]]]:
    out = []
    for argv in BOTH:
        out.append((argv, {}))
        out.append(((*argv, "--format", "machine"), {}))
    out.extend((argv, {}) for argv in HUMAN_ONLY)
    out.extend(ENV_COMMANDS)
    return out


def snapshot_line(argv, extra_env, cwd) -> str:
    env = {k: v for k, v in os.environ.items() if k != "ODGRAMMAR_LEXICON"}
    env.update(extra_env)
    # the commands run in a temporary directory: make relative entries absolute
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-m", "odgrammar", *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        cwd=cwd,
        env=env,
    )
    shown = [f"{k}={v}" for k, v in extra_env.items()] + ["odgrammar"]
    shown += [repr(a) if " " in a or not a else a for a in argv]
    return "\t".join([
        " ".join(shown),
        f"exit={proc.returncode}",
        f"out={hashlib.sha256(proc.stdout).hexdigest()}",
        f"err={hashlib.sha256(proc.stderr).hexdigest()}",
    ])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for argv, extra_env in commands():
            print(snapshot_line(argv, extra_env, tmp), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
