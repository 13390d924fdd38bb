"""Command line behavior: subcommands, formats, exit codes."""

import json
import os
import re
import subprocess
import sys

import pytest

from odgrammar import render_structure_text, render_tree_text
from odgrammar.cli import main, tokenize

from corpus import (
    CONTRADICTORY_LEXICON,
    KEY_SENTENCE,
    KEY_TREE_ORDERS,
    NOUN_ROOT_LEXICON,
)
from oracle_net import GENITIVE_LEXICON, genitive_tree_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTokenize:
    def test_plain(self):
        assert tokenize("der Junge") == ["der", "Junge"]

    def test_attached_period(self):
        assert tokenize("der Junge kam.") == ["der", "Junge", "kam"]

    def test_separate_period(self):
        assert tokenize("der Junge kam .") == ["der", "Junge", "kam"]

    def test_only_final_period(self):
        assert tokenize("a. b") == ["a.", "b"]

    def test_empty(self):
        assert tokenize("   ") == []


class TestParseCommand:
    def test_accepted(self, capsys):
        code, out, _ = run(capsys, "parse", KEY_SENTENCE + ".")
        assert code == 0
        assert "1 structure(s)." in out

    def test_rejected(self, capsys):
        code, out, _ = run(capsys, "parse", "hat der Junge den Mann gesehen")
        assert code == 1
        assert "no structures." in out
        assert "rejections" in out

    def test_unknown_token(self, capsys):
        code, _, err = run(capsys, "parse", "der Hund schläft")
        assert code == 2
        assert "Hund" in err

    def test_no_prune_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parse", KEY_SENTENCE, "--no-prune"])
        assert exc.value.code == 2
        assert "--no-prune" in capsys.readouterr().err

    def test_machine_format(self, capsys):
        code, out, _ = run(capsys, "parse", KEY_SENTENCE, "--format", "machine")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert len(payload["structures"]) == 1
        assert "seconds" not in payload

    def test_machine_bytes_stable(self, capsys):
        _, first, _ = run(capsys, "parse", KEY_SENTENCE, "--format", "machine")
        _, second, _ = run(capsys, "parse", KEY_SENTENCE, "--format", "machine")
        assert first == second

    def test_timing_opt_in(self, capsys):
        code, out, _ = run(
            capsys, "parse", KEY_SENTENCE, "--format", "machine", "--timing"
        )
        assert code == 0
        assert "seconds" in json.loads(out)

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(KEY_SENTENCE + "\n"))
        code, out, _ = run(capsys, "parse")
        assert code == 0

    def test_resource_cap(self, capsys):
        code, _, err = run(capsys, "parse", KEY_SENTENCE, "--max-candidates", "5")
        assert code == 3
        assert "budget" in err

    def test_long_sentence_meets_the_budget(self, capsys):
        # 1,006 tokens: a head-map search deeper than the recursion limit
        sentence = "der Junge hat den Mann" + " des Mannes" * 500 + " gesehen"
        code, out, err = run(
            capsys, "parse", sentence,
            "--lexicon", str(GENITIVE_LEXICON), "--max-candidates", "1100",
        )
        assert code == 3
        assert out == ""
        assert err == "error: candidate budget of 1100 exhausted\n"


class TestGenerateCommand:
    @pytest.fixture()
    def tree_file(self, tmp_path, lex, key_structure):
        path = tmp_path / "tree.txt"
        path.write_text(render_tree_text(key_structure.tree, lex))
        return str(path)

    def test_generate(self, capsys, tree_file):
        code, out, _ = run(capsys, "generate", "--file", tree_file)
        assert code == 0
        assert "6 realization(s), 5 order(s)." in out

    def test_surfaces_only(self, capsys, tree_file):
        code, out, _ = run(
            capsys, "generate", "--file", tree_file, "--surfaces-only"
        )
        assert code == 0
        for surface in KEY_TREE_ORDERS:
            assert surface in out

    def test_machine(self, capsys, tree_file):
        code, out, _ = run(
            capsys, "generate", "--file", tree_file, "--format", "machine"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["surfaces"] == list(KEY_TREE_ORDERS)

    def test_deep_order_meets_the_budget(self, tmp_path):
        # 306 words whose first order nests 150 noun domains; budget 1,369
        # draws that order, which is flattened under a recursion limit of
        # 120, and the next tick ends the search
        path = tmp_path / "tree.txt"
        path.write_text(genitive_tree_text(150))
        script = (
            "import sys\n"
            "from odgrammar.cli import main\n"
            "sys.setrecursionlimit(120)\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "generate", "--file", str(path),
             "--lexicon", str(GENITIVE_LEXICON), "--max-candidates", "1369"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "error: candidate budget of 1369 exhausted\n"


class TestValidateCommand:
    def test_valid(self, capsys, tmp_path, lex, key_structure):
        path = tmp_path / "ds.txt"
        path.write_text(render_structure_text(key_structure, lex))
        code, out, _ = run(capsys, "validate", "--file", str(path))
        assert code == 0
        assert "valid." in out

    def test_invalid(self, capsys, tmp_path, lex, key_structure):
        import dataclasses

        bad = dataclasses.replace(
            key_structure, positional={**key_structure.positional, 0: 2}
        )
        path = tmp_path / "bad.txt"
        path.write_text(render_structure_text(bad, lex))
        code, out, _ = run(capsys, "validate", "--file", str(path))
        assert code == 1
        assert "extract.path" in out

    def test_empty_domain(self, capsys, tmp_path, lex, key_structure):
        # a domain line with no member field is an empty domain
        path = tmp_path / "empty.txt"
        path.write_text(render_structure_text(key_structure, lex) + "domain dx\n")
        code, out, _ = run(capsys, "validate", "--file", str(path))
        assert code == 1
        assert "ods.empty" in out

    def test_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("banana banana\n")
        code, _, err = run(capsys, "validate", "--file", str(path))
        assert code == 2

    def test_bare_root_line(self, capsys, tmp_path):
        path = tmp_path / "root.txt"
        path.write_text("root\n")
        code, _, err = run(capsys, "validate", "--file", str(path))
        assert code == 2
        assert "root" in err


class TestOracleCommand:
    @pytest.fixture()
    def noun_setup(self, tmp_path):
        """Tiny determiner-noun tree plus its lexicon, both on disk."""
        from odgrammar import (
            DependencyEdge,
            DependencyTree,
            WordToken,
            entries_for,
            load_lexicon,
        )

        lex_path = tmp_path / "noun.lex"
        lex_path.write_text(NOUN_ROOT_LEXICON)
        nlex = load_lexicon(NOUN_ROOT_LEXICON)
        det = entries_for("der", nlex)[0]
        noun = entries_for("Junge", nlex)[0]
        tree = DependencyTree(
            (WordToken(0, "der", det), WordToken(1, "Junge", noun)),
            1,
            (DependencyEdge(1, 0, "det"),),
            {0: "Det", 1: "N"},
        )
        tree_path = tmp_path / "tree.txt"
        tree_path.write_text(render_tree_text(tree, nlex))
        return str(lex_path), str(tree_path)

    def test_diff_agrees(self, capsys):
        code, out, _ = run(capsys, "oracle", KEY_SENTENCE, "--diff")
        assert code == 0
        assert "agree" in out

    def test_orders_diff(self, capsys, noun_setup):
        lex_path, tree_path = noun_setup
        code, out, _ = run(
            capsys,
            "oracle",
            "--orders",
            "--diff",
            "--file",
            tree_path,
            "--lexicon",
            lex_path,
        )
        assert code == 0
        assert "agree" in out

    def test_orders_diff_compares_structures(self, capsys, noun_setup, monkeypatch):
        # an engine that finds the right surface through a wrong structure
        # must not agree with the oracle
        import dataclasses

        from odgrammar import engine

        real_generate = engine.generate

        def wrong_generate(tree, lex, **kwargs):
            result = real_generate(tree, lex, **kwargs)
            pairs = tuple(
                (surface, dataclasses.replace(ds, positional={}))
                for surface, ds in result.pairs
            )
            return dataclasses.replace(result, pairs=pairs)

        monkeypatch.setattr(engine, "generate", wrong_generate)
        lex_path, tree_path = noun_setup
        code, out, _ = run(
            capsys,
            "oracle",
            "--orders",
            "--diff",
            "--file",
            tree_path,
            "--lexicon",
            lex_path,
            "--format",
            "machine",
        )
        report = json.loads(out)
        assert code == 1
        assert report["status"] == "differ"
        assert (report["engine_count"], report["oracle_count"]) == (1, 1)
        for side in ("only_engine", "only_oracle"):
            [item] = report[side]
            assert item.startswith("der Junge\ntoken 0 der 0 Det\n")
        assert "positional 0 1" in report["only_oracle"][0]
        assert "positional" not in report["only_engine"][0]

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_sentence(self, capsys, tmp_path, fmt):
        from odgrammar import load_lexicon, oracle_parse
        from odgrammar.serialize import structure_obj

        lex_path = tmp_path / "noun.lex"
        lex_path.write_text(NOUN_ROOT_LEXICON)
        nlex = load_lexicon(NOUN_ROOT_LEXICON)
        expected = oracle_parse(["der", "Junge"], nlex)
        assert len(expected) == 1
        code, out, _ = run(
            capsys, "oracle", "der Junge", "--lexicon", str(lex_path), "--format", fmt
        )
        assert code == 0
        if fmt == "human":
            assert out.splitlines()[0] == "1 structure(s)."
            assert render_structure_text(expected[0], nlex) in out
        else:
            report = json.loads(out)
            assert report["status"] == "ok"
            assert report["structures"] == [structure_obj(ds, nlex) for ds in expected]

    def test_token_limit(self, capsys):
        code, _, err = run(capsys, "oracle", "hat " * 8)
        assert code == 3
        assert "limit" in err

    def test_machine_orders(self, capsys, noun_setup):
        lex_path, tree_path = noun_setup
        code, out, _ = run(
            capsys,
            "oracle",
            "--orders",
            "--file",
            tree_path,
            "--lexicon",
            lex_path,
            "--format",
            "machine",
        )
        assert code == 0
        assert json.loads(out)["orders"] == ["der Junge"]


class TestLexiconHandling:
    def test_check_lexicon(self, capsys):
        code, out, _ = run(capsys, "check-lexicon")
        assert code == 0
        assert "8 entries" in out

    def test_lexicon_flag(self, capsys, tmp_path):
        path = tmp_path / "noun.lex"
        path.write_text(NOUN_ROOT_LEXICON)
        code, out, _ = run(capsys, "check-lexicon", "--lexicon", str(path))
        assert code == 0
        assert "2 entries" in out

    def test_env_variable(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "noun.lex"
        path.write_text(NOUN_ROOT_LEXICON)
        monkeypatch.setenv("ODGRAMMAR_LEXICON", str(path))
        code, out, _ = run(capsys, "parse", "der Junge")
        assert code == 0

    def test_invalid_lexicon(self, capsys, tmp_path):
        path = tmp_path / "broken.lex"
        path.write_text("dtypes: x x\n")
        code, out, _ = run(capsys, "check-lexicon", "--lexicon", str(path))
        assert code == 1
        assert "invalid lexicon" in out

    def test_invalid_lexicon_other_command(self, capsys, tmp_path):
        path = tmp_path / "broken.lex"
        path.write_text("dtypes: x x\n")
        code, _, err = run(capsys, "parse", "der", "--lexicon", str(path))
        assert code == 2

    def test_missing_lexicon_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "check-lexicon", "--lexicon", str(tmp_path / "nope.lex")
        )
        assert code == 2


# bytes that are not UTF-8: a UTF-16 byte order mark
NOT_UTF8 = b"\xff\xfe"


def assert_one_error_line(code, out, err, naming):
    """Exit 2, nothing on stdout, and one error line naming the culprit."""
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ")
    assert naming in line


class TestUndecodableInput:
    @pytest.mark.parametrize("command", ["parse", "generate", "validate", "oracle"])
    def test_input_file(self, capsys, tmp_path, command):
        path = tmp_path / "input.txt"
        path.write_bytes(NOT_UTF8)
        result = run(capsys, command, "--file", str(path))
        assert_one_error_line(*result, naming=str(path))

    def test_lexicon_flag(self, capsys, tmp_path):
        path = tmp_path / "lexicon.lex"
        path.write_bytes(NOT_UTF8)
        result = run(capsys, "check-lexicon", "--lexicon", str(path))
        assert_one_error_line(*result, naming=str(path))

    def test_env_variable(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "lexicon.lex"
        path.write_bytes(NOT_UTF8)
        monkeypatch.setenv("ODGRAMMAR_LEXICON", str(path))
        result = run(capsys, "parse", "der Junge")
        assert_one_error_line(*result, naming=str(path))

    def test_input_and_lexicon_name_the_bad_one(self, capsys, tmp_path):
        good, bad = tmp_path / "ok.txt", tmp_path / "bad.lex"
        good.write_text("der Junge\n")
        bad.write_bytes(NOT_UTF8)
        result = run(capsys, "parse", "--file", str(good), "--lexicon", str(bad))
        assert_one_error_line(*result, naming=str(bad))
        assert str(good) not in result[2]


class TestClosedOutput:
    def test_closed_pipe_exits_2_with_one_error_line(self):
        # the read end is closed before the child writes; without
        # PYTHONUNBUFFERED the write fails only when stdout is flushed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "odgrammar", "check-lexicon"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ")


class TestTiming:
    """--timing adds the elapsed time to every subcommand's output."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch, lex, key_structure):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tree.txt").write_text(render_tree_text(key_structure.tree, lex))
        (tmp_path / "ds.txt").write_text(render_structure_text(key_structure, lex))
        (tmp_path / "contra.lex").write_text(CONTRADICTORY_LEXICON)
        (tmp_path / "contra.txt").write_text(
            "token 0 a 0 A\ntoken 1 b 0 B\nroot 0\nedge 0 x 1\n"
        )
        (tmp_path / "broken.lex").write_text("dtypes: x x\n")

    COMMANDS = {
        "parse": ("parse", KEY_SENTENCE),
        "parse-empty": ("parse", "hat der Junge den Mann gesehen"),
        "generate": ("generate", "--file", "tree.txt"),
        "generate-empty": (
            "generate", "--file", "contra.txt", "--lexicon", "contra.lex"
        ),
        "validate": ("validate", "--file", "ds.txt"),
        "oracle": ("oracle", "der Junge hat gesehen"),
        "oracle-orders": (
            "oracle", "--orders", "--file", "contra.txt", "--lexicon", "contra.lex"
        ),
        "oracle-diff": ("oracle", "der Junge hat gesehen", "--diff"),
        "check-lexicon": ("check-lexicon",),
        "check-lexicon-invalid": ("check-lexicon", "--lexicon", "broken.lex"),
    }

    @pytest.mark.parametrize("name", COMMANDS)
    def test_human_ends_with_elapsed(self, capsys, name):
        argv = self.COMMANDS[name]
        code, out, _ = run(capsys, *argv, "--timing")
        _, plain, _ = run(capsys, *argv)
        assert code in (0, 1)
        assert re.fullmatch(r"elapsed: \d+\.\d{3}s", out.splitlines()[-1])
        assert out.splitlines()[:-1] == plain.splitlines()

    @pytest.mark.parametrize("name", COMMANDS)
    def test_machine_has_seconds(self, capsys, name):
        argv = self.COMMANDS[name]
        code, out, _ = run(capsys, *argv, "--format", "machine", "--timing")
        _, plain, _ = run(capsys, *argv, "--format", "machine")
        assert code in (0, 1)
        payload = json.loads(out)
        # every subcommand loads a lexicon inside the timed span
        assert payload.pop("seconds") > 0
        assert payload == json.loads(plain)


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "odgrammar", "parse", KEY_SENTENCE],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "1 structure(s)." in proc.stdout

    def test_console_script(self):
        proc = subprocess.run(
            ["odgrammar", "check-lexicon"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "lexicon ok" in proc.stdout
