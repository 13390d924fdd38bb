"""Randomized cross-checks of the validators, serialization, and tokenizer.

The heavyweight comparison here is validator agreement: the library's
verdict against the independent re-implementation in harness.py, over
seeded random structures.  The acceptance suite runs the frozen-seed
variant of the same trial; this module uses different seeds and smaller
counts to widen coverage without repeating that work.  A guard keeps
harness.py from importing the library internals it re-implements.
"""

import ast
import contextlib
import io
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odgrammar import (
    DependencyStructure,
    DependencyTree,
    OrderDomainStructure,
    SerializationError,
    StructureError,
    ValidationReport,
    check_extraction,
    load_lexicon,
    parse,
    parse_structure_json,
    parse_structure_text,
    reference_lexicon_text,
    render_structure_json,
    render_structure_text,
    render_tree_text,
    structure_is_valid,
    validate_structure,
)
from odgrammar.cli import main, tokenize
from odgrammar.core import StructureIndex, iter_ods_violations, iter_tree_violations
from odgrammar.validate import iter_structure_violations

from corpus import NOUN_ROOT_LEXICON, SENTENCES
from harness import (
    StructureSampler,
    grammatical_bases,
    independent_verdict,
    run_agreement_trial,
)
from output_snapshot import check_calls
from test_constraints import bad_mittelfeld, fronted_participle


class TestValidatorAgreement:
    def test_random_instances(self, lex):
        stats = run_agreement_trial(3000, seed=97, bases=grammatical_bases())
        assert stats["compared"] == 3000
        assert stats["mismatches"] == []
        assert stats["valid"] >= 300
        assert stats["invalid"] >= 1500

    def test_small_lexicon_instances(self):
        nlex = load_lexicon(NOUN_ROOT_LEXICON)
        bases = (
            parse(["der", "Junge"], nlex).structures
            + parse(["Junge"], nlex).structures
        )
        assert len(bases) == 2
        stats = run_agreement_trial(1500, seed=13, lex=nlex, bases=bases)
        assert stats["compared"] == 1500
        assert stats["mismatches"] == []
        assert stats["valid"] >= 150

    def test_known_fixtures(self, lex, key_structure):
        cases = [
            (key_structure, True),
            (fronted_participle(lex), True),
            (bad_mittelfeld(lex), False),
            (
                DependencyStructure(
                    tree=DependencyTree((), 0, (), {}),
                    features={},
                    domains=OrderDomainStructure((), {}),
                    positional={},
                ),
                False,
            ),
        ]
        for ds, expected in cases:
            assert structure_is_valid(ds, lex) is expected
            assert independent_verdict(ds, lex) is expected


class TestHarnessIndependence:
    # what the harness must decide validity without
    INTERNALS = {
        "StructureIndex",
        "ancestor_chain",
        "close_word",
        "dependency_cycle",
        "derived_member_sets",
    }

    def test_harness_imports_no_internals(self):
        tree = ast.parse((Path(__file__).parent / "harness.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
                imported.add(node.module or "")
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert "odgrammar" in imported
        leaked = {
            name
            for name in imported
            for part in name.split(".")
            if part in self.INTERNALS
            or (part.startswith("iter_") and part.endswith("_violations"))
        }
        assert leaked == set()


# Line-level edits of a serialized structure: drop, copy or swap lines, or
# change, drop or rename one field of a line.
_FIELD_VALUES = ["0", "2", "5", "6", "-1", "x", "-", "top", "d2.1", "d0.0", "case=nom"]
_EDIT = st.tuples(
    st.sampled_from(["delete", "duplicate", "swap", "field", "drop-field", "keyword"]),
    st.integers(0, 63),
    st.integers(0, 63),
    st.sampled_from(_FIELD_VALUES),
    st.sampled_from(["token", "root", "edge", "domain", "assoc", "positional", "x"]),
)


def edit_lines(text, edits):
    lines = text.splitlines()
    for op, i, j, value, keyword in edits:
        if not lines:
            break
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j % (len(lines) + 1), lines[i])
        elif op == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif lines[i]:
            fields = lines[i].split()
            j %= len(fields)
            if op == "field":
                fields[j] = value
            elif op == "drop-field":
                del fields[j]
            else:
                fields[0] = keyword
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


class TestEditedStructureText:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(edits=st.lists(_EDIT, min_size=1, max_size=3))
    def test_edits_end_in_report_or_error(self, lex, key_structure, edits):
        text = edit_lines(render_structure_text(key_structure, lex), edits)
        try:
            ds = parse_structure_text(text, lex)
        except SerializationError:
            pass
        else:
            assert isinstance(validate_structure(ds, lex), ValidationReport)
            # each public lexical check, on every constraint of each word's
            # entry and on every valency slot of the key tree against each
            # word as the dependent, raises StructureError exactly when a
            # layer stage or the linking fails (the lexicon's inventories
            # aside), or when asked for the root's extraction; otherwise it
            # ends in a report
            unlinked = bool(
                next(iter_tree_violations(ds.tree), None)
                or next(iter_ods_violations(ds.domains, ds.tree.n), None)
                or StructureIndex(ds).problems
            )
            slots = [s for w in key_structure.tree.words for s in w.entry.valency]
            for check, constraint, w in check_calls(ds, slots):
                root = check is check_extraction and w == ds.tree.root
                try:
                    report = check(constraint, w, ds)
                except StructureError:
                    assert unlinked or root, (check.__name__, w)
                    continue
                assert not (unlinked or root), (check.__name__, w)
                assert isinstance(report, ValidationReport)

        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            code = run_quietly(["validate", "--format", "machine"])
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2)


# Line-level edits of a lexicon: the same operations as above, with values
# and statement keywords of the lexicon format.
_LEXICON_EDIT = st.tuples(
    st.sampled_from(["delete", "duplicate", "swap", "field", "drop-field", "keyword"]),
    st.integers(0, 127),
    st.integers(0, 127),
    st.sampled_from([
        "{", "}", ";", "{};", "[d]", "[]", "self=d", "self=x", "class=N",
        "case=nom", "x", "=", "<", ">", "*", "in", "after", "<subj>", "<>",
        "required", "extract", "{vpart}", '"hat"', '""', "0", "-1", "99",
    ]),
    st.sampled_from([
        "dtypes:", "classes:", "attr", "root:", "entry", "slot", "domains",
        "card", "feat", "order", "}", "#",
    ]),
)


# Token edits of a sentence: drop, duplicate or swap tokens.
_TOKEN_EDIT = st.tuples(
    st.sampled_from(["drop", "duplicate", "swap"]),
    st.integers(0, 15),
    st.integers(0, 15),
)


def edit_tokens(tokens, edits):
    tokens = list(tokens)
    for op, i, j in edits:
        if not tokens:
            break
        i, j = i % len(tokens), j % len(tokens)
        if op == "drop":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return tokens


class TestCommandLineFuzz:
    """Edited and arbitrary inputs end in an exit code, never an exception."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli-fuzz")

    @pytest.fixture(scope="class")
    def noun_tree(self, workdir):
        """The tree text of ``der Junge`` and the options naming its lexicon."""
        nlex = load_lexicon(NOUN_ROOT_LEXICON)
        (noun,) = parse(["der", "Junge"], nlex).structures
        path = workdir / "noun.lex"
        path.write_text(NOUN_ROOT_LEXICON)
        return render_tree_text(noun.tree, nlex), ["--lexicon", str(path)]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(edits=st.lists(_EDIT, min_size=1, max_size=3))
    def test_edited_tree_through_generate(self, lex, key_structure, workdir, edits):
        path = workdir / "tree.txt"
        path.write_text(edit_lines(render_tree_text(key_structure.tree, lex), edits))
        argv = ["generate", "--file", str(path), "--max-candidates", "20000"]
        assert run_quietly(argv) in (0, 1, 2, 3)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(edits=st.lists(_LEXICON_EDIT, min_size=1, max_size=3))
    def test_edited_lexicon_through_check_lexicon(self, workdir, edits):
        path = workdir / "edited.lex"
        path.write_text(edit_lines(reference_lexicon_text(), edits))
        assert run_quietly(["check-lexicon", "--lexicon", str(path)]) in (0, 1, 2, 3)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        sentence=st.sampled_from([s for s, _ in SENTENCES]),
        edits=st.lists(_TOKEN_EDIT, min_size=1, max_size=3),
    )
    def test_edited_sentence_through_parse(self, workdir, sentence, edits):
        path = workdir / "sentence.txt"
        path.write_text(" ".join(edit_tokens(sentence.split(), edits)))
        argv = ["parse", "--file", str(path), "--max-candidates", "20000"]
        assert run_quietly(argv) in (0, 1, 2, 3)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        sentence=st.sampled_from([s for s, _ in SENTENCES]),
        edits=st.lists(_TOKEN_EDIT, min_size=1, max_size=4),
        diff=st.booleans(),
    )
    def test_edited_sentence_through_oracle(self, workdir, sentence, edits, diff):
        path = workdir / "sentence.txt"
        path.write_text(" ".join(edit_tokens(sentence.split(), edits)))
        argv = ["oracle", "--file", str(path), "--max-tokens", "4"]
        assert run_quietly(argv + ["--diff"] * diff) in (0, 1, 2, 3)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        base=st.sampled_from(["key", "noun"]),
        edits=st.lists(_EDIT, min_size=1, max_size=3),
        diff=st.booleans(),
    )
    def test_edited_tree_through_oracle(
        self, lex, key_structure, workdir, noun_tree, base, edits, diff
    ):
        # the noun-rooted tree has two words, so most of its edits stay
        # under the oracle's limit; the key tree's mostly exceed it
        if base == "key":
            text, lexicon = render_tree_text(key_structure.tree, lex), []
        else:
            text, lexicon = noun_tree
        path = workdir / "tree.txt"
        path.write_text(edit_lines(text, edits))
        argv = ["oracle", "--orders", "--file", str(path), "--max-tokens", "4"]
        argv += lexicon
        assert run_quietly(argv + ["--diff"] * diff) in (0, 1, 2, 3)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.binary(max_size=64), command=st.sampled_from(["parse", "validate"]))
    def test_bytes_through_file_input(self, workdir, data, command):
        path = workdir / "input.bin"
        path.write_bytes(data)
        assert run_quietly([command, "--file", str(path)]) in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def realizations(lex):
    sampler = StructureSampler(seed=5, lex=lex)
    out = []
    while len(out) < 250:
        ds = sampler.random_realization()
        if ds is not None:
            out.append(ds)
    return out


class TestSerializationRoundTrip:
    def test_text_round_trip(self, lex, realizations):
        for ds in realizations:
            assert parse_structure_text(render_structure_text(ds, lex), lex) == ds

    def test_json_round_trip(self, lex, realizations):
        for ds in realizations:
            assert parse_structure_json(render_structure_json(ds, lex), lex) == ds


def first_finding_agrees(ds, lex):
    """The lazy first finding is the full report's first; returns its condition."""
    report = validate_structure(ds, lex)
    first = next(iter_structure_violations(ds, lex), None)
    assert first == (report.violations[0] if report.violations else None)
    assert structure_is_valid(ds, lex) == report.ok
    return None if first is None else first.condition


class TestVerdictConsistency:
    def test_shortcut_equals_full_report(self, lex):
        sampler = StructureSampler(seed=31, lex=lex, bases=grammatical_bases())
        for _ in range(400):
            ds = sampler.next_instance()
            if ds is None:
                continue
            assert structure_is_valid(ds, lex) == validate_structure(ds, lex).ok

    def test_first_finding_is_first_of_full_report(self, lex):
        sampler = StructureSampler(seed=41, lex=lex, bases=grammatical_bases())
        firsts = Counter()
        while sum(firsts.values()) < 2000:
            ds = sampler.next_instance()
            if ds is not None:
                firsts[first_finding_agrees(ds, lex)] += 1
        # every stage leads somewhere in the sample: valid structures, tree,
        # domain, linking, conditions and lexical findings
        for condition in (None, "tree.no-head", "ods.contiguity", "ods.hierarchy",
                          "ds.insertion", "ds.cond4", "lex.slot-required"):
            assert firsts[condition] > 0, condition

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(edits=st.lists(_EDIT, min_size=1, max_size=3))
    def test_first_finding_on_edited_key_structure(self, lex, key_structure, edits):
        text = edit_lines(render_structure_text(key_structure, lex), edits)
        try:
            ds = parse_structure_text(text, lex)
        except SerializationError:
            return
        first_finding_agrees(ds, lex)


class TestTokenizeProperties:
    def test_period_handling_is_uniform(self):
        rng = random.Random(8)
        letters = "abcdefgh"
        for _ in range(300):
            toks = [
                "".join(rng.choice(letters) for _ in range(rng.randint(1, 5)))
                for _ in range(rng.randint(1, 6))
            ]
            plain = " ".join(toks)
            assert tokenize(plain) == toks
            assert tokenize(plain + " .") == toks
            assert tokenize(plain + ".") == toks

    def test_whitespace_runs_are_collapsed(self):
        rng = random.Random(9)
        for _ in range(100):
            toks = ["w%d" % i for i in range(rng.randint(1, 5))]
            sep = lambda: rng.choice([" ", "  ", "\t", " \t ", "\n"])
            text = sep().join(toks) + rng.choice(["", " ", "\n"])
            assert tokenize(text) == toks
