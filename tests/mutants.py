"""Named mutants of the library, and the fast tests expected to kill them.

Each entry of ``MUTANTS`` names a file under ``src/``, an exact text that
occurs once in it, the text that replaces it, and the tests expected to
kill the result: every one of them must fail on the mutant.  For each
mutant the script copies ``src/`` to a temporary directory, applies the
edit to the copy and runs the named tests against it with pytest, the
copy first on ``PYTHONPATH``.  It prints one line per mutant, killed or
survived, and exits 1 if an expected kill survives.  A test that failed on
the unmutated copy would kill nothing, so the named tests first run once
on a plain copy, which they must pass.

``EQUIVALENT`` lists mutants that change no answer, each with the reason;
they are not run, since no test can kill them.  `test_mutants.py` checks
in Tier-1 that every old text of both tables still occurs exactly once
and that every named test still exists, so the table cannot rot silently.

Run from the repository root, for all mutants or the named ones:

    PYTHONPATH=src python tests/mutants.py [NAME ...]
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# a mutant can make a walk endless; a run past this is counted as a kill
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...] = ()  # pytest node ids, from the repository root
    reason: str = ""  # why an equivalent mutant changes no answer


MUTANTS = (
    Mutant(
        "close-word-span-ends-swapped",
        "odgrammar/core.py",
        "items.append(((u, s2), first, last))",
        "items.append(((u, s2), last, first))",
        ("tests/test_engine.py::TestClosureMembers",),
    ),
    Mutant(
        "class-extra-removed",
        "odgrammar/core.py",
        '        yield Violation("tree.class-extra", (w,), f"class given for unknown word {w}")\n',
        "        pass\n",
        (
            "tests/test_validate.py::TestTreeStage::test_class_for_an_unknown_word_is_reported",
            "tests/test_engine.py::TestGenerate::test_class_for_an_unknown_word_rejected",
        ),
    ),
    Mutant(
        "cycle-without-its-tail",
        "odgrammar/core.py",
        "            return tuple(path)\n",
        "            return tuple(path[path.index(w):])\n",
        ("tests/test_core.py::TestTreeModel::test_cycle_reached_through_a_tail",),
    ),
    Mutant(
        "crossed-path-without-direct-head",
        "odgrammar/core.py",
        "self.crossed[w] = tuple(crossed)",
        "self.crossed[w] = tuple(crossed[1:])",
        (
            "tests/test_core.py::TestStructureIndex::test_crossed",
            "tests/test_constraints.py::TestExtraction::test_unlicensed_crossing",
        ),
    ),
    Mutant(
        # with a lexicon, `tree.entry-unknown` also refuses an unbound word,
        # so generate's refusal (`TestGenerate::test_unbound_word_rejected`)
        # survives this mutant; the finding's id and validate_tree without
        # a lexicon still show it
        "unbound-word-check-removed",
        "odgrammar/core.py",
        "        if w.entry is None:\n"
        "            yield Violation(\n"
        '                "tree.entry-missing",\n',
        "        if False:\n"
        "            yield Violation(\n"
        '                "tree.entry-missing",\n',
        (
            "tests/test_validate.py::TestTreeStage::test_unbound_word_is_reported",
            "tests/test_validate.py::TestTreeStage::test_unbound_word_is_refused_by_every_check",
            "tests/test_validate.py::TestTreeStage::test_unbound_word_is_refused_by_both_searches",
        ),
    ),
    Mutant(
        "entry-unknown-removed",
        "odgrammar/core.py",
        "        elif lex is not None and w.entry not in lex.entries.get(w.form, ()):\n",
        "        elif False:\n",
        (
            "tests/test_validate.py::TestTreeStage::test_entry_the_lexicon_does_not_hold_is_reported",
            "tests/test_validate.py::TestTreeStage::"
            "test_entry_the_lexicon_does_not_hold_is_refused_by_both_searches",
        ),
    ),
    Mutant(
        "index-members-unsorted",
        "odgrammar/core.py",
        "                items.sort(key=_first)\n",
        "                pass\n",
        (
            "tests/test_core.py::TestStructureIndex::test_identity_not_set_equality",
            "tests/test_constraints.py::TestSelfVsAll::test_findings_in_surface_order",
            "tests/test_engine.py::TestClosureMembers",
        ),
    ),
    Mutant(
        "index-introducer-left-out",
        "odgrammar/core.py",
        "                members[did].insert(0, ((w, None), w, w))\n",
        "                pass\n",
        (
            "tests/test_core.py::TestStructureIndex::test_immediate_members_mittelfeld",
            "tests/test_constraints.py::TestSelfVsAll::test_violated_when_noun_leads",
        ),
    ),
    Mutant(
        "index-introducer-appended",
        "odgrammar/core.py",
        "                members[did].insert(0, ((w, None), w, w))\n",
        "                members[did].append(((w, None), w, w))\n",
        ("tests/test_core.py::TestStructureIndex::test_introducer_first_on_a_tie",),
    ),
    Mutant(
        "index-pairs-unsorted",
        "odgrammar/core.py",
        "            if len(items) > 1:\n",
        "            if len(items) > 2:\n",
        (
            "tests/test_core.py::TestStructureIndex::test_identity_not_set_equality",
            "tests/test_engine.py::TestClosureMembers::"
            "test_closure_items_are_the_index_members",
        ),
    ),
    Mutant(
        "conditions-touching-spans-ordered",
        "odgrammar/core.py",
        "                if span is None or span[0] <= end:\n",
        "                if span is None or span[0] < end:\n",
        (
            "tests/test_core.py::TestRealization::test_conditions_equal_the_literal_check",
            "tests/test_validate.py::TestStages::test_overlapping_sequence_domains",
        ),
    ),
    Mutant(
        "conditions-problems-guard-dropped",
        "odgrammar/core.py",
        "        self.sequences_ordered = self.sets_derived = False\n"
        "        if problems:\n"
        "            return\n"
        "        self.sequences_ordered = ordered\n",
        "        self.sequences_ordered, self.sets_derived = ordered, False\n"
        "        if problems:\n"
        "            return\n",
        (
            "tests/test_core.py::TestRealization::test_cond1_violated_by_leaking_self",
            "tests/test_core.py::TestRealization::test_conditions_equal_the_literal_check",
        ),
    ),
    Mutant(
        "close-word-introducer-left-out",
        "odgrammar/core.py",
        "            items, acc, lo, hi = [((w, None), w, w)], {w}, w, w\n",
        "            items, acc, lo, hi = [], {w}, w, w\n",
        (
            "tests/test_engine.py::TestGenerate::test_key_tree",
            "tests/test_engine.py::TestDiagnostics::test_parse_counts",
            "tests/test_engine.py::TestClosureMembers",
        ),
    ),
    Mutant(
        "linked-index-domain-stage-dropped",
        "odgrammar/constraints.py",
        "    for v in iter_ods_violations(ds.domains, ds.tree.n):\n"
        "        raise StructureError(v.message)\n",
        "",
        (
            "tests/test_constraints.py::test_domain_stage_failure",
            "tests/test_core.py::TestStructureIndex::test_unknown_sequence_domain_is_reported",
        ),
    ),
    # the span and precedence cuts at closure
    Mutant(
        "span-cut-order-reversed",
        "odgrammar/engine.py",
        "        if first <= prev:\n",
        "        if first > prev:\n",
        (
            "tests/test_engine.py::TestParse::test_key_sentence_analysis",
            "tests/test_engine.py::TestScaling::test_verb_cluster_k3",
        ),
    ),
    Mutant(
        "span-cut-order-dropped",
        "odgrammar/engine.py",
        "        if first <= prev:\n",
        "        if False:\n",
        (
            "tests/test_engine.py::TestDiagnostics::test_parse_counts",
            "tests/test_engine.py::TestScaling::test_only_the_answers_are_realized",
        ),
    ),
    Mutant(
        "span-cut-contiguity-inverted",
        "odgrammar/engine.py",
        "        if last - first + 1 != len(members):\n",
        "        if last - first + 1 == len(members):\n",
        (
            "tests/test_engine.py::TestParse::test_key_sentence_analysis",
            "tests/test_engine.py::TestGenerate::test_key_tree",
        ),
    ),
    Mutant(
        "span-cut-contiguity-dropped",
        "odgrammar/engine.py",
        "        if last - first + 1 != len(members):\n",
        "        if False:\n",
        (
            "tests/test_engine.py::TestDiagnostics::test_parse_counts",
            "tests/test_engine.py::TestDiagnostics::"
            "test_pair_misordered_outside_the_self_field_is_cut",
        ),
    ),
    Mutant(
        "precedence-cut-pairs-skipped",
        "odgrammar/engine.py",
        "    for pred in preds:\n        for s, items, _, _, _ in closure:\n",
        "    for pred in preds:\n"
        "        if pred.kind != SELF_VS_ALL:\n"
        "            continue\n"
        "        for s, items, _, _, _ in closure:\n",
        (
            "tests/test_engine.py::TestDiagnostics::"
            "test_pair_misordered_outside_the_self_field_is_cut",
            "tests/test_engine.py::TestScaling::test_only_the_answers_are_realized",
        ),
    ),
    # budget ticks and generation's slot-order prune
    Mutant(
        "head-map-rejection-tick-dropped",
        "odgrammar/engine.py",
        "                    # `_depth_first` charges the candidates taken\n"
        "                    budget.tick()\n",
        "                    # `_depth_first` charges the candidates taken\n",
        (
            "tests/test_engine.py::TestBudgetThresholds::test_parse",
            "tests/test_engine.py::TestBudgetThresholds::"
            "test_parse_charges_rejected_head_candidates",
        ),
    ),
    Mutant(
        "complete-assignment-tick-dropped",
        "odgrammar/engine.py",
        "            else:\n                budget.tick()\n                yield\n",
        "            else:\n                yield\n",
        (
            "tests/test_engine.py::TestBudgetThresholds::test_parse",
            "tests/test_engine.py::TestBudgetThresholds::test_generate_key_tree",
        ),
    ),
    Mutant(
        "arrangement-slot-order-reversed",
        "odgrammar/engine.py",
        "            if last.get(word, -1) > s:\n",
        "            if last.get(word, -1) < s:\n",
        (
            "tests/test_engine.py::TestGenerate::test_key_tree",
            "tests/test_engine.py::TestDiagnostics::test_generate_counts",
        ),
    ),
    # the search's per-tree pass: placement options and its early returns
    Mutant(
        "extraction-stop-dropped",
        "odgrammar/engine.py",
        "            if host == tree.root or dtype_of[host] not in slot.extraction:\n",
        "            if host == tree.root:\n",
        (
            "tests/test_engine.py::TestBudgetThresholds::test_parse",
            "tests/test_engine.py::TestDiagnostics::test_parse_counts",
        ),
    ),
    Mutant(
        "extraction-stop-inverted",
        "odgrammar/engine.py",
        "            if host == tree.root or dtype_of[host] not in slot.extraction:\n",
        "            if host == tree.root or dtype_of[host] in slot.extraction:\n",
        (
            "tests/test_engine.py::TestBudgetThresholds::test_parse",
            "tests/test_engine.py::TestDiagnostics::test_parse_counts",
        ),
    ),
    Mutant(
        "domain-feature-slot-prune-dropped",
        "odgrammar/engine.py",
        "            choices += [(host, s) for s in range(len(entry.template.slots))\n"
        "                        if s not in lacking]\n",
        "            choices += [(host, s) for s in range(len(entry.template.slots))]\n",
        (
            "tests/test_engine.py::TestDiagnostics::"
            "test_every_domain_feature_demand_of_a_slot_prunes",
        ),
    ),
    Mutant(
        "self-slot-demand-check-dropped",
        "odgrammar/engine.py",
        "        if any(r.slot == self_slot[w] and missing_features(r.required, feats)\n",
        "        if False and any(r.slot == self_slot[w]\n"
        "                         and missing_features(r.required, feats)\n",
        (
            "tests/test_engine.py::TestDiagnostics::"
            "test_a_word_lacking_its_own_field_demand_realizes_nothing",
            "tests/test_random_lexicon.py::test_engine_equals_oracle_on_random_lexica",
        ),
    ),
    Mutant(
        "leaf-bounds-return-dropped",
        "odgrammar/engine.py",
        "            if not _within_bounds(closed[w], cards[w]):\n                return\n",
        "",
        (
            "tests/test_engine.py::TestGenerate::"
            "test_leaf_outside_its_bounds_ends_the_search_before_any_tick",
            "tests/test_random_lexicon.py::test_engine_equals_oracle_on_random_lexica",
        ),
    ),
    # the two constructors parse and the oracle share: the differential net
    # compares code that holds the same fault on both sides, so only pinned
    # counts and digests see one
    Mutant(
        "entry-assignment-option-dropped",
        "odgrammar/lexicon.py",
        "        options.append(entries)\n",
        "        options.append(entries[:1])\n",
        (
            "tests/test_engine.py::TestParse::test_corpus_counts",
            "tests/test_engine.py::TestScaling::test_genitive_k4",
        ),
    ),
    Mutant(
        "labeled-tree-class-left-out",
        "odgrammar/core.py",
        "    classes = {w.index: w.entry.word_class for w in words}\n",
        "    classes = {w.index: w.entry.word_class for w in words[1:]}\n",
        (
            "tests/test_engine.py::TestParse::test_corpus_counts",
            "tests/test_engine.py::TestScaling::test_genitive_k4",
        ),
    ),
    # generation's orderings, drawn once per call, and the sorted nesting check
    Mutant(
        "arrangement-reuse-uncharged",
        "odgrammar/engine.py",
        "                budget.tick(math.factorial(len(names)))\n",
        "                pass\n",
        (
            "tests/test_engine.py::TestBudgetThresholds::test_generate_key_tree",
            "tests/test_engine.py::TestBudgetThresholds::test_generate_genitive_k1",
        ),
    ),
    Mutant(
        "nesting-crossing-test-dropped",
        "odgrammar/core.py",
        "        if open_ends and open_ends[-1] < -neg_end:\n            return False\n",
        "",
        (
            "tests/test_core.py::TestDomainChecks::test_overlap_without_nesting",
            "tests/test_core.py::TestDomainChecks::test_nesting_equals_the_pairwise_check",
            "tests/test_constraints.py::test_domain_stage_failure",
        ),
    ),
    Mutant(
        "nesting-shared-end-closed",
        "odgrammar/core.py",
        "        while open_ends and open_ends[-1] < start:\n",
        "        while open_ends and open_ends[-1] <= start:\n",
        (
            "tests/test_core.py::TestDomainChecks::test_overlap_without_nesting",
            "tests/test_core.py::TestDomainChecks::test_nesting_equals_the_pairwise_check",
        ),
    ),
    Mutant(
        "arrangement-key-without-owner",
        "odgrammar/engine.py",
        "            orderings = arranged.get((w, s, names))\n"
        "            if orderings is None:\n"
        "                orderings = arranged[w, s, names] = list(\n",
        "            orderings = arranged.get((s, names))\n"
        "            if orderings is None:\n"
        "                orderings = arranged[s, names] = list(\n",
        ("tests/test_engine.py::TestGenerate::test_orderings_are_drawn_per_owner",),
    ),
    # the validator's local member check, which the full findings cannot
    # see when it fails spuriously: a mismatch only runs the derivation
    Mutant(
        "local-member-check-introducer-left-out",
        "odgrammar/core.py",
        "                for _, first, last in items:\n",
        "                for (_, slot), first, last in items:\n"
        "                    if slot is None:\n"
        "                        continue\n",
        (
            "tests/test_validate.py::TestDerivedMembers::"
            "test_local_check_reads_each_domain",
            "tests/test_validate.py::TestLocalMemberCheck",
        ),
    ),
    Mutant(
        "local-member-check-always-passes",
        "odgrammar/core.py",
        "        self.sets_derived = derived\n",
        "        self.sets_derived = True\n",
        (
            "tests/test_validate.py::TestDerivedMembers",
            "tests/test_validate.py::TestLocalMemberCheck",
        ),
    ),
    Mutant(
        "local-member-check-left-edge-unchecked",
        "odgrammar/core.py",
        "                    if first < lo or first > reach + 1:\n",
        "                    if first > reach + 1:\n",
        ("tests/test_validate.py::TestLocalMemberCheck",),
    ),
    Mutant(
        "constraint-stage-extraction-skip-inverted",
        "odgrammar/validate.py",
        "        if not crossed.get(w):\n",
        "        if crossed.get(w):\n",
        (
            "tests/test_cli.py::TestValidateCommand::test_invalid",
            "tests/test_engine.py::TestGenerate::test_key_tree",
        ),
    ),
    Mutant(
        "tree-checked-inverted",
        "odgrammar/validate.py",
        "    if not tree_checked:\n        for violation in iter_tree_violations(",
        "    if tree_checked:\n        for violation in iter_tree_violations(",
        (
            "tests/test_engine.py::TestDiagnostics::"
            "test_undeclared_class_is_rejected_by_the_tree_stage",
            "tests/test_validate.py::TestTreeChecked::"
            "test_equals_the_full_report_on_checked_trees",
        ),
    ),
    Mutant(
        "oracle-generate-valency-first",
        "odgrammar/oracle.py",
        "    if (\n"
        "        next(iter_tree_violations(tree, lex), None) is not None\n"
        "        or next(iter_valency_violations(tree, lex), None) is not None\n"
        "    ):\n",
        "    if (\n"
        "        next(iter_valency_violations(tree, lex), None) is not None\n"
        "        or next(iter_tree_violations(tree, lex), None) is not None\n"
        "    ):\n",
        (
            "tests/test_validate.py::TestTreeStage::"
            "test_unbound_word_is_refused_by_both_searches",
        ),
    ),
    Mutant(
        "card-table-bounds-swapped",
        "odgrammar/lexicon.py",
        '_CARD_BOUNDS = {"=": (1, 1), "<=": (0, 1), ">=": (1, None)}',
        '_CARD_BOUNDS = {"=": (1, 1), "<=": (1, 1), ">=": (1, None)}',
        ("tests/test_lexicon.py::TestEntryParsing::test_cardinality_inequalities",),
    ),
    Mutant(
        "record-repeat-required",
        "odgrammar/serialize.py",
        "                _, did, *members = fields\n",
        "                _, did, *members = fields if len(fields) > 2 else ()\n",
        (
            "tests/test_serialize.py::TestStructureText::test_invalid_structure_round_trips",
            "tests/test_serialize.py::TestStructureText::"
            "test_text_round_trip_equals_json_round_trip",
            "tests/test_cli.py::TestValidateCommand::test_empty_domain",
        ),
    ),
    Mutant(
        "serializer-entry-check-dropped",
        "odgrammar/serialize.py",
        "    except (AttributeError, ValueError):\n",
        "    except ():\n",
        ("tests/test_serialize.py::TestUnwritableWords",),
    ),
    Mutant(
        "lexicon-token-column-shifted",
        "odgrammar/lexicon.py",
        "        col = m.start() + 1\n",
        "        col = m.start()\n",
        (
            "tests/test_lexicon.py::TestReaderErrors::test_message",
            "tests/test_lexicon.py::TestEntryParsing::test_quoted_text_is_only_a_form",
        ),
    ),
    # parse-only cuts, which the net's checks past the oracle's limit kill
    Mutant(
        "precedence-cut-first-slot-only",
        "odgrammar/engine.py",
        "        for s, items, _, _, _ in closure:\n            # items are not",
        "        for s, items, _, _, _ in closure[:1]:\n            # items are not",
        ("tests/test_oracle_net.py::test_checks_past_the_oracle_limit",),
    ),
    Mutant(
        # a stand-in for a fault that needs a domain longer than any
        # sentence the oracle takes, so no comparison with it can show
        "contiguity-cut-past-the-oracle-limit",
        "odgrammar/engine.py",
        "        if last - first + 1 != len(members):\n",
        "        if last - first + 1 != len(members) or len(members) > 7:\n",
        ("tests/test_oracle_net.py::test_checks_past_the_oracle_limit",),
    ),
)

EQUIVALENT = (
    Mutant(
        "precedence-cut-scopes-ignored",
        "odgrammar/engine.py",
        "if pred.scopes(s, own) and pred.misordered(items, dtype_of):",
        "if pred.misordered(items, dtype_of):",
        reason="a self-vs-all predicate pairs only the introducer, and (w, None) "
        "is a member of w's self domain alone, so on any other slot "
        "`misordered` finds nothing; pair predicates scope every slot",
    ),
    Mutant(
        "nesting-equal-ends-cross",
        "odgrammar/core.py",
        "        if open_ends and open_ends[-1] < -neg_end:\n",
        "        if open_ends and open_ends[-1] <= -neg_end:\n",
        reason="a crossing the sort finds where there is none only sends the "
        "family to the pairwise loop, which reports the same findings in the "
        "same order; only the time changes",
    ),
    Mutant(
        "tree-checked-runs-valency",
        "odgrammar/validate.py",
        "    if not tree_checked:\n        yield from check_valency(",
        "    if True:\n        yield from check_valency(",
        reason="the searches set `tree_checked` only on trees whose valency "
        "holds, so valency run again finds nothing; only the time changes",
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Edit the copy of ``src/`` at ``src``; the old text must occur once."""
    path = src / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                         f"times in src/{mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tests(src: Path, tests) -> tuple[set[str], str]:
    """Run ``tests`` against the package in ``src``: the node ids that
    failed or errored, and pytest's output."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           *tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return set(tests), f"timed out after {TIMEOUT_S} s"
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M))
    if done.returncode not in (0, 1):  # usage or collection trouble
        failed |= set(tests)
    return failed, done.stdout + done.stderr


def killed_by(failed: set[str], test: str) -> bool:
    """Did ``test``, a node id or a prefix of some (a class, a file), fail?"""
    return any(f == test or f.startswith(test + "::") or f.startswith(test + "[")
               for f in failed)


def copy_src(into: Path) -> Path:
    dest = into / "src"
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run the named mutants.")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant {unknown[0]!r}")
    chosen = [by_name[n] for n in args.names] or list(MUTANTS)

    tests = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        failed, output = run_tests(copy_src(Path(tmp)), tests)
    if failed:
        print(output)
        print(f"baseline: {len(failed)} named tests fail on the unmutated copy")
        return 1
    print(f"baseline: the {len(tests)} named tests pass on the unmutated copy")

    survived = 0
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(Path(tmp))
            apply(mutant, src)
            failed, _ = run_tests(src, mutant.tests)
        alive = [t for t in mutant.tests if not killed_by(failed, t)]
        if alive:
            survived += 1
            print(f"{mutant.name}: survived {', '.join(alive)}")
        else:
            print(f"{mutant.name}: killed by all {len(mutant.tests)} expected tests")
    for mutant in EQUIVALENT:
        print(f"{mutant.name}: equivalent, not run ({mutant.reason})")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
