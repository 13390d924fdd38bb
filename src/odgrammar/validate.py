"""Full validation of dependency structures against a lexicon.

Checks run in three stages because later stages are only meaningful on a
sound base: first each layer on its own (tree, domain hierarchy), then the
linking between the layers (sequences, ownership, positional heads,
insertion, which settle linking condition 3), and finally linking
conditions 1, 2 and 4, the derived member sets, and every lexical
constraint.  The linking stage is building the structure's
`StructureIndex`, which is defined only on layers that passed the first
stage (see its precondition): the index reports the linking problems it
finds, and the final stage navigates the same index.  Within the final
stage nothing stops at the first finding; the report lists all violations.

`iter_structure_violations` produces the findings lazily, in report order,
each as soon as its check has found it.  A caller that takes only the first
finding, as the search and `structure_is_valid` do, pays for the checks up
to that finding: a candidate with a gapped domain costs the tree stage and
the domain checks up to the first gap, not every domain and the nesting
check.  Nothing is kept between calls.

The tree stage and valency read the tree alone, and every structure over
one tree, in any order of its words, shares their verdict: a permutation
renames the words and keeps their heads, dependency types, classes and
entries.  So generation and the oracle check each tree once themselves
and enter at the domain stage, without valency (`_iter_from_domain_stage`).
Parse enters at the tree stage (`iter_structure_violations`).
"""

from __future__ import annotations

from typing import Iterator

from .constraints import (
    check_cardinality,
    check_domain_features,
    check_extraction,
    check_precedence,
    check_valency,
)
from .core import (
    DependencyStructure,
    StructureIndex,
    ValidationReport,
    Violation,
    derived_member_sets,
    iter_condition_violations,
    iter_ods_violations,
    iter_tree_violations,
)
from .lexicon import Lexicon


def _iter_entry_violations(ds: DependencyStructure) -> Iterator[Violation]:
    """Class and feature columns that disagree with the words' entries.

    These findings do not block the later stages.
    """
    tree = ds.tree
    for w in range(tree.n):
        entry = tree.words[w].entry
        if tree.classes.get(w) != entry.word_class:
            yield Violation(
                "lex.class-entry",
                (w,),
                f"word {w} is classed {tree.classes.get(w)!r} but its entry "
                f"says {entry.word_class!r}",
            )
        if ds.features.get(w, {}) != entry.features:
            yield Violation(
                "lex.feature-entry",
                (w,),
                f"features of word {w} differ from its entry",
            )


def _iter_constraint_violations(
    ds: DependencyStructure, lex: Lexicon, idx: StructureIndex, valency: bool
) -> Iterator[Violation]:
    tree = ds.tree

    # stored member sets must match the sets the insertions generate
    derived = derived_member_sets(tree, ds.positional, idx.slot_of)
    for w in range(tree.n):
        seq = ds.domains.assoc[w]
        for s, did in enumerate(seq):
            expected = derived.get((w, s))
            stored = idx.by_id[did].members if did is not None else None
            if stored != expected:
                stores = f"members {sorted(stored)}" if stored else "no domain"
                derives = sorted(expected) if expected else "no domain"
                yield Violation(
                    "ds.members",
                    (w, s),
                    f"slot {s} of word {w} stores {stores}, but insertion "
                    f"derives {derives}",
                )

    if valency:
        yield from check_valency(tree, lex).violations

    for w in range(tree.n):
        if w == tree.root:
            continue
        head = idx.head_of[w]
        slot = tree.words[head].entry.slot_for(idx.dtype_of[w])
        if slot is not None:
            yield from check_extraction(slot, w, ds, idx).violations

    for w in range(tree.n):
        entry = tree.words[w].entry
        for card in entry.cardinalities:
            yield from check_cardinality(card, w, ds, idx).violations
        for req in entry.domain_features:
            yield from check_domain_features(req, w, ds, idx).violations
        for pred in entry.predicates:
            yield from check_precedence(pred, w, ds, idx).violations


def iter_structure_violations(
    ds: DependencyStructure, lex: Lexicon
) -> Iterator[Violation]:
    found = False
    for violation in iter_tree_violations(ds.tree, lex):
        found = True
        yield violation
    if found:
        yield from iter_ods_violations(ds.domains, ds.tree.n)
        return
    yield from _iter_from_domain_stage(ds, lex, valency=True)


def _iter_from_domain_stage(
    ds: DependencyStructure, lex: Lexicon, *, valency: bool = False
) -> Iterator[Violation]:
    """Findings of a structure whose tree passes the tree stage, in report
    order, with the tree's valency findings only if ``valency`` is set;
    generation and the oracle, which check valency once per tree, leave it
    unset."""
    found = False
    for violation in iter_ods_violations(ds.domains, ds.tree.n):
        found = True
        yield violation
    if found:
        return

    idx = StructureIndex(ds)
    if idx.problems:
        yield from idx.problems
        yield from _iter_entry_violations(ds)
        return

    yield from iter_condition_violations(ds, idx)
    yield from _iter_entry_violations(ds)
    yield from _iter_constraint_violations(ds, lex, idx, valency)


def validate_structure(ds: DependencyStructure, lex: Lexicon) -> ValidationReport:
    """Complete check: both layers, their linking, and all lexical constraints."""
    return ValidationReport(tuple(iter_structure_violations(ds, lex)))


def structure_is_valid(ds: DependencyStructure, lex: Lexicon) -> bool:
    """Same verdict as validate_structure, stopping at the first violation.

    Only the checks up to the first finding run, so an invalid structure
    usually costs far less than its full report.
    """
    return next(iter_structure_violations(ds, lex), None) is None
