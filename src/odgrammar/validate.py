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

The final stage pays for what it reads.  The index records, in the walks
that build it, whether each sequence's spans run left to right
(``sequences_ordered``) and whether the stored member sets are the ones
insertion derives (``sets_derived``).  The conditions' literal loops run
only when the first record is False, and `derived_member_sets` runs only
when the second is, to report each differing slot.  The stage reads each
lexical check's generator (``constraints.iter_*_violations``) with the
index it already holds, so no report is built for a check that finds
nothing.  The stage's report order is written out once, in
`iter_structure_violations`.

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
and ask with ``tree_checked`` set, which skips both.  Parse, like
`validate_structure` and `structure_is_valid`, asks without it.
`iter_structure_violations` is the one way in for all of them.
"""

from __future__ import annotations

from typing import Iterator

from .constraints import (
    check_valency,
    iter_cardinality_violations,
    iter_domain_feature_violations,
    iter_extraction_violations,
    iter_precedence_violations,
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


def _iter_member_violations(
    ds: DependencyStructure, idx: StructureIndex
) -> Iterator[Violation]:
    """Each slot whose stored member set differs from the derived one."""
    tree = ds.tree
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


def _iter_constraint_violations(
    ds: DependencyStructure, idx: StructureIndex
) -> Iterator[Violation]:
    """The lexical constraints' findings: extraction paths, then each
    word's cardinalities, domain features and precedence predicates."""
    tree = ds.tree
    crossed = idx.crossed
    for w in range(tree.n):
        # a word whose insertion crosses no head has no path to license
        if not crossed.get(w):
            continue
        head = idx.head_of[w]
        slot = tree.words[head].entry.slot_for(idx.dtype_of[w])
        if slot is not None:
            yield from iter_extraction_violations(slot, w, ds, idx)

    for w in range(tree.n):
        entry = tree.words[w].entry
        for card in entry.cardinalities:
            yield from iter_cardinality_violations(card, w, ds, idx)
        for req in entry.domain_features:
            yield from iter_domain_feature_violations(req, w, ds, idx)
        for pred in entry.predicates:
            yield from iter_precedence_violations(pred, w, ds, idx)


def iter_structure_violations(
    ds: DependencyStructure, lex: Lexicon, *, tree_checked: bool = False
) -> Iterator[Violation]:
    """`validate_structure`'s findings, lazily, in report order.

    With ``tree_checked`` set the caller has found no fault in the tree
    stage or valency on this tree, and neither runs again."""
    found = False
    if not tree_checked:
        for violation in iter_tree_violations(ds.tree, lex):
            found = True
            yield violation
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
    # the derivation runs only to report a stored set the index found wrong
    if not idx.sets_derived:
        yield from _iter_member_violations(ds, idx)
    if not tree_checked:
        yield from check_valency(ds.tree, lex).violations
    yield from _iter_constraint_violations(ds, idx)


def validate_structure(ds: DependencyStructure, lex: Lexicon) -> ValidationReport:
    """Complete check: both layers, their linking, and all lexical constraints."""
    return ValidationReport(tuple(iter_structure_violations(ds, lex)))


def structure_is_valid(ds: DependencyStructure, lex: Lexicon) -> bool:
    """Same verdict as validate_structure, stopping at the first violation.

    Only the checks up to the first finding run, so an invalid structure
    usually costs far less than its full report.
    """
    return next(iter_structure_violations(ds, lex), None) is None
