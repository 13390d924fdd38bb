"""Full validation of dependency structures against a lexicon.

Checks run in three stages because later stages are only meaningful on a
sound base: first each layer on its own (tree, domain hierarchy), then the
linking between the layers (sequences, ownership, positional heads,
insertion), and finally the four linking conditions, the derived member
sets, and every lexical constraint.  Within the final stage nothing stops
at the first finding; the report lists all violations.
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
    TOP_DOMAIN_ID,
    DependencyStructure,
    StructureError,
    StructureIndex,
    ValidationReport,
    Violation,
    ancestor_chain,
    derived_member_sets,
    iter_condition_violations,
    iter_ods_violations,
    iter_tree_violations,
)
from .lexicon import Lexicon


def _iter_linking_violations(
    ds: DependencyStructure,
) -> Iterator[tuple[bool, Violation]]:
    """Yield (hard, violation); hard findings block the final stage."""
    tree = ds.tree
    n = tree.n
    by_id = ds.domains.by_id()
    full = frozenset(range(n))

    assoc_words = set(ds.domains.assoc)
    for w in sorted(assoc_words - set(range(n))):
        yield True, Violation(
            "ds.assoc-extra", (w,), f"domain sequence given for unknown word {w}"
        )
    for w in range(n):
        if w not in assoc_words:
            yield True, Violation(
                "ds.assoc-missing", (w,), f"word {w} has no domain sequence"
            )
            continue
        entry = tree.words[w].entry
        seq = ds.domains.assoc[w]
        if len(seq) != len(entry.template.slots):
            yield True, Violation(
                "ds.assoc-arity",
                (w,),
                f"word {w} realizes {len(seq)} slots but its template has "
                f"{len(entry.template.slots)}",
            )
            continue
        self_id = seq[entry.template.self_slot]
        if self_id is None or w not in by_id[self_id].members:
            yield True, Violation(
                "ds.self-domain",
                (w,),
                f"the self slot of word {w} must be realized and contain it",
            )

    owner: dict[str, int] = {}
    for w in sorted(assoc_words & set(range(n))):
        for did in ds.domains.realized(w):
            if did in owner:
                yield True, Violation(
                    "ds.domain-shared",
                    (did, owner[did], w),
                    f"domain {did!r} appears in two sequences",
                )
            owner[did] = w
    unowned = [d.id for d in ds.domains.domains if d.id not in owner]
    if len(unowned) != 1 or by_id[unowned[0]].members != full:
        yield True, Violation(
            "ds.top-owner",
            tuple(unowned),
            "exactly one domain (the top, spanning all words) may stay "
            "outside every word's sequence",
        )

    for w in sorted(set(ds.positional) - set(range(n))):
        yield True, Violation(
            "ds.positional-extra",
            (w,),
            f"positional head recorded for unknown word {w}",
        )
    head_of = tree.head_of()
    for w in range(n):
        if w == tree.root:
            if w in ds.positional:
                yield True, Violation(
                    "ds.positional-root",
                    (w,),
                    "the root has no positional head; it sits in the top domain",
                )
            continue
        p = ds.positional.get(w)
        if p is None:
            yield True, Violation(
                "ds.positional-missing", (w,), f"word {w} has no positional head"
            )
            continue
        if p not in ancestor_chain(head_of, w):
            yield True, Violation(
                "ds.positional-head",
                (w, p),
                f"positional head {p} is not a transitive head of word {w}",
            )
            continue
        hosts = [
            did
            for did in ds.domains.assoc.get(p, ())
            if did is not None and did in by_id and w in by_id[did].members
        ]
        if len(hosts) != 1:
            yield True, Violation(
                "ds.insertion",
                (w, p),
                f"word {w} must lie in exactly one domain of word {p}'s "
                f"sequence, found {len(hosts)}",
            )

    for w in range(n):
        entry = tree.words[w].entry
        if tree.classes.get(w) != entry.word_class:
            yield False, Violation(
                "lex.class-entry",
                (w,),
                f"word {w} is classed {tree.classes.get(w)!r} but its entry "
                f"says {entry.word_class!r}",
            )
        if ds.features.get(w, {}) != entry.features:
            yield False, Violation(
                "lex.feature-entry",
                (w,),
                f"features of word {w} differ from its entry",
            )


def _iter_constraint_violations(
    ds: DependencyStructure, lex: Lexicon, idx: StructureIndex
) -> Iterator[Violation]:
    tree = ds.tree

    # stored member sets must match the sets the insertions generate
    slot_of = {}
    for w in range(tree.n):
        if w == tree.root:
            continue
        did = idx.insertion[w]
        slot_of[w] = idx.owner[did][1]
    derived = derived_member_sets(tree, ds.positional, slot_of)
    for w in range(tree.n):
        seq = ds.domains.assoc[w]
        for s, did in enumerate(seq):
            expected = derived.get((w, s))
            stored = idx.by_id[did].members if did is not None else None
            if stored != expected:
                yield Violation(
                    "ds.members",
                    (w, s),
                    f"slot {s} of word {w} stores members "
                    f"{sorted(stored) if stored else stored}, but insertion "
                    f"derives {sorted(expected) if expected else expected}",
                )

    yield from check_valency(tree, lex).violations

    dtype_of = tree.dtype_of()
    for w in range(tree.n):
        if w == tree.root:
            continue
        head = idx.head_of[w]
        slot = tree.words[head].entry.slot_for(dtype_of[w])
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
    base = list(iter_tree_violations(ds.tree, lex))
    base.extend(iter_ods_violations(ds.domains, ds.tree.n))
    if base:
        yield from base
        return

    soft: list[Violation] = []
    hard = False
    for is_hard, violation in _iter_linking_violations(ds):
        if is_hard:
            hard = True
            yield violation
        else:
            soft.append(violation)
    if hard:
        yield from soft
        return

    yield from iter_condition_violations(ds)
    yield from soft
    try:
        idx = StructureIndex(ds)
    except StructureError:
        return
    yield from _iter_constraint_violations(ds, lex, idx)


def validate_structure(ds: DependencyStructure, lex: Lexicon) -> ValidationReport:
    """Complete check: both layers, their linking, and all lexical constraints."""
    return ValidationReport(tuple(iter_structure_violations(ds, lex)))


def structure_is_valid(ds: DependencyStructure, lex: Lexicon) -> bool:
    """Same verdict as validate_structure, stopping at the first violation."""
    return next(iter_structure_violations(ds, lex), None) is None
