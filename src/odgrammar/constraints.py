"""Lexical constraints evaluated over realized structures.

Precedence predicates are scoped by order domains: a predicate introduced
by a word only ever compares immediate members of that word's own realized
domains.  Immediate members are the introducing word itself plus the
maximal sub-domains, named by (word, slot) pairs (`odgrammar.core.Member`);
each counts as one unit regardless of how many words it spans.  The
introducer is unlabelled, and every other member carries the dependency
label of its head word, so a label can reach material that was extracted
into the introducer's domain from deeper in the tree.
`PrecedencePredicate.misordered` applies this label rule.

Each constraint's test lives here once (`PrecedencePredicate.misordered`,
`CardinalityConstraint.broken_bound`, `missing_features`, `admits_class`,
`admits_root`): the checks report from it and the engine's prunes call it.

Each check is a generator, ``iter_*_violations``, that yields its findings
lazily in report order, and a ``check_*`` function that wraps it in a
`ValidationReport`, as `odgrammar.core.validate_tree` wraps
`iter_tree_violations`.  A caller that wants only the first finding, or
that already holds a checked index, reads the generator.

The checks that read the domain layer navigate a `StructureIndex`.  Their
generators take an index without problems.  The ``check_*`` functions
build their own, and raise StructureError when it reports a linking
problem or the word they are asked about is out of range.  An index is
only defined on a structure whose layers pass their own stages (see
`StructureIndex`), so before building it they also raise StructureError on
the first finding of the tree stage or the domain stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .core import (
    DependencyStructure,
    DependencyTree,
    SpannedMember,
    StructureError,
    StructureIndex,
    ValidationReport,
    Violation,
    iter_ods_violations,
    iter_tree_violations,
)

if TYPE_CHECKING:
    from .lexicon import Lexicon, ValencySlot

SELF_VS_ALL = "self-vs-all"
LABELED_PAIR = "labeled-pair"

PRECEDES = "precedes"
FOLLOWS = "follows"

UNBOUNDED = None


@dataclass(frozen=True)
class PrecedencePredicate:
    """Domain-scoped ordering requirement attached to a lexical entry.

    ``self-vs-all`` orders the introducer against every other immediate
    member of its self domain.  ``labeled-pair`` orders members matching
    the left labels against members matching the right labels, separately
    within each realized domain of the introducer's sequence.
    """

    kind: str
    direction: str
    left: tuple[str, ...] = ()
    right: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (SELF_VS_ALL, LABELED_PAIR):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.direction not in (PRECEDES, FOLLOWS):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.kind == SELF_VS_ALL and (self.left or self.right):
            raise ValueError("self-vs-all predicates carry no label sets")
        if self.kind == LABELED_PAIR and not (self.left and self.right):
            raise ValueError("labeled-pair predicates need labels on both sides")
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))

    def scopes(self, slot: int, self_slot: int) -> bool:
        """Does it read the introducer's domain in ``slot``?  Self-vs-all reads
        only the self domain, a pair predicate every realized domain."""
        return self.kind == LABELED_PAIR or slot == self_slot

    def misordered(
        self, members: Sequence[SpannedMember], dtype_of: Mapping[int, str]
    ) -> list:
        """The (x, y) pairs it puts in the wrong order, in member order.

        ``members`` are a scoped domain's immediate members in surface order,
        each as (member, first position, last position).  The introducer,
        (w, None), is unlabelled; every other member is labelled with its
        head word's dependency type in ``dtype_of``.  Self-vs-all pairs the
        introducer with every other member; a pair predicate pairs each
        left-labelled with each right-labelled member of another head word.
        """
        labels = [None if s is None else dtype_of[w] for (w, s), _, _ in members]
        if self.kind == SELF_VS_ALL:
            lefts = [m for m, label in zip(members, labels) if label is None]
            rights = members
        else:
            lefts = [m for m, label in zip(members, labels) if label in self.left]
            rights = [m for m, label in zip(members, labels) if label in self.right]
        precedes = self.direction == PRECEDES
        wrong = []
        for x in lefts:
            for y in rights:
                if x[0][0] == y[0][0]:
                    continue
                if not (x[2] < y[1] if precedes else x[1] > y[2]):
                    wrong.append((x, y))
        return wrong

    def render(self) -> str:
        if self.kind == SELF_VS_ALL:
            op = "<" if self.direction == PRECEDES else ">"
            return f"self {op} *"
        op = "before" if self.direction == PRECEDES else "after"
        return f"<{','.join(self.left)}> {op} <{','.join(self.right)}>"


@dataclass(frozen=True)
class CardinalityConstraint:
    """Bounds on the immediate-member count of one template slot."""

    slot: int
    min: int = 0
    max: int | None = UNBOUNDED

    def __post_init__(self):
        if self.min not in (0, 1):
            raise ValueError("cardinality minimum must be 0 or 1")
        if self.max is not None and self.max != 1:
            raise ValueError("cardinality maximum must be 1 or unbounded")

    def broken_bound(self, count: int) -> str | None:
        """The bound ``count`` members break, "min" or "max", or None."""
        if count < self.min:
            return "min"
        if self.max is not None and count > self.max:
            return "max"
        return None


@dataclass(frozen=True)
class DomainFeatureRequirement:
    """Feature values every member head of one template slot must carry."""

    slot: int
    required: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "required", dict(self.required))


def missing_features(required: dict[str, str], features: dict[str, str]) -> list[str]:
    """The attributes, sorted, whose ``required`` value ``features`` lacks."""
    missing = [a for a, v in required.items() if features.get(a) != v]
    missing.sort()
    return missing


def admits_class(slot: "ValencySlot", word_class: str) -> bool:
    """Does the slot take a dependent of ``word_class`` (no class: any)?"""
    return slot.dep_class is None or word_class == slot.dep_class


def admits_root(lex: "Lexicon", word_class: str) -> bool:
    """May a word of ``word_class`` head a sentence (no root classes: any)?"""
    return not lex.root_classes or word_class in lex.root_classes


def _linked_index(ds: DependencyStructure, word: int) -> StructureIndex:
    """A new index on layers that pass their own stages; StructureError if
    a layer or the linking failed, or ``word`` is no word of the
    structure."""
    for v in iter_tree_violations(ds.tree):
        raise StructureError(v.message)
    for v in iter_ods_violations(ds.domains, ds.tree.n):
        raise StructureError(v.message)
    index = StructureIndex(ds)
    if index.problems:
        raise StructureError("; ".join(v.message for v in index.problems))
    if not 0 <= word < index.n:
        raise StructureError(f"word {word} is out of range")
    return index


def iter_precedence_violations(
    pred: PrecedencePredicate,
    introducer: int,
    ds: DependencyStructure,
    idx: StructureIndex,
) -> Iterator[Violation]:
    """`check_precedence`'s findings, in its order, on an index without
    problems."""
    self_slot = ds.tree.words[introducer].entry.template.self_slot
    rel = "precede" if pred.direction == PRECEDES else "follow"
    for slot, did in enumerate(ds.domains.assoc[introducer]):
        if did is None or not pred.scopes(slot, self_slot):
            continue
        members = idx.immediate_members(did)
        for ((hx, _), _, _), ((hy, _), _, _) in pred.misordered(members, idx.dtype_of):
            if pred.kind == SELF_VS_ALL:
                condition, subjects = "prec.self", (introducer, hy, did)
                message = (
                    f"word {introducer} must {rel} every other member of "
                    f"domain {did!r}, but not the member headed by {hy}"
                )
            else:
                condition, subjects = "prec.pair", (introducer, hx, hy, did)
                message = (
                    f"in domain {did!r} the member headed by {hx} must "
                    f"{rel} the member headed by {hy} ({pred.render()})"
                )
            yield Violation(condition, subjects, message)


def check_precedence(
    pred: PrecedencePredicate, introducer: int, ds: DependencyStructure
) -> ValidationReport:
    """Evaluate one predicate of the given introducer against the structure.

    Words outside the introducer's realized domains never participate; a
    topicalized constituent therefore escapes predicates scoped to the
    domain it left.  Pairs whose members share a head word are skipped.
    Raises StructureError when the structure's linking is ill defined.
    """
    idx = _linked_index(ds, introducer)
    return ValidationReport(
        tuple(iter_precedence_violations(pred, introducer, ds, idx))
    )


def iter_cardinality_violations(
    constraint: CardinalityConstraint,
    introducer: int,
    ds: DependencyStructure,
    idx: StructureIndex,
) -> Iterator[Violation]:
    """`check_cardinality`'s finding, if any, on an index without problems;
    IndexError when the constraint's slot is not in the template."""
    seq = ds.domains.assoc[introducer]
    if not 0 <= constraint.slot < len(seq):
        raise IndexError(
            f"slot {constraint.slot} out of range for word {introducer}"
        )
    did = seq[constraint.slot]
    count = len(idx.immediate_members(did)) if did is not None else 0
    bound = constraint.broken_bound(count)
    if bound is None:
        return
    need = f"at least {constraint.min} required"
    if bound == "max":
        need = f"at most {constraint.max} allowed"
    yield Violation(
        f"card.{bound}",
        (introducer, constraint.slot),
        f"slot {constraint.slot} of word {introducer} holds {count} "
        f"member(s); {need}",
    )


def check_cardinality(
    constraint: CardinalityConstraint, introducer: int, ds: DependencyStructure
) -> ValidationReport:
    """Count immediate members of the slot's realized domain; empty counts 0.

    Raises StructureError when the structure's linking is ill defined, and
    IndexError when the constraint's slot is not in the introducer's
    template.
    """
    idx = _linked_index(ds, introducer)
    return ValidationReport(
        tuple(iter_cardinality_violations(constraint, introducer, ds, idx))
    )


def iter_domain_feature_violations(
    req: DomainFeatureRequirement,
    introducer: int,
    ds: DependencyStructure,
    idx: StructureIndex,
) -> Iterator[Violation]:
    """`check_domain_features`'s findings, in its order, on an index without
    problems; IndexError when the requirement's slot is not in the
    template."""
    seq = ds.domains.assoc[introducer]
    if not 0 <= req.slot < len(seq):
        raise IndexError(f"slot {req.slot} out of range for word {introducer}")
    did = seq[req.slot]
    if did is None:
        return
    for (hw, _), _, _ in idx.immediate_members(did):
        for attr in missing_features(req.required, ds.features.get(hw, {})):
            yield Violation(
                "domfeat.value",
                (introducer, req.slot, hw, attr),
                f"member headed by {hw} in slot {req.slot} of word "
                f"{introducer} lacks {attr}={req.required[attr]}",
            )


def check_domain_features(
    req: DomainFeatureRequirement, introducer: int, ds: DependencyStructure
) -> ValidationReport:
    """Every member head of the slot's realized domain must carry the features.

    Raises StructureError when the structure's linking is ill defined, and
    IndexError when the requirement's slot is not in the introducer's
    template.
    """
    idx = _linked_index(ds, introducer)
    return ValidationReport(
        tuple(iter_domain_feature_violations(req, introducer, ds, idx))
    )


def iter_extraction_violations(
    slot: "ValencySlot",
    dependent: int,
    ds: DependencyStructure,
    idx: StructureIndex,
) -> Iterator[Violation]:
    """`check_extraction`'s findings, nearest first, on an index without
    problems; StructureError for the root."""
    if dependent not in idx.head_of:
        raise StructureError(f"word {dependent} has no direct head")
    for cur in idx.crossed[dependent]:
        dtype = idx.dtype_of[cur]
        if dtype not in slot.extraction:
            yield Violation(
                "extract.path",
                (dependent, cur, dtype),
                f"extraction of word {dependent} crosses a {dtype!r} edge "
                f"not licensed by slot {slot.dtype!r}",
            )


def check_extraction(
    slot: "ValencySlot", dependent: int, ds: DependencyStructure
) -> ValidationReport:
    """License the dependent's positional head through the slot's path set.

    Every dependency type between the positional head and the direct head
    (the dependent's own edge excluded) must lie in the slot's extraction
    set: the incoming edges of the heads the index records the insertion
    crossing (``StructureIndex.crossed``), reported nearest first.  An
    empty set therefore pins the positional head to the direct head.
    Raises StructureError for the root, which has no direct head, and when
    the structure's linking is ill defined.
    """
    idx = _linked_index(ds, dependent)
    return ValidationReport(tuple(iter_extraction_violations(slot, dependent, ds, idx)))


def iter_valency_violations(
    tree: DependencyTree, lex: "Lexicon"
) -> Iterator[Violation]:
    """`check_valency`'s findings, in its order; StructureError, before the
    first finding, for a word bound to no entry."""
    for w in tree.words:
        if w.entry is None:
            raise StructureError(f"word {w.index} is not bound to a lexical entry")
    outgoing: dict[int, list] = {w.index: [] for w in tree.words}
    for e in tree.edges:
        if e.head in outgoing and e.head != e.dependent:
            outgoing[e.head].append(e)

    for w in tree.words:
        entry = w.entry
        slots = {s.dtype: s for s in entry.valency}
        filled: dict[str, int] = {}
        for e in sorted(outgoing[w.index], key=lambda e: e.dependent):
            slot = slots.get(e.dtype)
            if slot is None:
                yield Violation(
                    "lex.slot-unknown",
                    (w.index, e.dependent, e.dtype),
                    f"entry for {w.form!r} has no {e.dtype!r} slot",
                )
                continue
            if e.dtype in filled:
                yield Violation(
                    "lex.slot-dup",
                    (w.index, e.dependent, e.dtype),
                    f"slot {e.dtype!r} of word {w.index} filled twice",
                )
                continue
            filled[e.dtype] = e.dependent
            dep = tree.words[e.dependent]
            if not admits_class(slot, dep.entry.word_class):
                yield Violation(
                    "lex.slot-class",
                    (w.index, e.dependent, e.dtype),
                    f"slot {e.dtype!r} of {w.form!r} requires class "
                    f"{slot.dep_class!r}, got {dep.entry.word_class!r}",
                )
            for attr in missing_features(slot.features, dep.entry.features):
                yield Violation(
                    "lex.slot-feat",
                    (w.index, e.dependent, e.dtype, attr),
                    f"slot {e.dtype!r} of {w.form!r} requires "
                    f"{attr}={slot.features[attr]} on its dependent",
                )
        for slot in entry.valency:
            if slot.required and slot.dtype not in filled:
                yield Violation(
                    "lex.slot-required",
                    (w.index, slot.dtype),
                    f"required slot {slot.dtype!r} of word {w.index} "
                    f"({w.form!r}) is unfilled",
                )

    root = tree.words[tree.root]
    if not admits_root(lex, root.entry.word_class):
        yield Violation(
            "lex.root-class",
            (tree.root, root.entry.word_class),
            f"class {root.entry.word_class!r} cannot head a sentence",
        )


def check_valency(tree: DependencyTree, lex: "Lexicon") -> ValidationReport:
    """Match every word's outgoing edges against its entry's valency frame.

    Covers: edges whose type names no slot, doubly filled slots, class and
    feature requirements on dependents, unfilled required slots, and the
    root word's class against the classes admitted at the sentence root.
    Raises StructureError for a word bound to no entry.
    """
    return ValidationReport(tuple(iter_valency_violations(tree, lex)))
