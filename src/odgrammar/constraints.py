"""Lexical constraints evaluated over realized structures.

Precedence predicates are scoped by order domains: a predicate introduced
by a word only ever compares immediate members of that word's own realized
domains.  Immediate members are the introducing word itself plus the
maximal sub-domains; each counts as one unit regardless of how many words
it spans.  A member carries the dependency label of its head word, so a
label can reach material that was extracted into the introducer's domain
from deeper in the tree.

The checks that read the domain layer navigate a `StructureIndex`.  They
use the one passed as ``index`` or build their own, and raise
StructureError when that index reports a linking problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .core import (
    DependencyStructure,
    DependencyTree,
    StructureError,
    StructureIndex,
    ValidationReport,
    Violation,
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
        if self.max is not None and self.min > self.max:
            raise ValueError("cardinality minimum exceeds maximum")


@dataclass(frozen=True)
class DomainFeatureRequirement:
    """Feature values every member head of one template slot must carry."""

    slot: int
    required: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "required", dict(self.required))


# The extraction path set of a valency slot: dependency types an extracted
# dependent may cross between its positional head and its direct head.
ExtractionPathSet = frozenset


def _linked_index(
    ds: DependencyStructure, index: StructureIndex | None
) -> StructureIndex:
    """The given index, or a new one; StructureError if its linking failed."""
    idx = index if index is not None else StructureIndex(ds)
    if idx.problems:
        raise StructureError("; ".join(v.message for v in idx.problems))
    return idx


def check_precedence(
    pred: PrecedencePredicate,
    introducer: int,
    ds: DependencyStructure,
    index: StructureIndex | None = None,
) -> ValidationReport:
    """Evaluate one predicate of the given introducer against the structure.

    Words outside the introducer's realized domains never participate; a
    topicalized constituent therefore escapes predicates scoped to the
    domain it left.  Pairs whose members share a head word are skipped.
    Raises StructureError when the structure's linking is ill defined.
    """
    idx = _linked_index(ds, index)
    violations: list[Violation] = []

    if pred.kind == SELF_VS_ALL:
        did = idx.self_domain(introducer)
        for member in idx.immediate_members(did):
            if member == ("w", introducer):
                continue
            lo, hi = idx.member_span(member)
            ok = introducer < lo if pred.direction == PRECEDES else introducer > hi
            if not ok:
                word = idx.member_head_word(member)
                rel = "precede" if pred.direction == PRECEDES else "follow"
                violations.append(
                    Violation(
                        "prec.self",
                        (introducer, word, did),
                        f"word {introducer} must {rel} every other member of "
                        f"domain {did!r}, but not the member headed by {word}",
                    )
                )
        return ValidationReport(tuple(violations))

    for did in ds.domains.realized(introducer):
        members = idx.immediate_members(did)
        lefts = [
            m
            for m in members
            if any(idx.matches_label(m, l, introducer) for l in pred.left)
        ]
        rights = [
            m
            for m in members
            if any(idx.matches_label(m, l, introducer) for l in pred.right)
        ]
        for x in lefts:
            for y in rights:
                hx, hy = idx.member_head_word(x), idx.member_head_word(y)
                if hx == hy:
                    continue
                xlo, xhi = idx.member_span(x)
                ylo, yhi = idx.member_span(y)
                ok = xhi < ylo if pred.direction == PRECEDES else xlo > yhi
                if not ok:
                    rel = "precede" if pred.direction == PRECEDES else "follow"
                    violations.append(
                        Violation(
                            "prec.pair",
                            (introducer, hx, hy, did),
                            f"in domain {did!r} the member headed by {hx} must "
                            f"{rel} the member headed by {hy} "
                            f"({pred.render()})",
                        )
                    )
    return ValidationReport(tuple(violations))


def check_cardinality(
    constraint: CardinalityConstraint,
    introducer: int,
    ds: DependencyStructure,
    index: StructureIndex | None = None,
) -> ValidationReport:
    """Count immediate members of the slot's realized domain; empty counts 0.

    Raises StructureError when the structure's linking is ill defined.
    """
    idx = _linked_index(ds, index)
    seq = ds.domains.assoc[introducer]
    if not 0 <= constraint.slot < len(seq):
        raise IndexError(
            f"slot {constraint.slot} out of range for word {introducer}"
        )
    did = seq[constraint.slot]
    count = len(idx.immediate_members(did)) if did is not None else 0
    violations = []
    if count < constraint.min:
        violations.append(
            Violation(
                "card.min",
                (introducer, constraint.slot),
                f"slot {constraint.slot} of word {introducer} holds {count} "
                f"member(s); at least {constraint.min} required",
            )
        )
    if constraint.max is not None and count > constraint.max:
        violations.append(
            Violation(
                "card.max",
                (introducer, constraint.slot),
                f"slot {constraint.slot} of word {introducer} holds {count} "
                f"member(s); at most {constraint.max} allowed",
            )
        )
    return ValidationReport(tuple(violations))


def check_domain_features(
    req: DomainFeatureRequirement,
    introducer: int,
    ds: DependencyStructure,
    index: StructureIndex | None = None,
) -> ValidationReport:
    """Every member head of the slot's realized domain must carry the features.

    Raises StructureError when the structure's linking is ill defined.
    """
    idx = _linked_index(ds, index)
    seq = ds.domains.assoc[introducer]
    if not 0 <= req.slot < len(seq):
        raise IndexError(f"slot {req.slot} out of range for word {introducer}")
    did = seq[req.slot]
    if did is None:
        return ValidationReport(())
    violations = []
    for member in idx.immediate_members(did):
        hw = idx.member_head_word(member)
        feats = ds.features.get(hw, {})
        for attr, value in sorted(req.required.items()):
            if feats.get(attr) != value:
                violations.append(
                    Violation(
                        "domfeat.value",
                        (introducer, req.slot, hw, attr),
                        f"member headed by {hw} in slot {req.slot} of word "
                        f"{introducer} lacks {attr}={value}",
                    )
                )
    return ValidationReport(tuple(violations))


def check_extraction(
    slot: "ValencySlot",
    dependent: int,
    ds: DependencyStructure,
    index: StructureIndex | None = None,
) -> ValidationReport:
    """License the dependent's positional head through the slot's path set.

    Every dependency type between the positional head and the direct head
    (the dependent's own edge excluded) must lie in the slot's extraction
    set.  An empty set therefore pins the positional head to the direct
    head.  Raises StructureError for the root, which has no direct head, and
    when the structure's linking is ill defined.
    """
    idx = _linked_index(ds, index)
    if dependent not in idx.head_of:
        raise StructureError(f"word {dependent} has no direct head")
    chain = idx.ancestors(dependent)
    violations = []
    for cur in chain[: chain.index(ds.positional[dependent])]:
        dtype = idx.dtype_of[cur]
        if dtype not in slot.extraction:
            violations.append(
                Violation(
                    "extract.path",
                    (dependent, cur, dtype),
                    f"extraction of word {dependent} crosses a {dtype!r} edge "
                    f"not licensed by slot {slot.dtype!r}",
                )
            )
    return ValidationReport(tuple(violations))


def check_valency(tree: DependencyTree, lex: "Lexicon") -> ValidationReport:
    """Match every word's outgoing edges against its entry's valency frame.

    Covers: edges whose type names no slot, doubly filled slots, class and
    feature requirements on dependents, unfilled required slots, and the
    root word's class against the classes admitted at the sentence root.
    """
    violations: list[Violation] = []
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
                violations.append(
                    Violation(
                        "lex.slot-unknown",
                        (w.index, e.dependent, e.dtype),
                        f"entry for {w.form!r} has no {e.dtype!r} slot",
                    )
                )
                continue
            if e.dtype in filled:
                violations.append(
                    Violation(
                        "lex.slot-dup",
                        (w.index, e.dependent, e.dtype),
                        f"slot {e.dtype!r} of word {w.index} filled twice",
                    )
                )
                continue
            filled[e.dtype] = e.dependent
            dep = tree.words[e.dependent]
            if slot.dep_class is not None and dep.entry.word_class != slot.dep_class:
                violations.append(
                    Violation(
                        "lex.slot-class",
                        (w.index, e.dependent, e.dtype),
                        f"slot {e.dtype!r} of {w.form!r} requires class "
                        f"{slot.dep_class!r}, got {dep.entry.word_class!r}",
                    )
                )
            for attr, value in sorted(slot.features.items()):
                if dep.entry.features.get(attr) != value:
                    violations.append(
                        Violation(
                            "lex.slot-feat",
                            (w.index, e.dependent, e.dtype, attr),
                            f"slot {e.dtype!r} of {w.form!r} requires "
                            f"{attr}={value} on its dependent",
                        )
                    )
        for slot in entry.valency:
            if slot.required and slot.dtype not in filled:
                violations.append(
                    Violation(
                        "lex.slot-required",
                        (w.index, slot.dtype),
                        f"required slot {slot.dtype!r} of word {w.index} "
                        f"({w.form!r}) is unfilled",
                    )
                )

    root = tree.words[tree.root]
    if lex.root_classes and root.entry.word_class not in lex.root_classes:
        violations.append(
            Violation(
                "lex.root-class",
                (tree.root, root.entry.word_class),
                f"class {root.entry.word_class!r} cannot head a sentence",
            )
        )
    return ValidationReport(tuple(violations))
