"""Exhaustive reference enumeration for small inputs.

The functions in this module answer the same questions as the engine
(`odgrammar.engine`) but by brute force: every head assignment, every
positional-head choice, every slot assignment, and (for ordering) every
permutation of the input is generated.  Each tree is checked once (tree
stage and valency, each up to its first finding), and the validator judges
each structure over it from its domain stage on (`iter_structure_violations`
with ``tree_checked`` set).  Nothing here knows about the engine's search
order or its pruning; the only code shared with the
engine is the validator, the data model in `core` (constructors,
realization, and the tree helpers), and the two steps that start every
candidate tree: the enumeration of entry assignments
(`odgrammar.lexicon.entry_assignments`) and the tree built over a head map
(`odgrammar.core.labeled_tree`).  That makes the oracle slow but
trustworthy, which is the point: it is the one
reference the engine's pruned search is tested against, on a corpus of
short inputs.
Through `realize_structure` it reads the same `core.close_word` as the
engine's search: one derivation of the domain layer from insertion.

Inputs longer than ``OracleConfig.max_tokens`` raise ``TokenLimitError``
rather than silently taking hours.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .constraints import iter_valency_violations
from .core import (
    DependencyStructure,
    DependencyTree,
    TokenLimitError,
    ancestor_chain,
    dependency_cycle,
    iter_tree_violations,
    labeled_tree,
    permute_tree,
    realize_structure,
)
from .lexicon import Lexicon, entry_assignments
from .serialize import canonical_structure
from .validate import iter_structure_violations


@dataclass(frozen=True)
class OracleConfig:
    """Hard size limit for the exhaustive search."""

    max_tokens: int = 7


_DEFAULT_CONFIG = OracleConfig()


def _check_size(n: int, config: OracleConfig) -> None:
    if n > config.max_tokens:
        raise TokenLimitError(
            f"input has {n} tokens, oracle limit is {config.max_tokens}"
        )


def _parent_maps(words):
    """Yield the tree of every labeled head assignment over ``words``.

    Every non-root word picks every other word as head, with every dtype
    that the head's entry has a slot for.  Assignments whose parent map is
    not a tree (has a cycle) are dropped; everything else is left to the
    validator.
    """
    n = len(words)
    for root in range(n):
        rest = [w for w in range(n) if w != root]
        choices = []
        for w in rest:
            opts = [
                (h, slot.dtype)
                for h in range(n)
                if h != w
                for slot in words[h].entry.valency
            ]
            if not opts:
                break
            choices.append(opts)
        if len(choices) != len(rest):
            continue
        for combo in itertools.product(*choices):
            parent = {w: hd for w, (hd, _) in zip(rest, combo)}
            if dependency_cycle(parent, root, n):
                continue
            dtype_of = {w: dt for w, (_, dt) in zip(rest, combo)}
            yield labeled_tree(words, root, parent, dtype_of)


def placements(tree: DependencyTree) -> Iterator[DependencyStructure]:
    """Every structure realizing ``tree`` in its own word order, unjudged.

    Each non-root word takes every transitive head as its positional head
    and every template slot of that head.
    """
    head_of = tree.head_of()
    non_root = [w for w in range(tree.n) if w != tree.root]
    chains = [ancestor_chain(head_of, w) for w in non_root]
    for heads in itertools.product(*chains):
        positional = dict(zip(non_root, heads))
        slot_ranges = [range(len(tree.words[p].entry.template.slots)) for p in heads]
        for slots in itertools.product(*slot_ranges):
            yield realize_structure(tree, positional, dict(zip(non_root, slots)))


def _valid_structures(tree: DependencyTree, lex: Lexicon):
    """Yield every valid DependencyStructure over a fixed, checked tree."""
    for ds in placements(tree):
        if next(iter_structure_violations(ds, lex, tree_checked=True), None) is None:
            yield ds


def oracle_parse(
    tokens: list[str] | tuple[str, ...],
    lex: Lexicon,
    config: OracleConfig | None = None,
) -> tuple[DependencyStructure, ...]:
    """All valid structures whose surface order is exactly `tokens`.

    Results are sorted by their canonical serialization.
    """
    config = config or _DEFAULT_CONFIG
    _check_size(len(tokens), config)
    found: dict[str, DependencyStructure] = {}
    for words in entry_assignments(tokens, lex):
        for tree in _parent_maps(words):
            # valency first: it turns away most head maps, and the tree
            # stage seldom finds anything in a tree built over bound words
            if (
                next(iter_valency_violations(tree, lex), None) is not None
                or next(iter_tree_violations(tree, lex), None) is not None
            ):
                continue
            for ds in _valid_structures(tree, lex):
                found.setdefault(canonical_structure(ds, lex), ds)
    return tuple(found[key] for key in sorted(found))


def oracle_generate(
    tree: DependencyTree,
    lex: Lexicon,
    config: OracleConfig | None = None,
) -> tuple[tuple[str, DependencyStructure], ...]:
    """All (surface, structure) pairs realizing `tree` in any word order.

    Every permutation of the words is tried with every choice of positional
    heads and slots.  Pairs are sorted by surface, then by canonical
    serialization, as in `GenerationResult.pairs`.  Head relations,
    dependency types, and entries are preserved under permutation; only
    indices change.
    """
    config = config or _DEFAULT_CONFIG
    _check_size(tree.n, config)
    # a permutation renames the words and keeps heads, dependency types,
    # classes and entries, so it passes the tree stage and valency exactly
    # when the tree does: one check covers every permutation.  The tree
    # stage goes first: it reports an unbound word, which valency refuses
    if (
        next(iter_tree_violations(tree, lex), None) is not None
        or next(iter_valency_violations(tree, lex), None) is not None
    ):
        return ()
    found: dict[tuple[str, str], tuple[str, DependencyStructure]] = {}
    for order in itertools.permutations(range(tree.n)):
        permuted, _ = permute_tree(tree, order)
        surface = " ".join(permuted.forms())
        for ds in _valid_structures(permuted, lex):
            found.setdefault((surface, canonical_structure(ds, lex)), (surface, ds))
    return tuple(found[key] for key in sorted(found))


def oracle_orders(
    tree: DependencyTree,
    lex: Lexicon,
    config: OracleConfig | None = None,
) -> tuple[str, ...]:
    """All surface orders of `tree`'s words that admit a valid structure.

    These are the sorted distinct surfaces of `oracle_generate`.
    """
    pairs = oracle_generate(tree, lex, config)
    return tuple(sorted({surface for surface, _ in pairs}))
