"""Exhaustive reference enumeration for small inputs.

The functions in this module answer the same questions as the engine
(`odgrammar.engine`) but by brute force: every head assignment, every
positional-head choice, every slot assignment, and (for ordering) every
permutation of the input is generated.  Each tree is checked once (tree
stage and valency), and the validator judges each structure over it from
its domain stage on.  Nothing here knows about the engine's search order
or its pruning; the only code shared with the engine is the validator and
the data model in `core` (constructors, realization, and the tree
helpers).  That makes the oracle slow but trustworthy, which is the point:
it is the one reference the engine's pruned search is tested against, on
a corpus of short inputs.
Through `realize_structure` it reads the same `core.close_word` as the
engine's search: one derivation of the domain layer from insertion.

Inputs longer than ``OracleConfig.max_tokens`` raise ``TokenLimitError``
rather than silently taking hours.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .constraints import check_valency
from .core import (
    DependencyEdge,
    DependencyStructure,
    DependencyTree,
    TokenLimitError,
    UnknownTokenError,
    WordToken,
    ancestor_chain,
    dependency_cycle,
    permute_tree,
    realize_structure,
    validate_tree,
)
from .lexicon import Lexicon, entries_for
from .serialize import canonical_structure
from .validate import _iter_from_domain_stage


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


def _parent_maps(words, slot_names):
    """Yield (root, parent, dtype_of) for every labeled head assignment.

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
                (h, dt)
                for h in range(n)
                if h != w
                for dt in slot_names[h]
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
            yield root, parent, dtype_of


def _valid_structures(tree: DependencyTree, lex: Lexicon):
    """Yield every valid DependencyStructure over a fixed, checked tree."""
    head_of = tree.head_of()
    non_root = [w for w in range(tree.n) if w != tree.root]
    pos_choices = [ancestor_chain(head_of, w) for w in non_root]
    for pos_combo in itertools.product(*pos_choices):
        positional = dict(zip(non_root, pos_combo))
        slot_choices = [
            range(len(tree.words[positional[w]].entry.template.slots))
            for w in non_root
        ]
        for slot_combo in itertools.product(*slot_choices):
            slot_of = dict(zip(non_root, slot_combo))
            ds = realize_structure(tree, positional, slot_of)
            if next(_iter_from_domain_stage(ds, lex), None) is None:
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
    n = len(tokens)
    _check_size(n, config)
    entry_options = []
    for tok in tokens:
        opts = entries_for(tok, lex)
        if not opts:
            raise UnknownTokenError(tok)
        entry_options.append(opts)
    found: dict[str, DependencyStructure] = {}
    for entry_combo in itertools.product(*entry_options):
        words = tuple(
            WordToken(i, tok, entry)
            for i, (tok, entry) in enumerate(zip(tokens, entry_combo))
        )
        classes = {w.index: w.entry.word_class for w in words}
        slot_names = [tuple(s.dtype for s in e.valency) for e in entry_combo]
        for root, parent, dtype_of in _parent_maps(words, slot_names):
            edges = tuple(
                DependencyEdge(parent[w], w, dtype_of[w])
                for w in sorted(parent)
            )
            tree = DependencyTree(words, root, edges, classes)
            if not (validate_tree(tree, lex).ok and check_valency(tree, lex).ok):
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
    # when the tree does: one check covers every permutation
    if not (validate_tree(tree, lex).ok and check_valency(tree, lex).ok):
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
