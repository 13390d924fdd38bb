import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from odgrammar import canonical_structure, oracle_generate, parse, reference_lexicon


@pytest.fixture(scope="session")
def lex():
    return reference_lexicon()


@pytest.fixture(scope="session")
def key_structure(lex):
    """The unique analysis of the object-fronted sentence."""
    from corpus import KEY_SENTENCE

    result = parse(KEY_SENTENCE.split(), lex)
    assert len(result.structures) == 1
    return result.structures[0]


@pytest.fixture(scope="session")
def key_tree_oracle_pairs(lex, key_structure):
    """(surface, canonical structure) pairs of the key tree, from the oracle.

    The exhaustive enumeration takes about a minute, so a session runs it
    once for every test that compares against it.
    """
    pairs = oracle_generate(key_structure.tree, lex)
    return [(surface, canonical_structure(ds, lex)) for surface, ds in pairs]
