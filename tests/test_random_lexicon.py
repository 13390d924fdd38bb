"""Engine equals oracle on seeded random lexica: the Tier-1 slice.

The lexica and the comparison live in ``random_lexicon``.  Unlike the
bundled fragment and the genitive lexicon, they have ``card <=`` and
``card >=`` bounds, ``before`` pair predicates and extraction sets of more
than one type, so a head-map filter, an arrangement filter or a placement
prune that drops a valid candidate shows up here.
"""

from random_lexicon import SLICE_SEEDS, run_seeds


def test_engine_equals_oracle_on_random_lexica():
    result = run_seeds(SLICE_SEEDS)
    assert result.disagreements == []
    # frozen from the oracle: 39 sentences per lexicon, and enough of them
    # with analyses that every filter has valid candidates to lose
    assert (result.sentences, result.with_analyses) == (468, 63)
    assert (result.trees, result.pairs) == (282, 3173)
