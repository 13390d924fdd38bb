"""Engine equals oracle, and validator equals harness, on seeded random
lexica: the Tier-1 slice.

The lexica and the comparisons live in ``random_lexicon``.  Unlike the
bundled fragment and the genitive lexicon, they have ``card <=`` and
``card >=`` bounds, ``before`` pair predicates and extraction sets of more
than one type, so a head-map filter, an arrangement filter or a placement
prune that drops a valid candidate shows up here.  The engine's prunes and
the validator share each constraint's test, so a fault in that test would
agree with itself; the harness's independent verdict on every placement
catches it.
"""

from random_lexicon import SLICE_SEEDS, run_seeds


def test_engine_equals_oracle_on_random_lexica():
    result = run_seeds(SLICE_SEEDS)
    assert result.disagreements == []
    # frozen from the oracle: 39 sentences per lexicon, and enough of them
    # with analyses that every filter has valid candidates to lose
    assert (result.sentences, result.with_analyses) == (468, 63)
    assert (result.trees, result.pairs) == (282, 3173)
    # every placement of every analysed tree in every word order; the valid
    # ones are exactly the oracle's pairs
    assert (result.candidates, result.valid) == (15538, 3173)
