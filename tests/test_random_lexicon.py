"""The differential net's Tier-1 slice over seeded random lexica (sources
in ``oracle_net``, lexica in ``random_lexicon``).

Unlike the bundled fragment and the genitive lexicon, these have
``card <=`` and ``card >=`` bounds, ``before`` pair predicates and
extraction sets of more than one type, so a head-map filter, an
arrangement filter or a placement prune that drops a valid candidate shows
up here, and so does a constraint test that the engine and the validator
share but the harness does not.
"""

from oracle_net import random_nets, run_nets


def test_engine_equals_oracle_on_random_lexica():
    result = run_nets(random_nets())
    assert result.disagreements == []
    # frozen from the oracle: 39 sentences per lexicon, and enough of them
    # with analyses that every filter has valid candidates to lose
    assert (result.sentences, result.with_analyses) == (468, 63)
    assert (result.trees, result.pairs) == (282, 3173)
    # every placement in every word order; the valid ones are the pairs
    assert (result.judged, result.valid) == (15538, 3173)
