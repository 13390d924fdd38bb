"""The differential net's Tier-1 slice over the genitive lexicon, noun
phrases and clauses, over the verb-cluster lexicon, and past the oracle's
limit (sources in ``oracle_net``).

The genitive nouns are the only test entries whose inserted words realize
two domains, so a cardinality prune or an arrangement that keeps only one
of them, or a validator check that misreads them, shows up here.  The
verb clusters are the only ones whose objects climb across more than one
head.
"""

from oracle_net import (
    above_limit_nets,
    clause_nets,
    noun_phrase_nets,
    run_nets,
    verb_cluster_nets,
)


def test_engine_equals_oracle_on_genitive_noun_phrases():
    result = run_nets(noun_phrase_nets())
    assert result.disagreements == []
    # 258 sentences of up to 3 tokens over six forms, 256 of 4 over four;
    # 6 and 13 of them have analyses, with 6 and 21 distinct trees
    assert (result.sentences, result.with_analyses) == (514, 19)
    assert (result.trees, result.pairs) == (27, 253)
    # every placement in every word order; the valid ones are the pairs
    assert (result.judged, result.valid) == (8084, 253)


def test_engine_equals_oracle_on_genitive_clauses():
    # the verb-rooted lexicon: only the grammatical clause has analyses,
    # two of one tree, which is judged in its own order
    result = run_nets(clause_nets())
    assert result.disagreements == []
    assert (result.sentences, result.with_analyses) == (4, 1)
    assert (result.trees, result.pairs) == (1, 0)
    assert (result.judged, result.valid) == (864, 2)


def test_engine_equals_oracle_on_verb_clusters():
    # every order of "Hans will Maria sehen": the 8 with analyses put one
    # name or the infinitive's domain before "will", as ``card vf = 1`` asks
    result = run_nets(verb_cluster_nets())
    assert result.disagreements == []
    assert (result.sentences, result.with_analyses) == (24, 8)
    assert (result.trees, result.pairs) == (14, 252)
    assert (result.judged, result.valid) == (12096, 252)


def test_checks_past_the_oracle_limit():
    # the harness judges the 6 answers of the 10-token genitive clause, the
    # 66 of the 14-token one and the 384 of the 8-token verb cluster; the
    # 10-token clause's 3 trees regenerate 918 pairs over 125 surfaces,
    # and each surface parses back with its pairs' structures
    result = run_nets(above_limit_nets())
    assert result.disagreements == []
    assert (result.sentences, result.with_analyses, result.beyond) == (3, 3, 3)
    assert result.answers == 6 + 66 + 384
    assert (result.regenerated, result.surfaces) == (918, 125)
