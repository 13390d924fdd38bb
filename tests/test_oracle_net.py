"""Engine equals oracle on the genitive lexicon: noun phrases and clauses.

The sentences and the comparison live in ``oracle_net``; this is its
Tier-1 slice.  Its nouns are the only test entries whose inserted words
realize two domains, so a cardinality prune or an arrangement that keeps
only one of them shows up here.
"""

from oracle_net import (
    CLAUSES,
    clause_lexicon,
    noun_root_lexicon,
    run_net,
    slice_sentences,
)


def test_engine_equals_oracle_on_genitive_noun_phrases():
    result = run_net(slice_sentences(), noun_root_lexicon())
    assert result.disagreements == []
    # 258 sentences of up to 3 tokens over six forms, 256 of 4 over four;
    # 6 and 13 of them have analyses, with 6 and 21 distinct trees
    assert (result.sentences, result.with_analyses, result.trees) == (514, 19, 27)
    assert result.pairs == 253


def test_engine_equals_oracle_on_genitive_clauses():
    # the verb-rooted lexicon: only the grammatical clause has analyses
    result = run_net((c.split() for c in CLAUSES), clause_lexicon(), trees=False)
    assert result.disagreements == []
    assert (result.sentences, result.with_analyses, result.trees) == (4, 1, 0)
