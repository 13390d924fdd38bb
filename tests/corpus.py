"""Shared test corpus over the bundled lexicon, plus two tiny custom lexica.

The expected structure counts were frozen from the exhaustive oracle; the
oracle tests re-derive them and the engine must agree with both.
"""

# (sentence, number of valid structures)
SENTENCES = [
    ("den Mann hat der Junge gesehen", 1),
    ("der Junge hat den Mann gesehen", 2),
    ("gesehen hat der Junge den Mann", 1),
    ("gesehen hat den Mann der Junge", 1),
    ("den Mann gesehen hat der Junge", 1),
    ("hat der Junge den Mann gesehen", 0),
    ("der Junge den Mann hat gesehen", 0),
    ("den Mann hat gesehen der Junge", 0),
    ("der Junge hat gesehen den Mann", 0),
    ("der Junge gesehen hat den Mann", 0),
    ("hat gesehen der Junge den Mann", 0),
    ("den Junge hat der Mann gesehen", 1),
    ("der Mann hat den Junge gesehen", 2),
    ("den Mann hat den Junge gesehen", 0),
    ("der Mann hat der Junge gesehen", 0),
    ("der Junge hat gesehen", 0),
    ("Junge hat den Mann gesehen", 0),
    ("der Junge hat den Mann", 0),
    ("gesehen den Mann hat der Junge", 0),
    ("den der hat Mann Junge gesehen", 0),
    ("der Junge", 0),
    ("hat", 0),
    ("gesehen", 0),
    ("der der Junge hat den Mann gesehen", 0),
    ("den Mann hat der Junge gesehen gesehen", 0),
]

GRAMMATICAL = [s for s, n in SENTENCES if n > 0]
UNGRAMMATICAL = [s for s, n in SENTENCES if n == 0]

# the one sentence with a unique analysis whose tree drives the order tests
KEY_SENTENCE = "den Mann hat der Junge gesehen"

# surface orders the key sentence's tree admits, frozen from the oracle
KEY_TREE_ORDERS = (
    "den Mann gesehen hat der Junge",
    "den Mann hat der Junge gesehen",
    "der Junge hat den Mann gesehen",
    "gesehen hat den Mann der Junge",
    "gesehen hat der Junge den Mann",
)

# (surface, structure) pair count for the same tree: the canonical order is
# realized twice, with and without object extraction
KEY_TREE_PAIRS = 6


# noun can stand alone as a root; its determiner is optional here
NOUN_ROOT_LEXICON = """
dtypes: det
classes: N Det
root: N

entry "Junge" class=N {
  slot det: class=Det extract {};
  domains [d] self=d;
  order self > *;
}

entry "der" class=Det {
  domains [d] self=d;
}
"""

# the root word demands both edges of its own domain at once; any dependent
# placed there makes realization impossible
CONTRADICTORY_LEXICON = """
dtypes: x
classes: A B
root: A

entry "a" class=A {
  slot x: class=B extract {};
  domains [d] self=d;
  order self < * in d;
  order self > * in d;
}

entry "b" class=B {
  domains [d] self=d;
}
"""

# the root hosts four optional one-word dependents in its only domain, and
# its order predicates admit one of the 120 arrangements of that domain
FAN_LEXICON = """
dtypes: a b c d
classes: R X
root: R

entry "r" class=R {
  slot a: class=X extract {};
  slot b: class=X extract {};
  slot c: class=X extract {};
  slot d: class=X extract {};
  domains [f] self=f;
  order self < * in f;
  order <a> before <b,c,d>;
  order <b> before <c,d>;
  order <c> before <d>;
}

entry "x" class=X {
  domains [e] self=e;
}
"""

# m must fill its second field, which admits only marked words, and its
# unmarked dependents may stay in its first field or rise to r's
DEAD_END_LEXICON = """
dtypes: m x y
classes: R M X
attr mark: yes
root: R

entry "r" class=R {
  slot m: class=M required extract {};
  domains [f] self=f;
}

entry "m" class=M {
  slot x: class=X required extract {m};
  slot y: class=X required extract {m};
  domains [e g] self=e;
  card g = 1;
  feat g mark=yes;
}

entry "x" class=X {
  domains [d] self=d;
}

entry "y" class=X {
  domains [d] self=d;
}
"""

# r takes an optional x; x's field e must hold exactly one domain, but x
# has no slot that could fill it
LEAF_BOUNDS_LEXICON = """
dtypes: x
classes: R X
root: R

entry "r" class=R {
  slot x: class=X optional extract {};
  domains [a] self=a;
}

entry "x" class=X {
  domains [d e] self=d;
  card e = 1;
}
"""

# Field y of "v" carries two domain-feature demands; "n" meets the first
# (f=a) and not the second (g=a), so the placement search must not offer
# field y to "n" at all.
TWO_DEMANDS_LEXICON = """
dtypes: o
classes: V N
attr f: a b
attr g: a b
root: V

entry "v" class=V {
  slot o: class=N optional extract {};
  domains [x y] self=x;
  feat y f=a;
  feat y g=a;
}

entry "n" class=N {
  feat f=a g=b;
  domains [d] self=d;
}
"""

# "v" orders its x dependent before its y dependent.  Its self field holds
# nothing but "v" itself, so both dependents share the field before it, and
# only there can the pair predicate fail.
PAIR_IN_FIELD_LEXICON = """
dtypes: x y
classes: V X Y
root: V

entry "v" class=V {
  slot x: class=X optional extract {};
  slot y: class=Y optional extract {};
  domains [f s] self=s;
  card s <= 1;
  order <x> before <y>;
}

entry "a" class=X {
  domains [d] self=d;
}

entry "b" class=Y {
  domains [d] self=d;
}
"""

# "v" orders its x dependent before its y dependent, and both may climb to
# the root "r", which orders nothing.  So the dependents of one tree share
# a field of either verb, the same slot (0) and the same members, and only
# in the field of "v" must "a" come first.
TWO_OWNERS_LEXICON = """
dtypes: c x y
classes: R V X Y
root: R

entry "r" class=R {
  slot c: class=V required extract {};
  domains [f s] self=s;
}

entry "v" class=V {
  slot x: class=X required extract {c};
  slot y: class=Y required extract {c};
  domains [f s] self=s;
  order <x> before <y>;
}

entry "a" class=X {
  domains [d] self=d;
}

entry "b" class=Y {
  domains [d] self=d;
}
"""

# "v" demands f=a of every member of its own field, itself included, and
# carries f=b, so no structure with "v" in it is valid.
SELF_DEMAND_LEXICON = """
dtypes: o
classes: V N
attr f: a b
root: V

entry "v" class=V {
  feat f=b;
  slot o: class=N optional extract {};
  domains [x] self=x;
  feat x f=a;
}

entry "n" class=N {
  feat f=a;
  domains [d] self=d;
}
"""
