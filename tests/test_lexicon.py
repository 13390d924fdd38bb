"""Lexicon format: loading, validation, rendering, round-trips."""

import dataclasses

import pytest

from odgrammar import (
    CardinalityConstraint,
    DomainFeatureRequirement,
    DomainTemplate,
    LexicalEntry,
    LexiconError,
    ValencySlot,
    entries_for,
    load_lexicon,
    reference_lexicon,
    reference_lexicon_text,
    render_lexicon,
)
from odgrammar.lexicon import _TokenStream

MINIMAL = """
dtypes: det
classes: N Det
root: N

entry "Haus" class=N {
  slot det: class=Det extract {};
  domains [d] self=d;
  order self > *;
}
"""


class TestInventories:
    def test_reference_inventories(self, lex):
        assert lex.dtypes == ("subj", "obj", "vpart", "det", "propo")
        assert lex.classes == ("Vfin", "Vpart", "N", "Det")
        assert lex.attributes["case"] == ("nom", "acc", "dat", "gen")
        assert lex.attributes["extrapos"] == ("yes",)
        assert lex.root_classes == ("Vfin",)

    def test_entry_count(self, lex):
        assert sum(len(es) for es in lex.entries.values()) == 8
        assert sorted(lex.entries) == [
            "Junge", "Mann", "den", "der", "gesehen", "hat",
        ]

    def test_undeclared_dtype(self):
        with pytest.raises(LexiconError, match="not declared"):
            load_lexicon(MINIMAL.replace("slot det:", "slot gen:"))

    def test_undeclared_class(self):
        with pytest.raises(LexiconError, match="not declared"):
            load_lexicon(MINIMAL.replace("class=N", "class=V"))

    def test_undeclared_root_class(self):
        with pytest.raises(LexiconError, match="root class"):
            load_lexicon(MINIMAL.replace("root: N", "root: V"))

    def test_undeclared_attribute(self):
        bad = MINIMAL.replace("class=N {", "class=N {\n  feat case=nom;")
        with pytest.raises(LexiconError, match="attribute 'case'"):
            load_lexicon(bad)

    def test_undeclared_value(self):
        bad = "attr case: nom\n" + MINIMAL.replace(
            "class=N {", "class=N {\n  feat case=acc;"
        )
        with pytest.raises(LexiconError, match="value 'acc'"):
            load_lexicon(bad)

    def test_duplicate_symbol(self):
        with pytest.raises(LexiconError, match="duplicate symbol"):
            load_lexicon(MINIMAL.replace("dtypes: det", "dtypes: det det"))

    @pytest.mark.parametrize(
        "text, message",
        [
            # MINIMAL's root line is its line 4
            (MINIMAL.replace("root: N", "root: V"), "line 4, col 1: root class 'V'"),
            (MINIMAL + "dtypes: gen det\n", "line 11, col 1: duplicate symbol in dtypes"),
            (MINIMAL + "\nclasses: V N\n", "line 12, col 1: duplicate symbol in classes"),
        ],
    )
    def test_inventory_errors_name_the_declaring_line(self, text, message):
        with pytest.raises(LexiconError) as info:
            load_lexicon(text)
        assert str(info.value).startswith(message)


    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("dtypes: det", 'dtypes ":" det', "expected ':' after dtypes"),
            ("root: N", 'root: N\nattr case ":" nom', "expected 'attr NAME: VALUE"),
            ("root: N", 'root: N\nattr case: "nom"', "expected 'attr NAME: VALUE"),
        ],
        ids=["dtypes-colon", "attr-colon", "attr-value"],
    )
    def test_quoted_text_is_no_declaration(self, old, new, message):
        with pytest.raises(LexiconError, match=message):
            load_lexicon(MINIMAL.replace(old, new))


class TestEntryParsing:
    def test_entry_details(self, lex):
        verb = entries_for("hat", lex)[0]
        assert verb.word_class == "Vfin"
        assert verb.template.slots == ("vf", "mf", "nf")
        assert verb.template.self_slot == 1
        subj = verb.slot_for("subj")
        assert subj.required and subj.dep_class == "N"
        assert subj.features == {"case": "nom"}
        assert subj.extraction == frozenset()
        assert verb.slot_for("obj") is None

    def test_extraction_set(self, lex):
        part = entries_for("gesehen", lex)[0]
        assert part.slot_for("obj").extraction == frozenset({"vpart"})

    def test_cardinality_and_domain_feature(self, lex):
        verb = entries_for("hat", lex)[0]
        card = verb.cardinalities[0]
        assert (card.slot, card.min, card.max) == (0, 1, 1)
        req = verb.domain_features[0]
        assert (req.slot, req.required) == (2, {"extrapos": "yes"})

    def test_predicates(self, lex):
        verb = entries_for("hat", lex)[0]
        assert [p.render() for p in verb.predicates] == [
            "self < *",
            "<vpart> after <subj,obj>",
        ]

    def test_duplicate_slot(self):
        bad = MINIMAL.replace(
            "slot det: class=Det extract {};",
            "slot det: class=Det extract {};\n  slot det: extract {};",
        )
        with pytest.raises(LexiconError, match="duplicate slot"):
            load_lexicon(bad)

    def test_missing_domains(self):
        bad = MINIMAL.replace("  domains [d] self=d;\n", "")
        with pytest.raises(LexiconError, match="declares no domains"):
            load_lexicon(bad)

    def test_duplicate_domains(self):
        bad = MINIMAL.replace(
            "domains [d] self=d;", "domains [d] self=d;\n  domains [e] self=e;"
        )
        with pytest.raises(LexiconError, match="domains declared twice"):
            load_lexicon(bad)

    def test_self_outside_template(self):
        with pytest.raises(LexiconError, match="not a template slot"):
            load_lexicon(MINIMAL.replace("self=d", "self=q"))

    def test_indistinct_template(self):
        with pytest.raises(LexiconError, match="distinct"):
            load_lexicon(MINIMAL.replace("[d]", "[d d]"))

    def test_scope_must_be_self_slot(self):
        bad = """
dtypes: det
classes: N Det
root: N

entry "Haus" class=N {
  slot det: class=Det extract {};
  domains [a b] self=b;
  order self > * in a;
}
"""
        with pytest.raises(LexiconError, match="self slot"):
            load_lexicon(bad)

    def test_unsupported_bound(self):
        bad = MINIMAL.replace(
            "domains [d] self=d;", "domains [d] self=d;\n  card d = 2;"
        )
        with pytest.raises(LexiconError, match="other than 1"):
            load_lexicon(bad)

    def test_card_slot_must_exist(self):
        bad = MINIMAL.replace(
            "domains [d] self=d;", "domains [d] self=d;\n  card q = 1;"
        )
        with pytest.raises(LexiconError, match="not a template slot"):
            load_lexicon(bad)

    def test_error_carries_position(self):
        try:
            load_lexicon(MINIMAL.replace("root: N", "root: V"))
        except LexiconError as exc:
            assert exc.line is not None
        else:
            pytest.fail("expected a LexiconError")

    def test_unknown_statement(self):
        bad = MINIMAL.replace(
            "order self > *;", "order self > *;\n  linear self first;"
        )
        with pytest.raises(LexiconError, match="unexpected 'linear'"):
            load_lexicon(bad)

    def test_comments_and_blank_lines(self):
        text = "# top comment\n\n" + MINIMAL + "\n# trailing\n"
        loaded = load_lexicon(text)
        assert entries_for("Haus", loaded)

    @pytest.mark.parametrize("form", ["{", "}"])
    def test_quoted_brace_is_a_form(self, form):
        loaded = load_lexicon(MINIMAL.replace('"Haus"', f'"{form}"'))
        assert [e.word_class for e in entries_for(form, loaded)] == ["N"]
        assert load_lexicon(render_lexicon(loaded)) == loaded

    def test_quoted_brace_does_not_open_an_entry(self):
        with pytest.raises(LexiconError, match="line 6, col 1: expected '{'"):
            load_lexicon(MINIMAL.replace('class=N {', 'class=N "{"'))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("class=N {", 'class"="N {', "line 6, col 19: expected '=', found \"=\""),
            (
                "domains [d] self=d;",
                'domains "[" d "]" self"="d ";"',
                "line 8, col 11: expected '[', found \"[\"",
            ),
            (
                "class=Det extract",
                'class"="Det extract',
                "line 7, col 18: expected '=', found \"=\"",
            ),
            (
                "extract {};",
                'extract "{" "}";',
                "line 7, col 31: expected '{', found \"{\"",
            ),
            (
                "order self > *;",
                'order "self" > *;',
                "line 9, col 9: expected '<', found \"self\"",
            ),
            (
                "domains [d] self=d;",
                'domains [d] self=d;\n  card d = "1";',
                "line 9, col 12: cardinality bounds other than 1 are not supported",
            ),
            (
                'entry "Haus"',
                '"entry" "Haus"',
                'line 6, col 1: unexpected "entry" at top level',
            ),
        ],
        ids=[
            "header-equals",
            "template",
            "slot-class-equals",
            "extract-braces",
            "order-self",
            "card-bound",
            "entry-keyword",
        ],
    )
    def test_quoted_text_is_only_a_form(self, old, new, message):
        # quoted punctuation or keywords read as forms, so they never stand
        # in for the real ones, and the message shows the quotes
        with pytest.raises(LexiconError) as exc:
            load_lexicon(MINIMAL.replace(old, new))
        assert str(exc.value) == message

    def test_quoted_equals_does_not_make_a_feature_pair(self):
        text = MINIMAL.replace("root: N", "root: N\nattr case: nom").replace(
            "domains [d] self=d;", 'feat case"="nom;\n  domains [d] self=d;'
        )
        with pytest.raises(LexiconError, match="expected ATTR=VALUE"):
            load_lexicon(text)

    def test_cardinality_inequalities(self):
        for op, bounds in (("=", (1, 1)), ("<=", (0, 1)), (">=", (1, None))):
            statement = f"card d {op} 1;"
            text = MINIMAL.replace(
                "domains [d] self=d;", f"domains [d] self=d;\n  {statement}"
            )
            loaded = load_lexicon(text)
            card = entries_for("Haus", loaded)[0].cardinalities[0]
            assert (card.min, card.max) == bounds
            assert f"  {statement}\n" in render_lexicon(loaded)


# MINIMAL with one attribute declared, so that rows can state features
WITH_CASE = MINIMAL.replace("root: N", "root: N\nattr case: nom")


class TestReaderErrors:
    """The reader's error messages, each pinned in full with its position."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('entry "Haus"', 'entry "Haus', "line 7, col 7: cannot read '\"'"),
            (
                "attr case: nom",
                "attr case: nom\nattr case: acc",
                "line 6, col 1: attribute 'case' declared twice",
            ),
            (
                "domains [d] self=d;",
                "feat case=nom case=nom;\n  domains [d] self=d;",
                "line 9, col 17: attribute 'case' given twice",
            ),
            (
                '"Haus"',
                '""',
                "line 7, col 7: entry forms must be non-empty and free of whitespace",
            ),
            (
                '"Haus"',
                '"Ha us"',
                "line 7, col 7: entry forms must be non-empty and free of whitespace",
            ),
            (
                "order self > *;",
                "order self <= *;",
                "line 10, col 14: expected '<' or '>', found '<='",
            ),
            (
                "order self > *;",
                "order <det> beside <det>;",
                "line 10, col 15: expected 'before' or 'after', found 'beside'",
            ),
            (
                "order self > *;\n}",
                "order self > *;\n} x",
                "line 11, col 3: unexpected 'x' after entry body",
            ),
        ],
        ids=[
            "unclosed-quote",
            "attribute-declared-twice",
            "attribute-given-twice",
            "empty-form",
            "form-with-space",
            "self-order-operator",
            "pair-order-relation",
            "after-entry-body",
        ],
    )
    def test_message(self, old, new, message):
        with pytest.raises(LexiconError) as exc:
            load_lexicon(WITH_CASE.replace(old, new))
        assert str(exc.value) == message

    def test_end_of_statement(self):
        # load_lexicon hands the parser blocks that end in the entry's
        # closing brace, and no statement reads past it without failing
        # first, so only the token stream itself reaches this guard
        with pytest.raises(LexiconError) as exc:
            _TokenStream([], 7).next()
        assert str(exc.value) == "line 7, col 1: unexpected end of statement"


class TestEntryModel:
    """Entries built in code keep the rules the reader enforces."""

    def test_two_slots_of_one_dependency_type_are_refused(self):
        # the head-map search would read the first slot, valency the last
        slots = (ValencySlot("obj", dep_class="X"), ValencySlot("obj", dep_class="N"))
        with pytest.raises(ValueError, match="must be distinct"):
            LexicalEntry("a", "V", valency=slots)

    @pytest.mark.parametrize(
        "field, constraint",
        [
            ("cardinalities", CardinalityConstraint(3, 0, 1)),
            ("domain_features", DomainFeatureRequirement(1, {"case": "nom"})),
        ],
    )
    def test_constraint_slots_lie_in_the_template(self, field, constraint):
        template = DomainTemplate(("d",), 0)
        with pytest.raises(ValueError, match="slot out of range"):
            LexicalEntry("a", "V", template=template, **{field: (constraint,)})

    @pytest.mark.parametrize(
        "slots, self_slot, message",
        [
            ((), 0, "a template needs at least one slot"),
            (("a",), 1, "self slot out of range"),
            (("a", "a"), 0, "template slot names must be distinct"),
        ],
    )
    def test_template_rules(self, slots, self_slot, message):
        with pytest.raises(ValueError) as exc:
            DomainTemplate(slots, self_slot)
        assert str(exc.value) == message


class TestLookup:
    def test_exact_and_case_sensitive(self, lex):
        assert len(entries_for("Mann", lex)) == 2
        assert entries_for("mann", lex) == ()
        assert entries_for("Haus", lex) == ()

    def test_entry_ordinal(self, lex):
        nom, acc = entries_for("Mann", lex)
        assert lex.entry_ordinal(nom) == 0
        assert lex.entry_ordinal(acc) == 1

    def test_entry_ordinal_of_a_foreign_entry(self, lex):
        with pytest.raises(ValueError) as exc:
            lex.entry_ordinal(LexicalEntry("Haus", "N"))
        assert str(exc.value) == "entry for 'Haus' is not in this lexicon"


class TestRoundTrip:
    def test_render_load_identity(self, lex):
        rendered = render_lexicon(lex)
        assert load_lexicon(rendered) == lex

    def test_render_is_fixed_point(self, lex):
        once = render_lexicon(lex)
        twice = render_lexicon(load_lexicon(once))
        assert once == twice

    def test_reference_text_loads_to_reference(self):
        assert load_lexicon(reference_lexicon_text()) == reference_lexicon()

    def test_minimal_round_trip(self):
        loaded = load_lexicon(MINIMAL)
        assert load_lexicon(render_lexicon(loaded)) == loaded

    @pytest.mark.parametrize(
        "field, constraint, message",
        [
            (
                "cardinalities",
                CardinalityConstraint(0),
                "card cannot state min 0 and max None",
            ),
            (
                "domain_features",
                DomainFeatureRequirement(0, {}),
                "feat needs at least one ATTR=VALUE",
            ),
        ],
        ids=["card-optional-unbounded", "feat-empty"],
    )
    def test_render_refuses_what_the_format_cannot_write(
        self, field, constraint, message
    ):
        loaded = load_lexicon(MINIMAL)
        (entry,) = loaded.entries["Haus"]
        entry = dataclasses.replace(entry, **{field: (constraint,)})
        lex = dataclasses.replace(loaded, entries={"Haus": (entry,)})
        with pytest.raises(ValueError) as exc:
            render_lexicon(lex)
        assert str(exc.value) == message
