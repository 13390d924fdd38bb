"""Text and JSON forms of trees and structures; exact round-trips."""

import copy
import dataclasses
import json
import random

import pytest

from odgrammar import (
    OrderDomain,
    OrderDomainStructure,
    SerializationError,
    ValidationReport,
    canonical_structure,
    parse_structure_json,
    parse_structure_text,
    parse_tree_json,
    parse_tree_text,
    realize_structure,
    render_structure_json,
    render_structure_text,
    render_tree_json,
    render_tree_text,
    validate_structure,
    validate_tree,
)

from harness import StructureSampler
from test_core import KEY_POSITIONAL, KEY_SLOTS, key_tree
from test_validate import with_word_unbound, without_form


@pytest.fixture()
def tree(lex):
    return key_tree(lex)


@pytest.fixture()
def ds(tree):
    return realize_structure(tree, KEY_POSITIONAL, KEY_SLOTS)


class TestTreeText:
    def test_round_trip(self, tree, lex):
        text = render_tree_text(tree, lex)
        assert parse_tree_text(text, lex) == tree

    def test_render_stable(self, tree, lex):
        assert render_tree_text(tree, lex) == render_tree_text(tree, lex)

    def test_entry_ordinals_pin_readings(self, tree, lex):
        text = render_tree_text(tree, lex)
        back = parse_tree_text(text, lex)
        # word 1 is the accusative reading of the noun
        assert back.words[1].entry.features == {"case": "acc"}
        assert back.words[4].entry.features == {"case": "nom"}

    def test_comments_and_reordering(self, tree, lex):
        lines = render_tree_text(tree, lex).strip().splitlines()
        shuffled = "\n".join(
            ["# analysis"] + lines[::-1] + ["", "# end"]
        )
        assert parse_tree_text(shuffled, lex) == tree

    def test_unknown_form(self, tree, lex):
        text = render_tree_text(tree, lex).replace("hat", "ist")
        with pytest.raises(SerializationError):
            parse_tree_text(text, lex)

    def test_ordinal_out_of_range(self, tree, lex):
        text = render_tree_text(tree, lex).replace("token 1 Mann 1", "token 1 Mann 9")
        with pytest.raises(SerializationError):
            parse_tree_text(text, lex)

    def test_missing_root(self, tree, lex):
        text = "\n".join(
            line
            for line in render_tree_text(tree, lex).splitlines()
            if not line.startswith("root")
        )
        with pytest.raises(SerializationError):
            parse_tree_text(text, lex)

    def test_garbage_record(self, lex):
        with pytest.raises(SerializationError):
            parse_tree_text("banana 0 1 2\n", lex)

    def test_bare_root_line(self, tree, lex):
        text = render_tree_text(tree, lex).replace("root 2", "root")
        with pytest.raises(SerializationError):
            parse_tree_text(text, lex)


class TestStructureText:
    def test_round_trip(self, ds, lex):
        text = render_structure_text(ds, lex)
        assert parse_structure_text(text, lex) == ds

    def test_canonical_equals_text(self, ds, lex):
        assert canonical_structure(ds, lex) == render_structure_text(ds, lex)

    def test_unrealized_slot_dash(self, ds, lex):
        text = render_structure_text(ds, lex)
        assert "assoc 2 d2.0 d2.1 -" in text

    def test_bare_root_line(self, ds, lex):
        text = render_structure_text(ds, lex).replace("root 2", "root")
        with pytest.raises(SerializationError):
            parse_structure_text(text, lex)

    def test_invalid_structure_round_trips(self, ds, lex):
        # serialization must preserve structures the validator rejects:
        # a wrong positional head, an empty domain (`ods.empty`) and an
        # empty sequence (`ds.assoc-arity`); fields are joined, so no line,
        # not even the empty domain's or sequence's, ends in a space
        domains = ds.domains
        empty_domain = OrderDomain("dx", frozenset())
        for bad in (
            dataclasses.replace(ds, positional={**ds.positional, 0: 2}),
            dataclasses.replace(
                ds,
                domains=OrderDomainStructure(
                    domains.domains + (empty_domain,), domains.assoc
                ),
            ),
            dataclasses.replace(
                ds,
                domains=OrderDomainStructure(
                    domains.domains, {**domains.assoc, 0: ()}
                ),
            ),
        ):
            text = render_structure_text(bad, lex)
            assert parse_structure_text(text, lex) == bad
            assert not [line for line in text.splitlines() if line.endswith(" ")]

    def test_text_round_trip_equals_json_round_trip(self, lex):
        sampler = StructureSampler(1)
        for _ in range(5000):
            x = sampler.next_instance()
            if x is None:
                continue
            from_json = parse_structure_json(render_structure_json(x, lex), lex)
            from_text = parse_structure_text(render_structure_text(x, lex), lex)
            assert from_text == from_json

    def test_structures_differing_only_in_domains_differ(self, tree, lex):
        continuous = realize_structure(
            tree,
            {**KEY_POSITIONAL, 1: 5},
            {**KEY_SLOTS, 1: 0},
        )
        extracted = realize_structure(tree, KEY_POSITIONAL, KEY_SLOTS)
        assert canonical_structure(continuous, lex) != canonical_structure(
            extracted, lex
        )


class TestReaderErrors:
    """The text reader's error messages, each pinned in full with its line."""

    @pytest.mark.parametrize(
        "record, message",
        [
            ("root", "line 2: root lines are 'root INDEX'"),
            ("root 0 1", "line 2: root lines are 'root INDEX'"),
            ("edge 0 det", "line 2: edge lines are 'edge HEAD DTYPE DEP'"),
            ("domain", "line 2: domain lines are 'domain ID MEMBER...'"),
            ("assoc", "line 2: assoc lines are 'assoc WORD SLOT...'"),
            ("positional 1", "line 2: positional lines are 'positional WORD HEAD'"),
            ("token 0 der 0", "line 2: token lines need index, form, entry, class"),
            ("token 0 der 0 Det case", "line 2: expected ATTR=VALUE, found 'case'"),
        ],
    )
    def test_message(self, lex, record, message):
        with pytest.raises(SerializationError) as exc:
            parse_structure_text(f"root 0\n{record}\n", lex)
        assert str(exc.value) == message


class TestJson:
    def test_tree_round_trip(self, tree, lex):
        blob = render_tree_json(tree, lex)
        assert parse_tree_json(blob, lex) == tree

    def test_structure_round_trip(self, ds, lex):
        blob = render_structure_json(ds, lex)
        assert parse_structure_json(blob, lex) == ds

    def test_json_is_compact_and_sorted(self, ds, lex):
        blob = render_structure_json(ds, lex)
        obj = json.loads(blob)
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == blob

    @pytest.mark.parametrize(
        "field, value", [("assoc", {"x": []}), ("positional", {"x": 1})]
    )
    def test_json_rejects_non_integer_word_key(self, ds, lex, field, value):
        obj = json.loads(render_structure_json(ds, lex))
        obj[field] = value
        with pytest.raises(SerializationError):
            parse_structure_json(json.dumps(obj), lex)

    @pytest.mark.parametrize("field", ["assoc", "positional"])
    @pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0"])
    def test_json_rejects_aliased_word_key(self, ds, lex, field, key):
        # int() reads each of these keys as a word index, so without the
        # check the later key would silently replace word 1's entry
        obj = json.loads(render_structure_json(ds, lex))
        obj[field][key] = obj[field]["1"]
        with pytest.raises(SerializationError, match="not a canonical word index"):
            parse_structure_json(json.dumps(obj), lex)

    @pytest.mark.parametrize(
        "field, value, finding",
        [
            ("assoc", ["d2.0"], ("ods.assoc-range", (-1,))),
            ("positional", 2, ("ds.positional-extra", (-1,))),
        ],
    )
    def test_json_negative_word_key_is_read(self, ds, lex, field, value, finding):
        # "-1" is canonical: it parses, and the validator reports the word
        obj = json.loads(render_structure_json(ds, lex))
        obj[field]["-1"] = value
        report = validate_structure(parse_structure_json(json.dumps(obj), lex), lex)
        assert [(v.condition, v.subjects) for v in report.violations] == [finding]

    @pytest.mark.parametrize("field", ["assoc", "positional"])
    @pytest.mark.parametrize("value", [[], 3, "x", None])
    def test_json_rejects_non_object_word_map(self, ds, lex, field, value):
        obj = json.loads(render_structure_json(ds, lex))
        obj[field] = value
        with pytest.raises(SerializationError, match="must be an object"):
            parse_structure_json(json.dumps(obj), lex)

    def test_wrongly_typed_values_are_reported_or_rejected(self, ds, lex):
        blob = render_structure_json(ds, lex)
        outcomes = _outcomes(
            _substitutions(blob),
            lambda text: validate_structure(parse_structure_json(text, lex), lex),
        )
        assert outcomes == {"rejected": 971, "reported": 190}

    def test_wrongly_typed_tree_values_are_reported_or_rejected(self, tree, lex):
        blob = render_tree_json(tree, lex)
        outcomes = _outcomes(
            _substitutions(blob),
            lambda text: validate_tree(parse_tree_json(text, lex), lex),
        )
        assert outcomes == {"rejected": 420, "reported": 66}

    def test_multi_field_edits_are_reported_or_rejected(self, ds, lex):
        blob = render_structure_json(ds, lex)
        outcomes = _outcomes(
            _multi_field_edits(blob, seed=3, count=2000),
            lambda text: validate_structure(parse_structure_json(text, lex), lex),
        )
        assert min(outcomes.values()) > 0, outcomes

    def test_multi_field_tree_edits_are_reported_or_rejected(self, tree, lex):
        blob = render_tree_json(tree, lex)
        outcomes = _outcomes(
            _multi_field_edits(blob, seed=4, count=2000),
            lambda text: validate_tree(parse_tree_json(text, lex), lex),
        )
        assert min(outcomes.values()) > 0, outcomes

    def test_json_rejects_junk(self, lex):
        with pytest.raises(SerializationError):
            parse_structure_json("{\"words\": 3}", lex)
        with pytest.raises(SerializationError):
            parse_structure_json("not json", lex)


RENDERERS = {
    "render_structure_text": (render_structure_text, False),
    "render_structure_json": (render_structure_json, False),
    "render_tree_text": (render_tree_text, True),
    "render_tree_json": (render_tree_json, True),
    "canonical_structure": (canonical_structure, False),
}


class TestUnwritableWords:
    """A word the lexicon cannot name is refused with the word's index."""

    @pytest.mark.parametrize("name", RENDERERS)
    @pytest.mark.parametrize(
        "malformed, message",
        [
            ("unbound", "word 0 is not bound to a lexical entry"),
            (
                "foreign",
                "word 4 is bound to an entry the lexicon does not hold for 'Junge'",
            ),
        ],
    )
    def test_refused(self, ds, lex, name, malformed, message):
        render, takes_tree = RENDERERS[name]
        if malformed == "unbound":
            ds = with_word_unbound(ds, 0)
        else:
            lex = without_form(lex, "Junge")
        with pytest.raises(SerializationError) as caught:
            render(ds.tree if takes_tree else ds, lex)
        assert str(caught.value) == message


# Values of every JSON type, and integers out of any word range, put in
# place of each value of a serialized form.
_SUBSTITUTES = [[], 3, "x", None, {}, -1, 99, 1.5, True]


def _json_paths(obj, prefix=()):
    """The path of ``obj`` itself and of every value nested in it."""
    yield prefix
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


def _at(obj, path):
    """The value at ``path`` in ``obj``."""
    for key in path:
        obj = obj[key]
    return obj


def _substitutions(blob):
    """Every one-value substitution of ``blob``, as JSON text."""
    obj = json.loads(blob)
    for path in _json_paths(obj):
        for value in _SUBSTITUTES:
            if path:
                edited = copy.deepcopy(obj)
                _at(edited, path[:-1])[path[-1]] = value
            else:
                edited = value
            yield json.dumps(edited)


def _multi_field_edits(blob, seed, count):
    """``count`` seeded edits of ``blob``, as JSON text.

    Each edit changes one to three values in turn: it removes the value at
    a path from its parent, or puts one of ``_SUBSTITUTES`` or a copy of a
    value found anywhere in ``blob`` in its place.
    """
    rng = random.Random(seed)
    obj = json.loads(blob)
    values = _SUBSTITUTES + [_at(obj, path) for path in _json_paths(obj)]
    for _ in range(count):
        edited = copy.deepcopy(obj)
        for _ in range(rng.randint(1, 3)):
            paths = [path for path in _json_paths(edited) if path]
            if not paths:
                break
            path = rng.choice(paths)
            parent = _at(edited, path[:-1])
            if rng.random() < 0.2:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(rng.choice(values))
        yield json.dumps(edited)


def _outcomes(texts, read_and_check):
    """Count how reading and checking each text ends.

    ``read_and_check`` reads a text and validates the result; it must
    return a report or raise SerializationError, never anything else.
    """
    outcomes = {"rejected": 0, "reported": 0}
    for text in texts:
        try:
            report = read_and_check(text)
        except SerializationError:
            outcomes["rejected"] += 1
            continue
        assert isinstance(report, ValidationReport), text
        outcomes["reported"] += 1
    return outcomes
