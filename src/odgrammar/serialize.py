"""Text and JSON serialization of trees and structures.

The text form is line oriented; every line starts with a record keyword,
and ``#`` starts a comment.  The records, with the fields each takes:

    token INDEX FORM ENTRY CLASS ATTR=VALUE...
    root INDEX
    edge HEAD DTYPE DEP
    domain ID MEMBER...
    assoc WORD SLOT...
    positional WORD HEAD

A field marked ``...`` repeats and may be absent: ``domain ID`` is an empty
domain and ``assoc WORD`` an empty sequence.  A SLOT is a domain id, or
``-`` for a slot left empty.  A tree takes the first three records only.
ENTRY is the entry ordinal (the entry's position among those sharing its
form in the lexicon), so that deserialization restores the exact entry
even when a form is ambiguous.  Rendering is canonical:
sorted records, sorted feature pairs, one space between fields.  Parsing
the rendered form restores the value exactly when each domain id, class
and dependency type is non-empty, no domain id in a sequence is ``-``,
none of them nor any attribute or feature value holds whitespace or
``#``, and no attribute holds ``=``.  Fields are written as given, so
other values read back as something else or not at all: ``-`` as an
empty slot, ``#`` as the start of a comment, whitespace as a field
break.  The JSON form has no such limit.  The round trip also holds for
structures that would not validate, since the class and feature columns
are stored as given rather than recomputed from entries.
"""

from __future__ import annotations

import json

from .core import (
    DependencyEdge,
    DependencyStructure,
    DependencyTree,
    FeatureMap,
    OrderDomain,
    OrderDomainStructure,
    WordToken,
)
from .lexicon import LexicalEntry, Lexicon, entries_for


class SerializationError(Exception):
    """Malformed serialized input."""


def _feat_fields(features: dict[str, str]) -> list[str]:
    return [f"{a}={v}" for a, v in sorted(features.items())]


def _parse_feats(fields: list[str], line_no: int) -> dict[str, str]:
    feats = {}
    for field in fields:
        if "=" not in field:
            raise SerializationError(
                f"line {line_no}: expected ATTR=VALUE, found {field!r}"
            )
        attr, value = field.split("=", 1)
        feats[attr] = value
    return feats


def _resolve_entry(
    form: str, ordinal: int, lex: Lexicon, line_no: int | None = None
) -> LexicalEntry:
    where = f"line {line_no}: " if line_no is not None else ""
    bucket = entries_for(form, lex)
    if not bucket:
        raise SerializationError(f"{where}no lexicon entry for form {form!r}")
    if not 0 <= ordinal < len(bucket):
        raise SerializationError(
            f"{where}form {form!r} has {len(bucket)} entries; "
            f"ordinal {ordinal} out of range"
        )
    return bucket[ordinal]


def _entry_ordinal(w: WordToken, lex: Lexicon) -> int:
    """The ordinal of ``w``'s entry; SerializationError when ``w`` is bound
    to no entry or to one the lexicon does not hold for its form."""
    try:
        return lex.entry_ordinal(w.entry)
    except (AttributeError, ValueError):
        bound = (
            "not bound to a lexical entry"
            if w.entry is None
            else f"bound to an entry the lexicon does not hold for {w.form!r}"
        )
        raise SerializationError(f"word {w.index} is {bound}") from None


# ---------------------------------------------------------------------------
# text form


def _tree_lines(tree: DependencyTree, lex: Lexicon, features: FeatureMap) -> list[str]:
    """Token, root and edge lines; a tree passes no features."""
    lines = []
    for w in tree.words:
        fields = [
            "token",
            str(w.index),
            w.form,
            str(_entry_ordinal(w, lex)),
            tree.classes[w.index],
        ]
        fields.extend(_feat_fields(features.get(w.index, {})))
        lines.append(" ".join(fields))
    lines.append(f"root {tree.root}")
    for e in tree.edges:
        lines.append(f"edge {e.head} {e.dtype} {e.dependent}")
    return lines


def render_tree_text(tree: DependencyTree, lex: Lexicon) -> str:
    return "\n".join(_tree_lines(tree, lex, {})) + "\n"


def render_structure_text(ds: DependencyStructure, lex: Lexicon) -> str:
    lines = _tree_lines(ds.tree, lex, ds.features)
    for d in ds.domains.domains:
        lines.append(" ".join([f"domain {d.id}", *map(str, d.sorted_members())]))
    for w, seq in ds.domains.assoc.items():
        slots = ["-" if did is None else did for did in seq]
        lines.append(" ".join([f"assoc {w}", *slots]))
    for w, p in ds.positional.items():
        lines.append(f"positional {w} {p}")
    return "\n".join(lines) + "\n"


def _scan_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _int(field: str, line_no: int) -> int:
    try:
        return int(field)
    except ValueError:
        raise SerializationError(
            f"line {line_no}: expected an integer, found {field!r}"
        ) from None


# the fields after each keyword but ``token``, as the arity error states them
_RECORDS = {
    "root": "INDEX",
    "edge": "HEAD DTYPE DEP",
    "domain": "ID MEMBER...",
    "assoc": "WORD SLOT...",
    "positional": "WORD HEAD",
}
_TREE_RECORDS = frozenset({"token", "root", "edge"})
_STRUCTURE_RECORDS = _TREE_RECORDS.union(_RECORDS)


def _read_text(text: str, lex: Lexicon, what: str) -> DependencyStructure:
    """Read the text form of a ``what`` ("tree" or "structure").

    A tree is returned inside a structure whose other fields stay empty.
    """
    allowed = _TREE_RECORDS if what == "tree" else _STRUCTURE_RECORDS
    token_records = []
    root = None
    edges = []
    domains = []
    assoc = {}
    positional = {}
    for line_no, fields in _scan_lines(text):
        kind = fields[0]
        if kind not in allowed:
            raise SerializationError(
                f"line {line_no}: unknown record {kind!r} in a {what}"
            )
        if kind == "token":
            token_records.append((line_no, fields))
            continue
        # _int turns int()'s ValueError into a SerializationError, so a
        # ValueError here comes from a record that does not unpack
        try:
            if kind == "root":
                _, index = fields
                root = _int(index, line_no)
            elif kind == "edge":
                _, head, dtype, dep = fields
                head, dep = _int(head, line_no), _int(dep, line_no)
                edges.append(DependencyEdge(head, dep, dtype))
            elif kind == "domain":
                _, did, *members = fields
                members = frozenset(_int(m, line_no) for m in members)
                domains.append(OrderDomain(did, members))
            elif kind == "assoc":
                _, word, *seq = fields
                assoc[_int(word, line_no)] = tuple(None if f == "-" else f for f in seq)
            else:
                _, word, head = fields
                positional[_int(word, line_no)] = _int(head, line_no)
        except ValueError:
            raise SerializationError(
                f"line {line_no}: {kind} lines are '{kind} {_RECORDS[kind]}'"
            ) from None
    if root is None:
        raise SerializationError(f"{what} input lacks a root record")
    words = []
    classes = {}
    features = {}
    for line_no, fields in token_records:
        if len(fields) < 5:
            raise SerializationError(
                f"line {line_no}: token lines need index, form, entry, class"
            )
        _, index, form, ordinal, cls, *feats = fields
        index = _int(index, line_no)
        entry = _resolve_entry(form, _int(ordinal, line_no), lex, line_no)
        words.append(WordToken(index, form, entry))
        classes[index] = cls
        features[index] = _parse_feats(feats, line_no)
    return DependencyStructure(
        tree=DependencyTree(tuple(words), root, tuple(edges), classes),
        features=features,
        domains=OrderDomainStructure(tuple(domains), assoc),
        positional=positional,
    )


def parse_tree_text(text: str, lex: Lexicon) -> DependencyTree:
    return _read_text(text, lex, "tree").tree


def parse_structure_text(text: str, lex: Lexicon) -> DependencyStructure:
    return _read_text(text, lex, "structure")


# ---------------------------------------------------------------------------
# JSON form


def _tree_obj(tree: DependencyTree, lex: Lexicon, features: FeatureMap | None) -> dict:
    """Tokens, root and edges; a tree passes None and its tokens get no features."""
    tokens = []
    for w in tree.words:
        tok = {
            "index": w.index,
            "form": w.form,
            "entry": _entry_ordinal(w, lex),
            "class": tree.classes[w.index],
        }
        if features is not None:
            tok["features"] = dict(sorted(features.get(w.index, {}).items()))
        tokens.append(tok)
    return {
        "tokens": tokens,
        "root": tree.root,
        "edges": [
            {"head": e.head, "dtype": e.dtype, "dependent": e.dependent}
            for e in tree.edges
        ],
    }


def structure_obj(ds: DependencyStructure, lex: Lexicon) -> dict:
    """The JSON-ready dict that `render_structure_json` writes out."""
    return {
        **_tree_obj(ds.tree, lex, ds.features),
        "domains": [
            {"id": d.id, "members": list(d.sorted_members())}
            for d in ds.domains.domains
        ],
        "assoc": {str(w): list(seq) for w, seq in ds.domains.assoc.items()},
        "positional": {str(w): p for w, p in ds.positional.items()},
    }


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_tree_json(tree: DependencyTree, lex: Lexicon) -> str:
    return _dump(_tree_obj(tree, lex, None))


def render_structure_json(ds: DependencyStructure, lex: Lexicon) -> str:
    return _dump(structure_obj(ds, lex))


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(value, kind: type, what: str):
    """``value`` if it is a JSON value of ``kind``; ``true`` is no integer."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, found {value!r}")
    return value


def _tree_from_obj(obj, lex: Lexicon, features: FeatureMap | None) -> DependencyTree:
    """The tree of a decoded JSON form; token features go into ``features``."""
    words = []
    classes = {}
    for tok in obj["tokens"]:
        index = _typed(tok["index"], int, "token index")
        form = _typed(tok["form"], str, "token form")
        entry = _resolve_entry(form, _typed(tok["entry"], int, "token entry"), lex)
        words.append(WordToken(index, form, entry))
        classes[index] = _typed(tok["class"], str, "token class")
        if features is not None:
            feats = _typed(tok["features"], dict, "token features")
            features[index] = {
                attr: _typed(value, str, "feature value")
                for attr, value in feats.items()
            }
    return DependencyTree(
        tuple(words),
        _typed(obj["root"], int, "'root'"),
        tuple(
            DependencyEdge(
                _typed(e["head"], int, "edge head"),
                _typed(e["dependent"], int, "edge dependent"),
                _typed(e["dtype"], str, "edge dtype"),
            )
            for e in obj["edges"]
        ),
        classes,
    )


def _read_json(text: str, what: str, build):
    """``build`` applied to the decoded text; errors name the form ``what``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"not valid JSON: {exc}") from None
    try:
        return build(obj)
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"{what} JSON misses field: {exc}") from None
    except ValueError as exc:
        raise SerializationError(f"{what} JSON has a bad value: {exc}") from None


def parse_tree_json(text: str, lex: Lexicon) -> DependencyTree:
    return _read_json(text, "tree", lambda obj: _tree_from_obj(obj, lex, None))


def _word_keyed(obj, name: str):
    """The (word index, value) pairs of the JSON object ``obj[name]``.

    A key must be an integer as the writer spells it (``str(int(key))``):
    ``"01"`` or ``" 1"`` would otherwise name word 1 a second time.
    """
    value = _typed(obj[name], dict, f"{name!r}")
    pairs = []
    for key, item in value.items():
        w = int(key)
        if key != str(w):
            raise SerializationError(
                f"{name!r} key {key!r} is not a canonical word index "
                f"(expected {str(w)!r})"
            )
        pairs.append((w, item))
    return pairs


def parse_structure_json(text: str, lex: Lexicon) -> DependencyStructure:
    def build(obj) -> DependencyStructure:
        features: FeatureMap = {}
        tree = _tree_from_obj(obj, lex, features)
        domains = tuple(
            OrderDomain(
                _typed(d["id"], str, "domain id"),
                frozenset(
                    _typed(m, int, "domain member")
                    for m in _typed(d["members"], list, "domain members")
                ),
            )
            for d in obj["domains"]
        )
        assoc = {
            w: tuple(
                None if did is None else _typed(did, str, "sequence entry")
                for did in _typed(seq, list, "sequence")
            )
            for w, seq in _word_keyed(obj, "assoc")
        }
        positional = {
            w: _typed(p, int, "positional head")
            for w, p in _word_keyed(obj, "positional")
        }
        return DependencyStructure(
            tree=tree,
            features=features,
            domains=OrderDomainStructure(domains, assoc),
            positional=positional,
        )

    return _read_json(text, "structure", build)


def canonical_structure(ds: DependencyStructure, lex: Lexicon) -> str:
    """Stable identity string used for deduplication and deterministic order."""
    return render_structure_text(ds, lex)
