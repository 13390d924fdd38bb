"""Lexicon model and its text format.

A lexicon declares the symbol inventories (dependency types, word classes,
attributes with finite value sets), the classes admitted at the sentence
root, and one or more entries per surface form.  Each entry fixes a word
class, features, a valency frame, a template of named order-domain slots
with one self slot, and the constraints scoped to those slots.

The format is line oriented at the top level; entry bodies are brace
blocks of semicolon-terminated statements:

    dtypes: subj obj vpart det propo
    classes: Vfin Vpart N Det
    attr case: nom acc dat gen
    root: Vfin

    entry "hat" class=Vfin {
      slot subj: class=N feat case=nom required extract {};
      slot vpart: class=Vpart required extract {};
      domains [vf mf nf] self=mf;
      card vf = 1;
      order self < * in mf;
      order <vpart> after <subj,obj>;
    }

Inside a body, `feat a=v` states entry features while `feat SLOT a=v`
states a requirement on every member head of that slot's domain.  All
parse errors carry a line and column.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterator

from .constraints import (
    FOLLOWS,
    LABELED_PAIR,
    PRECEDES,
    SELF_VS_ALL,
    CardinalityConstraint,
    DomainFeatureRequirement,
    PrecedencePredicate,
)
from .core import UnknownTokenError, WordToken


class LexiconError(Exception):
    """Problem in a lexicon source; carries the position it was found at."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class ValencySlot:
    """One governed dependency of an entry; at most one slot per type."""

    dtype: str
    required: bool = False
    dep_class: str | None = None
    features: dict[str, str] = field(default_factory=dict)
    extraction: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "features", dict(self.features))
        object.__setattr__(self, "extraction", frozenset(self.extraction))


@dataclass(frozen=True)
class DomainTemplate:
    """Ordered named domain slots; exactly one receives the word itself."""

    slots: tuple[str, ...]
    self_slot: int

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if not self.slots:
            raise ValueError("a template needs at least one slot")
        if not 0 <= self.self_slot < len(self.slots):
            raise ValueError("self slot out of range")
        if len(set(self.slots)) != len(self.slots):
            raise ValueError("template slot names must be distinct")


@dataclass(frozen=True)
class LexicalEntry:
    form: str
    word_class: str
    features: dict[str, str] = field(default_factory=dict)
    valency: tuple[ValencySlot, ...] = ()
    template: DomainTemplate = DomainTemplate(("d",), 0)
    cardinalities: tuple[CardinalityConstraint, ...] = ()
    domain_features: tuple[DomainFeatureRequirement, ...] = ()
    predicates: tuple[PrecedencePredicate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "features", dict(self.features))
        object.__setattr__(self, "valency", tuple(self.valency))
        object.__setattr__(self, "cardinalities", tuple(self.cardinalities))
        object.__setattr__(self, "domain_features", tuple(self.domain_features))
        object.__setattr__(self, "predicates", tuple(self.predicates))
        dtypes = [slot.dtype for slot in self.valency]
        if len(set(dtypes)) != len(dtypes):
            raise ValueError("valency slot dependency types must be distinct")
        slots = range(len(self.template.slots))
        if any(c.slot not in slots for c in self.cardinalities + self.domain_features):
            raise ValueError("cardinality or domain-feature slot out of range")

    def slot_for(self, dtype: str) -> ValencySlot | None:
        for slot in self.valency:
            if slot.dtype == dtype:
                return slot
        return None


@dataclass(frozen=True)
class Lexicon:
    dtypes: tuple[str, ...]
    classes: tuple[str, ...]
    attributes: dict[str, tuple[str, ...]]
    root_classes: tuple[str, ...]
    entries: dict[str, tuple[LexicalEntry, ...]]

    def __post_init__(self):
        object.__setattr__(
            self, "attributes", {a: tuple(v) for a, v in self.attributes.items()}
        )
        object.__setattr__(
            self, "entries", {f: tuple(es) for f, es in self.entries.items()}
        )

    def dtype_set(self) -> frozenset[str]:
        return frozenset(self.dtypes)

    def class_set(self) -> frozenset[str]:
        return frozenset(self.classes)

    def entry_ordinal(self, entry: LexicalEntry) -> int:
        """Position of the first entry equal to ``entry`` among those sharing
        its form.  The identity test spares the field-by-field comparison
        when the entry is the lexicon's own; an earlier equal entry still
        matches first."""
        bucket = self.entries.get(entry.form, ())
        for i, candidate in enumerate(bucket):
            if candidate is entry or candidate == entry:
                return i
        raise ValueError(f"entry for {entry.form!r} is not in this lexicon")


def entries_for(form: str, lex: Lexicon) -> tuple[LexicalEntry, ...]:
    """All entries whose form matches exactly (case sensitive); may be empty."""
    return lex.entries.get(form, ())


def entry_assignments(
    tokens: list[str] | tuple[str, ...], lex: Lexicon
) -> Iterator[tuple[WordToken, ...]]:
    """Each choice of one entry per token, as the tokens' words in order.

    Every token is looked up before the first choice: the first one without
    an entry raises UnknownTokenError.  No tokens yield no choice.
    """
    options = []
    for tok in tokens:
        entries = entries_for(tok, lex)
        if not entries:
            raise UnknownTokenError(tok)
        options.append(entries)
    if not options:
        return
    for combo in itertools.product(*options):
        yield tuple(
            WordToken(i, tok, entry)
            for i, (tok, entry) in enumerate(zip(tokens, combo))
        )


# ---------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # word | string | punct
    value: str
    line: int
    col: int

    def matches(self, value: str) -> bool:
        """Is this the keyword or punctuation ``value``?  Quoted text is a
        form, never either."""
        return self.kind != "string" and self.value == value

    def shown(self) -> str:
        """The token for a message, quoted text as written."""
        return f'"{self.value}"' if self.kind == "string" else repr(self.value)


# whitespace separates tokens; the last group takes any other character
# that starts no token, such as a quote left open
_TOKEN_RE = re.compile(
    r'"(?P<string>[^"\n]*)"'
    r"|(?P<punct><=|>=|[:;{}\[\]=,<>*])"
    r'|(?P<word>[^\s:;{}\[\]=,<>*"#]+)'
    r"|(?P<unreadable>\S)"
)


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text.split("#", 1)[0]):
        col = m.start() + 1
        if m.lastgroup == "unreadable":
            raise LexiconError(f"cannot read {m.group()!r}", line_no, col)
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), line_no, col))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token], end_line: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: str | None = None, kind: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            raise LexiconError("unexpected end of statement", self.end_line)
        if kind is not None and tok.kind != kind:
            raise LexiconError(
                f"expected {kind}, found {tok.shown()}", tok.line, tok.col
            )
        if expect is not None and not tok.matches(expect):
            raise LexiconError(
                f"expected {expect!r}, found {tok.shown()}", tok.line, tok.col
            )
        self.pos += 1
        return tok

    def at(self, value: str, ahead: int = 0) -> bool:
        """Is the token ``ahead`` places on the keyword or punctuation ``value``?"""
        i = self.pos + ahead
        return i < len(self.tokens) and self.tokens[i].matches(value)

    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)


# ---------------------------------------------------------------------------
# parser


# the (min, max) bounds each `card` operator states; every bound is 1
_CARD_BOUNDS = {"=": (1, 1), "<=": (0, 1), ">=": (1, None)}
_CARD_OPS = {bounds: op for op, bounds in _CARD_BOUNDS.items()}


def load_lexicon(text: str) -> Lexicon:
    """Parse lexicon source text; raise LexiconError with line and column."""
    # (symbol, line) for every symbol each statement kind declares
    symbols: dict[str, list] = {"dtypes": [], "classes": [], "root": []}
    attributes: dict[str, tuple[str, ...]] = {}
    raw_entries: list[tuple[list[_Token], int]] = []

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line_no = i + 1
        tokens = _tokenize_line(lines[i], line_no)
        if not tokens:
            i += 1
            continue
        head = tokens[0]
        keyword = head.value if head.kind == "word" else None
        if keyword in ("dtypes", "classes", "root"):
            if len(tokens) < 2 or not tokens[1].matches(":"):
                raise LexiconError(f"expected ':' after {keyword}", line_no)
            if any(t.kind != "word" for t in tokens[2:]) or len(tokens) == 2:
                raise LexiconError(f"expected symbols after {keyword}:", line_no)
            symbols[keyword].extend((t.value, line_no) for t in tokens[2:])
            i += 1
        elif keyword == "attr":
            if len(tokens) < 4 or not tokens[2].matches(":") or any(
                t.kind != "word" for t in (tokens[1], *tokens[3:])
            ):
                raise LexiconError("expected 'attr NAME: VALUE...'", line_no)
            name = tokens[1].value
            if name in attributes:
                raise LexiconError(f"attribute {name!r} declared twice", line_no)
            attributes[name] = tuple(t.value for t in tokens[3:])
            i += 1
        elif keyword == "entry":
            block = list(tokens)
            if not any(t.matches("{") for t in tokens):
                raise LexiconError("expected '{' in entry header", line_no)
            depth = _brace_depth(tokens)
            i += 1
            while depth > 0:
                if i >= len(lines):
                    raise LexiconError("unterminated entry block", line_no)
                more = _tokenize_line(lines[i], i + 1)
                depth += _brace_depth(more)
                block.extend(more)
                i += 1
            raw_entries.append((block, line_no))
        else:
            raise LexiconError(
                f"unexpected {head.shown()} at top level", line_no, head.col
            )

    _check_declared(symbols)
    dtypes, classes, root_classes = (
        tuple(sym for sym, _ in symbols[k]) for k in ("dtypes", "classes", "root")
    )
    inventories = _Inventories(dtypes, classes, attributes)

    entries: dict[str, list[LexicalEntry]] = {}
    for block, line_no in raw_entries:
        entry = _parse_entry(block, line_no, inventories)
        entries.setdefault(entry.form, []).append(entry)

    return Lexicon(
        dtypes=dtypes,
        classes=classes,
        attributes=attributes,
        root_classes=root_classes,
        entries={f: tuple(es) for f, es in entries.items()},
    )


def _brace_depth(tokens: list[_Token]) -> int:
    """Braces opened minus braces closed; a quoted "{" is a form, not a brace."""
    return sum(t.matches("{") - t.matches("}") for t in tokens)


def _check_declared(symbols: dict[str, list[tuple[str, int]]]):
    """Reject a symbol declared twice, or a root class never declared, at
    the line of the statement that declares it."""
    for name in ("dtypes", "classes"):
        seen = set()
        for sym, line in symbols[name]:
            if sym in seen:
                raise LexiconError(f"duplicate symbol in {name}", line)
            seen.add(sym)
    classes = {sym for sym, _ in symbols["classes"]}
    for sym, line in symbols["root"]:
        if sym not in classes:
            raise LexiconError(f"root class {sym!r} is not declared", line)


@dataclass
class _Inventories:
    dtypes: tuple[str, ...]
    classes: tuple[str, ...]
    attributes: dict[str, tuple[str, ...]]

    def need_dtype(self, tok: _Token):
        if tok.value not in self.dtypes:
            raise LexiconError(
                f"dependency type {tok.value!r} is not declared", tok.line, tok.col
            )

    def need_class(self, tok: _Token):
        if tok.value not in self.classes:
            raise LexiconError(
                f"class {tok.value!r} is not declared", tok.line, tok.col
            )

    def need_attr(self, attr: _Token, value: _Token):
        values = self.attributes.get(attr.value)
        if values is None:
            raise LexiconError(
                f"attribute {attr.value!r} is not declared", attr.line, attr.col
            )
        if value.value not in values:
            raise LexiconError(
                f"value {value.value!r} is not declared for attribute "
                f"{attr.value!r}",
                value.line,
                value.col,
            )


def _parse_feature_pairs(ts: _TokenStream, inv: _Inventories) -> dict[str, str]:
    """One or more ATTR=VALUE pairs."""
    pairs: dict[str, str] = {}
    while True:
        tok = ts.peek()
        if tok is None or tok.kind != "word":
            break
        if not ts.at("=", 1):
            break
        attr = ts.next(kind="word")
        ts.next(expect="=")
        value = ts.next(kind="word")
        inv.need_attr(attr, value)
        if attr.value in pairs:
            raise LexiconError(
                f"attribute {attr.value!r} given twice", attr.line, attr.col
            )
        pairs[attr.value] = value.value
    if not pairs:
        tok = ts.peek()
        line = tok.line if tok else ts.end_line
        raise LexiconError("expected ATTR=VALUE", line)
    return pairs


def _parse_label_set(ts: _TokenStream, inv: _Inventories) -> tuple[str, ...]:
    ts.next(expect="<")
    labels = []
    while True:
        tok = ts.next(kind="word")
        inv.need_dtype(tok)
        labels.append(tok.value)
        if ts.at(","):
            ts.next()
            continue
        break
    ts.next(expect=">")
    return tuple(labels)


def _parse_entry(block: list[_Token], line_no: int, inv: _Inventories) -> LexicalEntry:
    ts = _TokenStream(block, block[-1].line if block else line_no)
    ts.next(expect="entry")
    form_tok = ts.next(kind="string")
    form = form_tok.value
    if not form or any(c.isspace() for c in form):
        raise LexiconError(
            "entry forms must be non-empty and free of whitespace",
            form_tok.line,
            form_tok.col,
        )
    ts.next(expect="class")
    ts.next(expect="=")
    cls = ts.next(kind="word")
    inv.need_class(cls)
    ts.next(expect="{")

    features: dict[str, str] = {}
    valency: list[ValencySlot] = []
    template: DomainTemplate | None = None
    # statements referring to template slots, resolved once the template is known
    card_stmts: list[tuple[_Token, tuple[int, int | None]]] = []
    domfeat_stmts: list[tuple[_Token, dict[str, str]]] = []
    order_stmts: list[tuple[PrecedencePredicate, _Token | None]] = []

    while not ts.at("}"):
        stmt_head = ts.next(kind="word")
        if stmt_head.value == "slot":
            name = ts.next(kind="word")
            inv.need_dtype(name)
            if any(s.dtype == name.value for s in valency):
                raise LexiconError(
                    f"duplicate slot for dependency type {name.value!r}",
                    name.line,
                    name.col,
                )
            ts.next(expect=":")
            dep_class = None
            slot_feats: dict[str, str] = {}
            required = False
            extraction: set[str] = set()
            while not ts.at(";"):
                tok = ts.next(kind="word")
                if tok.value == "class":
                    ts.next(expect="=")
                    c = ts.next(kind="word")
                    inv.need_class(c)
                    dep_class = c.value
                elif tok.value == "feat":
                    slot_feats.update(_parse_feature_pairs(ts, inv))
                elif tok.value == "required":
                    required = True
                elif tok.value == "optional":
                    required = False
                elif tok.value == "extract":
                    ts.next(expect="{")
                    while not ts.at("}"):
                        d = ts.next(kind="word")
                        inv.need_dtype(d)
                        extraction.add(d.value)
                        if ts.at(","):
                            ts.next()
                    ts.next(expect="}")
                else:
                    raise LexiconError(
                        f"unexpected {tok.value!r} in slot statement",
                        tok.line,
                        tok.col,
                    )
            valency.append(
                ValencySlot(
                    dtype=name.value,
                    required=required,
                    dep_class=dep_class,
                    features=slot_feats,
                    extraction=frozenset(extraction),
                )
            )
        elif stmt_head.value == "domains":
            if template is not None:
                raise LexiconError(
                    "domains declared twice", stmt_head.line, stmt_head.col
                )
            ts.next(expect="[")
            names = []
            while not ts.at("]"):
                names.append(ts.next(kind="word").value)
            ts.next(expect="]")
            ts.next(expect="self")
            ts.next(expect="=")
            self_name = ts.next(kind="word")
            if len(set(names)) != len(names) or not names:
                raise LexiconError(
                    "template slots must be non-empty and distinct",
                    stmt_head.line,
                    stmt_head.col,
                )
            if self_name.value not in names:
                raise LexiconError(
                    f"self slot {self_name.value!r} is not a template slot",
                    self_name.line,
                    self_name.col,
                )
            template = DomainTemplate(tuple(names), names.index(self_name.value))
        elif stmt_head.value == "card":
            slot_name = ts.next(kind="word")
            op = ts.next(kind="punct")
            if op.value not in _CARD_BOUNDS:
                raise LexiconError(
                    f"expected '=', '<=' or '>=', found {op.value!r}",
                    op.line,
                    op.col,
                )
            bound = ts.next()
            if not bound.matches("1"):
                raise LexiconError(
                    "cardinality bounds other than 1 are not supported",
                    bound.line,
                    bound.col,
                )
            card_stmts.append((slot_name, _CARD_BOUNDS[op.value]))
        elif stmt_head.value == "feat":
            if ts.at("=", 1):
                features.update(_parse_feature_pairs(ts, inv))
            else:
                slot_name = ts.next(kind="word")
                domfeat_stmts.append((slot_name, _parse_feature_pairs(ts, inv)))
        elif stmt_head.value == "order":
            if ts.at("self"):
                ts.next()
                op = ts.next(kind="punct")
                if op.value not in ("<", ">"):
                    raise LexiconError(
                        f"expected '<' or '>', found {op.value!r}", op.line, op.col
                    )
                ts.next(expect="*")
                scope = None
                if ts.at("in"):
                    ts.next()
                    scope = ts.next(kind="word")
                pred = PrecedencePredicate(
                    SELF_VS_ALL, PRECEDES if op.value == "<" else FOLLOWS
                )
                order_stmts.append((pred, scope))
            else:
                left = _parse_label_set(ts, inv)
                rel = ts.next(kind="word")
                if rel.value not in ("before", "after"):
                    raise LexiconError(
                        f"expected 'before' or 'after', found {rel.value!r}",
                        rel.line,
                        rel.col,
                    )
                right = _parse_label_set(ts, inv)
                pred = PrecedencePredicate(
                    LABELED_PAIR,
                    PRECEDES if rel.value == "before" else FOLLOWS,
                    left,
                    right,
                )
                order_stmts.append((pred, None))
        else:
            raise LexiconError(
                f"unexpected {stmt_head.value!r} in entry body",
                stmt_head.line,
                stmt_head.col,
            )
        ts.next(expect=";")

    ts.next(expect="}")
    if not ts.exhausted():
        tok = ts.peek()
        raise LexiconError(
            f"unexpected {tok.shown()} after entry body", tok.line, tok.col
        )

    if template is None:
        raise LexiconError(f"entry {form!r} declares no domains", line_no)

    def slot_ordinal(tok: _Token) -> int:
        if tok.value not in template.slots:
            raise LexiconError(
                f"{tok.value!r} is not a template slot of this entry",
                tok.line,
                tok.col,
            )
        return template.slots.index(tok.value)

    cardinalities = [
        CardinalityConstraint(slot_ordinal(tok), *bounds) for tok, bounds in card_stmts
    ]
    domain_features = [
        DomainFeatureRequirement(slot_ordinal(tok), pairs)
        for tok, pairs in domfeat_stmts
    ]
    for _, scope in order_stmts:
        if scope is not None and slot_ordinal(scope) != template.self_slot:
            raise LexiconError(
                "self-ordering predicates are scoped to the self slot",
                scope.line,
                scope.col,
            )

    return LexicalEntry(
        form=form,
        word_class=cls.value,
        features=features,
        valency=tuple(valency),
        template=template,
        cardinalities=tuple(cardinalities),
        domain_features=tuple(domain_features),
        predicates=tuple(pred for pred, _ in order_stmts),
    )


# ---------------------------------------------------------------------------
# renderer


def render_lexicon(lex: Lexicon) -> str:
    """Canonical text for a lexicon; load_lexicon(render_lexicon(lex)) == lex.

    Raises ValueError on an entry built in code that the format cannot
    state: cardinality bounds no `card` operator states, or a domain-feature
    requirement without a pair.
    """
    out = []
    out.append("dtypes: " + " ".join(lex.dtypes))
    out.append("classes: " + " ".join(lex.classes))
    for attr, values in lex.attributes.items():
        out.append(f"attr {attr}: " + " ".join(values))
    if lex.root_classes:
        out.append("root: " + " ".join(lex.root_classes))
    for form, entries in lex.entries.items():
        for entry in entries:
            out.append("")
            out.extend(_render_entry(entry))
    return "\n".join(out) + "\n"


def _render_feats(features: dict[str, str]) -> str:
    return " ".join(f"{a}={v}" for a, v in sorted(features.items()))


def _render_entry(entry: LexicalEntry) -> list[str]:
    lines = [f'entry "{entry.form}" class={entry.word_class} {{']
    if entry.features:
        lines.append(f"  feat {_render_feats(entry.features)};")
    for slot in entry.valency:
        parts = [f"slot {slot.dtype}:"]
        if slot.dep_class is not None:
            parts.append(f"class={slot.dep_class}")
        if slot.features:
            parts.append(f"feat {_render_feats(slot.features)}")
        parts.append("required" if slot.required else "optional")
        parts.append("extract {" + ",".join(sorted(slot.extraction)) + "}")
        lines.append("  " + " ".join(parts) + ";")
    tpl = entry.template
    lines.append(
        f"  domains [{' '.join(tpl.slots)}] self={tpl.slots[tpl.self_slot]};"
    )
    for card in entry.cardinalities:
        op = _CARD_OPS.get((card.min, card.max))
        if op is None:
            raise ValueError(f"card cannot state min {card.min} and max {card.max}")
        lines.append(f"  card {tpl.slots[card.slot]} {op} 1;")
    for req in entry.domain_features:
        if not req.required:
            raise ValueError("feat needs at least one ATTR=VALUE")
        lines.append(
            f"  feat {tpl.slots[req.slot]} {_render_feats(req.required)};"
        )
    for pred in entry.predicates:
        if pred.kind == SELF_VS_ALL:
            lines.append(
                f"  order {pred.render()} in {tpl.slots[tpl.self_slot]};"
            )
        else:
            lines.append(f"  order {pred.render()};")
    lines.append("}")
    return lines


# ---------------------------------------------------------------------------
# bundled fragment


def reference_lexicon_text() -> str:
    """Source text of the bundled German declarative-clause fragment."""
    return (
        resources.files("odgrammar").joinpath("data/de_fragment.lex").read_text()
    )


@lru_cache(maxsize=1)
def reference_lexicon() -> Lexicon:
    return load_lexicon(reference_lexicon_text())
