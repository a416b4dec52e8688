"""Address-query language: lexer, parser, evaluator, unit assignment.

Queries select publications by their affiliation strings and publication
year, e.g.::

    ad=(tsinghua univ same dep phys) and ad=(china not taiwan) and py=2005

Operator precedence, tightest first: NOT > SAME > AND > OR, all
left-associative; parentheses override. NOT is binary set difference
(``l not r`` keeps matches of ``l`` that do not match ``r``). SAME is only
meaningful inside an ``ad=(...)`` scope and requires both operands to hold
within one and the same address string. Phrases match as consecutive token
runs against normalized address strings (lowercased, punctuation stripped,
whitespace collapsed), so a phrase may cross comma boundaries; a phrase's
words are normalized by the same rule. A query opens at most
``MAX_NESTING`` parentheses at once and holds at most ``MAX_DEPTH`` binary
operators on one path of its tree.

Queries are evaluated as set algebra over a positional inverted index of
the records' addresses (token -> (address, position) postings), built once
per ``assign_units`` call. A phrase is the set of addresses whose postings,
shifted by each token's offset in the phrase, line up. Evaluation has two
levels:

* record level, outside SAME: ``py=`` gives the records of that year, a
  phrase or a SAME gives the records owning a matching address, and
  AND/OR/NOT are intersection, union and difference of record sets, so
  ``ad=(china not taiwan)`` needs some address with china and no address
  with taiwan;
* address level, inside SAME: SAME and AND are intersection, OR union and
  NOT difference of address sets, so ``x same (china not taiwan)`` needs
  one address with x and china and without taiwan.
"""
from __future__ import annotations

import operator
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import Corpus, PublicationRecord, _decimal, _text_lines
from .errors import CyclicMinus, MinusError, QuerySyntaxError, UnknownUnitInMinus

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Phrase:
    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("phrase must have at least one token")


@dataclass(frozen=True)
class Same:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Not:
    """Set difference: matches ``left`` and not ``right``."""

    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class FieldScope:
    field: str  # "ad" or "py"
    expr: "Node"


@dataclass(frozen=True)
class YearEquals:
    year: int


Node = Phrase | Same | And | Or | Not | FieldScope | YearEquals

# The binary operators, loosest first: each one's keyword and node type.
_OPERATORS = (("or", Or), ("and", And), ("same", Same), ("not", Not))
_KEYWORDS = {keyword for keyword, _ in _OPERATORS}
_LEVEL_OF = {node_type: level for level, (_, node_type) in enumerate(_OPERATORS)}
# How each binary node combines its operands' sets of records or addresses.
_SET_OPS = {Or: operator.or_, And: operator.and_, Same: operator.and_, Not: operator.sub}
_FIELDS = {"ad", "py"}

# Bounds that keep the recursive parser and evaluator far inside Python's
# default recursion limit: parentheses open at once, and binary operators
# on one path from the root of a query's tree.
MAX_NESTING = 50
MAX_DEPTH = 200


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[()=]|[^\s()=]+")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples; kinds: ( ) = word."""
    return [
        (m[0] if m[0] in "()=" else "word", m[0].lower(), m.start())
        for m in _TOKEN_RE.finditer(text)
    ]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        nesting = 0
        for kind, _, pos in self.tokens:
            nesting += (kind == "(") - (kind == ")")
            if nesting > MAX_NESTING:
                raise QuerySyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos
                )

    def peek(self) -> tuple[str, str, int]:
        """The next token; past the last one, an "end" token."""
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", "", len(self.text))

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] == "end":
            raise QuerySyntaxError("unexpected end of query", tok[2])
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise QuerySyntaxError(f"expected {kind!r}", tok[2])
        return self.next()

    def parse_expr(self, ctx: str | None, level: int = 0) -> tuple[Node, int]:
        """Parse a chain of the operator at `level` of `_OPERATORS`, whose
        operands hold only tighter ones. Returns the node and the number of
        binary operators on its deepest path."""
        if level == len(_OPERATORS):
            return self.parse_atom(ctx)
        keyword, node_type = _OPERATORS[level]
        node, depth = self.parse_expr(ctx, level + 1)
        while self.peek()[:2] == ("word", keyword):
            pos = self.next()[2]
            if node_type is Same and ctx != "ad":
                raise QuerySyntaxError("SAME outside ad-scope", pos)
            right, right_depth = self.parse_expr(ctx, level + 1)
            node, depth = node_type(node, right), max(depth, right_depth) + 1
            if depth > MAX_DEPTH:
                raise QuerySyntaxError(
                    f"more than {MAX_DEPTH} operators nested in one query", pos
                )
        return node, depth

    def parse_atom(self, ctx: str | None) -> tuple[Node, int]:
        kind, value, pos = self.peek()
        if kind == "end":
            raise QuerySyntaxError("dangling operator", pos)
        if kind == "(":
            self.next()
            inner = self.parse_expr(ctx)
            if self.peek()[0] != ")":
                raise QuerySyntaxError("unbalanced parenthesis", pos)
            self.next()
            return inner
        if kind != "word":
            raise QuerySyntaxError(f"unexpected {value!r}", pos)
        if ctx is None:
            return self._parse_field(value, pos)
        if ctx == "py":
            return self._parse_year(self.next()), 0
        # ad-scope: a phrase is a maximal run of non-keyword words.
        return self._parse_phrase(), 0

    def _parse_field(self, name: str, pos: int) -> tuple[Node, int]:
        if name not in _FIELDS:
            raise QuerySyntaxError(f"unknown field tag {name!r}", pos)
        self.next()
        self.expect("=")
        if name == "py" and self.peek()[0] != "(":
            return self._parse_year(self.next()), 0
        self.expect("(")
        inner, depth = self.parse_expr(name)
        self.expect(")")
        return FieldScope(name, inner), depth

    def _parse_year(self, tok: tuple[str, str, int]) -> YearEquals:
        _, value, pos = tok
        if value.isdigit():  # no sign
            try:
                return YearEquals(_decimal(value))
            except ValueError:  # not ASCII, or more digits than int() converts
                pass
        raise QuerySyntaxError(f"expected a year, got {value!r}", pos)

    def _parse_phrase(self) -> Phrase:
        """A maximal run of non-keyword words, each normalized as an address
        is: `dept.` reads as `dept`, `a.b` as `a b`, and `,` as nothing. A
        word that normalizes to hold a keyword (`and,`) is refused, as the
        phrase's text would read back as that operator."""
        pos = self.peek()[2]
        tokens: list[str] = []
        while (tok := self.peek())[0] == "word" and tok[1] not in _KEYWORDS:
            _, word, at = self.next()
            words = normalize_address(word)
            if not _KEYWORDS.isdisjoint(words):
                raise QuerySyntaxError(f"{word!r} in a phrase reads as an operator", at)
            tokens += words
        if not tokens:
            raise QuerySyntaxError("expected a phrase", pos)
        return Phrase(tuple(tokens))


def parse_query(text: str) -> Node:
    """Parse a query string into an AST."""
    if not text.strip():
        raise QuerySyntaxError("empty query", 0)
    parser = _Parser(text)
    node, _ = parser.parse_expr(None)
    kind, value, pos = parser.peek()
    if kind != "end":
        raise QuerySyntaxError(f"trailing input {value!r}", pos)
    return node


def to_text(node: Node, _ctx: str | None = None) -> str:
    """Render an AST back to query text; reparses to an identical AST.

    An operand is parenthesized only where precedence or left-associativity
    would regroup it otherwise, so the text of a parsed query nests no
    deeper than the query did.
    """
    if isinstance(node, YearEquals):
        return str(node.year) if _ctx == "py" else f"py={node.year}"
    if isinstance(node, FieldScope):
        return f"{node.field}=({to_text(node.expr, node.field)})"
    if isinstance(node, Phrase):
        return " ".join(node.tokens)
    level = _LEVEL_OF[type(node)]
    left, right = to_text(node.left, _ctx), to_text(node.right, _ctx)
    if _LEVEL_OF.get(type(node.left), level) < level:
        left = f"({left})"
    if _LEVEL_OF.get(type(node.right), level + 1) <= level:
        right = f"({right})"
    return f"{left} {_OPERATORS[level][0]} {right}"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_PUNCT_RE = re.compile(r"[,．.;:()\[\]]")


def normalize_address(address: str) -> tuple[str, ...]:
    """Lowercase, strip punctuation, collapse whitespace, tokenize."""
    return tuple(_PUNCT_RE.sub(" ", address).lower().split())


class _AddressIndex:
    """Positional inverted index over the addresses of a set of records.

    Holds token -> [(address id, position)], address id -> record id and
    year -> record ids. A query evaluates to a set of record ids: outside
    SAME by set algebra on record ids, inside SAME on address ids.
    """

    def __init__(self, records: Iterable[PublicationRecord]):
        self._postings: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self._owner: list[str] = []
        self._by_year: dict[int, set[str]] = defaultdict(set)
        self._phrases: dict[tuple[str, ...], frozenset[int]] = {}
        for rec in records:
            self._by_year[rec.year].add(rec.id)
            for address in rec.addresses:
                address_id = len(self._owner)
                self._owner.append(rec.id)
                for position, token in enumerate(normalize_address(address)):
                    self._postings[token].append((address_id, position))

    def _phrase(self, tokens: tuple[str, ...]) -> frozenset[int]:
        """Ids of the addresses holding `tokens` as a consecutive run."""
        found = self._phrases.get(tokens)
        if found is None:
            # Start positions of the run: each later token's postings,
            # shifted back by its offset in the phrase, must hold them too.
            starts = set(self._postings.get(tokens[0], ()))
            for offset, token in enumerate(tokens[1:], start=1):
                if not starts:
                    break
                starts &= {(a, p - offset) for a, p in self._postings.get(token, ())}
            found = self._phrases[tokens] = frozenset(a for a, _ in starts)
        return found

    def _addresses(self, node: Node) -> frozenset[int]:
        """Ids of the addresses that satisfy an ad-scope expression alone."""
        if isinstance(node, Phrase):
            return self._phrase(node.tokens)
        op = _SET_OPS.get(type(node))
        if op is None:
            raise TypeError(f"{type(node).__name__} cannot appear inside an address scope")
        return op(self._addresses(node.left), self._addresses(node.right))

    def records(self, node: Node) -> set[str]:
        """Ids of the records that satisfy a query."""
        if isinstance(node, YearEquals):
            return set(self._by_year.get(node.year, ()))
        if isinstance(node, FieldScope):
            return self.records(node.expr)
        if isinstance(node, (Phrase, Same)):
            # Both sides of a SAME must hold within one and the same address.
            return {self._owner[a] for a in self._addresses(node)}
        op = _SET_OPS.get(type(node))
        if op is None:
            raise TypeError(f"unknown node type {type(node).__name__}")
        return op(self.records(node.left), self.records(node.right))


# ---------------------------------------------------------------------------
# Unit definitions and assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitDefinition:
    """A named unit: a base query plus optional result-set subtraction."""

    name: str
    query: Node
    minus: tuple[str, ...] = ()


_MINUS_RE = re.compile(r"\bminus\b", re.IGNORECASE)


def _split_minus(rhs: str) -> tuple[str, list[str]]:
    """Split a definition body on a top-level (paren depth 0) `minus`,
    which must name at least one unit."""
    depth = 0
    for m in _MINUS_RE.finditer(rhs):
        depth = rhs[: m.start()].count("(") - rhs[: m.start()].count(")")
        if depth == 0:
            names = [n for n in map(str.strip, rhs[m.end() :].split(",")) if n]
            if not names:
                raise QuerySyntaxError("minus names no unit", m.start())
            return rhs[: m.start()], names
    return rhs, []


def parse_unit_definitions(text: str | Iterable[str]) -> list[UnitDefinition]:
    """Parse a unit-definitions file, given as one str or as pieces (see
    `corpus._text_lines`): one `name := query [minus a,b]` per line, `#`
    comments, blank lines ignored. A `minus` may name a unit defined
    further down, but every name must be defined and no chain may lead back
    to a unit on it."""
    defs: list[UnitDefinition] = []
    # Unit name -> its line and the column where its `minus` starts.
    minus_at: dict[str, tuple[int, int]] = {}
    for lineno, raw in enumerate(_text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":=" not in line:
            raise QuerySyntaxError("missing ':='", 0, lineno)
        name, rhs = line.split(":=", 1)
        name = name.strip()
        if not name:
            raise QuerySyntaxError("empty unit name", 0, lineno)
        if name in minus_at:
            raise QuerySyntaxError(f"duplicate unit {name!r}", 0, lineno)
        # The body starts right after the first ':=' of the raw line.
        body_at = raw.index(":=") + 2
        try:
            query_text, minus = _split_minus(rhs)
            query = parse_query(query_text)
        except QuerySyntaxError as exc:
            raise QuerySyntaxError(exc.message, body_at + exc.position, lineno) from None
        minus_at[name] = (lineno, body_at + len(query_text))
        defs.append(UnitDefinition(name, query, tuple(minus)))
    try:
        _minus_order(defs)
    except MinusError as exc:
        lineno, column = minus_at[exc.unit]
        raise QuerySyntaxError(str(exc), column, lineno) from None
    return defs


def _minus_order(defs: Iterable[UnitDefinition]) -> list[UnitDefinition]:
    """The definitions, each after every unit its `minus` names.

    Depth first with a stack of the units waiting on others, so that a long
    minus chain does not recurse. Raises UnknownUnitInMinus for a name no
    definition has and CyclicMinus for a chain that leads back to a unit on
    it, each naming the unit whose `minus` holds that name.
    """
    by_name: Mapping[str, UnitDefinition] = {d.name: d for d in defs}
    order: list[UnitDefinition] = []
    placed: set[str] = set()
    for d in by_name.values():
        waiting = [] if d.name in placed else [d]
        on_stack = {d.name}
        while waiting:
            top = waiting[-1]
            other = next((o for o in top.minus if o not in placed), None)
            if other is None:
                order.append(top)
                placed.add(top.name)
                on_stack.discard(top.name)
                waiting.pop()
            elif other not in by_name:
                raise UnknownUnitInMinus(
                    f"unit {top.name!r} subtracts undefined unit {other!r}", top.name
                )
            elif other in on_stack:
                raise CyclicMinus(f"cyclic minus chain through {other!r}", top.name)
            else:
                waiting.append(by_name[other])
                on_stack.add(other)
    return order


def assign_units(
    corpus: Corpus, defs: Iterable[UnitDefinition]
) -> dict[str, frozenset[str]]:
    """Map each unit name to the set of cited-side publication ids it owns.

    Base query results are computed first; `minus` then subtracts the
    resolved result sets of the referenced units. A publication may belong
    to several units.
    """
    defs = list(defs)
    index = _AddressIndex(corpus.cited.values())
    base = {d.name: frozenset(index.records(d.query)) for d in defs}

    resolved: dict[str, frozenset[str]] = {}
    for d in _minus_order(defs):
        result = base[d.name]
        for o in d.minus:
            result -= resolved[o]
        resolved[d.name] = result
    return {d.name: resolved[d.name] for d in defs}
