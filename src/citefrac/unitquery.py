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
whitespace collapsed), so a phrase may cross comma boundaries.

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

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import Corpus, PublicationRecord
from .errors import CyclicMinus, QuerySyntaxError, UnknownUnitInMinus

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

_KEYWORDS = {"and", "or", "not", "same"}
_FIELDS = {"ad", "py"}


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\()|(\))|(=)|([^\s()=]+))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, position) triples; kinds: ( ) = word."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            break
        if m.group(1):
            tokens.append(("(", "(", m.start(1)))
        elif m.group(2):
            tokens.append((")", ")", m.start(2)))
        elif m.group(3):
            tokens.append(("=", "=", m.start(3)))
        else:
            tokens.append(("word", m.group(4).lower(), m.start(4)))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError("unexpected end of query", len(self.text))
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None or tok[0] != kind:
            pos = tok[2] if tok else len(self.text)
            raise QuerySyntaxError(f"expected {kind!r}", pos)
        return self.next()

    def at_keyword(self, *names: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "word" and tok[1] in names

    # Precedence ladder: or < and < same < not < atom.

    def parse_expr(self, ctx: str | None) -> Node:
        node = self.parse_and(ctx)
        while self.at_keyword("or"):
            self.next()
            node = Or(node, self.parse_and(ctx))
        return node

    def parse_and(self, ctx: str | None) -> Node:
        node = self.parse_same(ctx)
        while self.at_keyword("and"):
            self.next()
            node = And(node, self.parse_same(ctx))
        return node

    def parse_same(self, ctx: str | None) -> Node:
        node = self.parse_not(ctx)
        while self.at_keyword("same"):
            tok = self.next()
            if ctx != "ad":
                raise QuerySyntaxError("SAME outside ad-scope", tok[2])
            node = Same(node, self.parse_not(ctx))
        return node

    def parse_not(self, ctx: str | None) -> Node:
        node = self.parse_atom(ctx)
        while self.at_keyword("not"):
            self.next()
            node = Not(node, self.parse_atom(ctx))
        return node

    def parse_atom(self, ctx: str | None) -> Node:
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError("dangling operator", len(self.text))
        kind, value, pos = tok
        if kind == "(":
            self.next()
            node = self.parse_expr(ctx)
            close = self.peek()
            if close is None or close[0] != ")":
                raise QuerySyntaxError("unbalanced parenthesis", pos)
            self.next()
            return node
        if kind != "word":
            raise QuerySyntaxError(f"unexpected {value!r}", pos)

        if ctx is None:
            return self._parse_field(value, pos)
        if ctx == "py":
            return self._parse_year(value, pos)
        # ad-scope: a phrase is a maximal run of non-keyword words.
        return self._parse_phrase()

    def _parse_field(self, name: str, pos: int) -> Node:
        if name not in _FIELDS:
            raise QuerySyntaxError(f"unknown field tag {name!r}", pos)
        self.next()
        self.expect("=")
        if name == "py":
            tok = self.peek()
            if tok is not None and tok[0] == "(":
                self.next()
                inner = self.parse_expr("py")
                self.expect(")")
                return FieldScope("py", inner)
            tok = self.next()
            return self._parse_year(tok[1], tok[2], consumed=True)
        self.expect("(")
        inner = self.parse_expr("ad")
        self.expect(")")
        return FieldScope("ad", inner)

    def _parse_year(self, value: str, pos: int, consumed: bool = False) -> YearEquals:
        if not consumed:
            self.next()
        if not value.isdigit():
            raise QuerySyntaxError(f"expected a year, got {value!r}", pos)
        return YearEquals(int(value))

    def _parse_phrase(self) -> Phrase:
        words: list[str] = []
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "word" or tok[1] in _KEYWORDS:
                break
            words.append(self.next()[1])
        if not words:
            tok = self.peek()
            pos = tok[2] if tok else len(self.text)
            raise QuerySyntaxError("expected a phrase", pos)
        return Phrase(tuple(words))


def parse_query(text: str) -> Node:
    """Parse a query string into an AST."""
    if not text.strip():
        raise QuerySyntaxError("empty query", 0)
    parser = _Parser(text)
    node = parser.parse_expr(None)
    tok = parser.peek()
    if tok is not None:
        raise QuerySyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return node


def to_text(node: Node, _ctx: str | None = None) -> str:
    """Render an AST back to query text; reparses to an identical AST.

    Sub-expressions are fully parenthesized so the output is unambiguous
    regardless of precedence.
    """
    if isinstance(node, YearEquals):
        return str(node.year) if _ctx == "py" else f"py={node.year}"
    if isinstance(node, FieldScope):
        return f"{node.field}=({to_text(node.expr, node.field)})"
    if isinstance(node, Phrase):
        body = " ".join(node.tokens)
        return f"({body})" if _ctx == "ad" else body
    ops = {Same: "same", And: "and", Or: "or", Not: "not"}
    op = ops[type(node)]
    return f"({to_text(node.left, _ctx)} {op} {to_text(node.right, _ctx)})"


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
        if isinstance(node, (Same, And)):
            return self._addresses(node.left) & self._addresses(node.right)
        if isinstance(node, Or):
            return self._addresses(node.left) | self._addresses(node.right)
        if isinstance(node, Not):
            return self._addresses(node.left) - self._addresses(node.right)
        raise TypeError(f"{type(node).__name__} cannot appear inside an address scope")

    def records(self, node: Node) -> set[str]:
        """Ids of the records that satisfy a query."""
        if isinstance(node, YearEquals):
            return set(self._by_year.get(node.year, ()))
        if isinstance(node, FieldScope):
            return self.records(node.expr)
        if isinstance(node, Phrase):
            return {self._owner[a] for a in self._phrase(node.tokens)}
        if isinstance(node, Same):
            # Both sides must hold within one and the same address string.
            both = self._addresses(node.left) & self._addresses(node.right)
            return {self._owner[a] for a in both}
        if isinstance(node, And):
            return self.records(node.left) & self.records(node.right)
        if isinstance(node, Or):
            return self.records(node.left) | self.records(node.right)
        if isinstance(node, Not):
            return self.records(node.left) - self.records(node.right)
        raise TypeError(f"unknown node type {type(node).__name__}")


def match_record(node: Node, rec: PublicationRecord) -> bool:
    """Decide whether a record satisfies a query. Total function."""
    return bool(_AddressIndex([rec]).records(node))


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


def parse_unit_definitions(text: str) -> list[UnitDefinition]:
    """Parse a unit-definitions file: one `name := query [minus a,b]` per
    line, `#` comments, blank lines ignored."""
    defs: list[UnitDefinition] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":=" not in line:
            raise QuerySyntaxError("missing ':='", 0, lineno)
        name, rhs = line.split(":=", 1)
        name = name.strip()
        if not name:
            raise QuerySyntaxError("empty unit name", 0, lineno)
        if name in seen:
            raise QuerySyntaxError(f"duplicate unit {name!r}", 0, lineno)
        seen.add(name)
        try:
            query_text, minus = _split_minus(rhs)
            query = parse_query(query_text)
        except QuerySyntaxError as exc:
            # The body starts right after the first ':=' of the raw line.
            offset = raw.index(":=") + 2 + exc.position
            raise QuerySyntaxError(exc.message, offset, lineno) from None
        defs.append(UnitDefinition(name, query, tuple(minus)))
    return defs


def assign_units(
    corpus: Corpus, defs: Iterable[UnitDefinition]
) -> dict[str, frozenset[str]]:
    """Map each unit name to the set of cited-side publication ids it owns.

    Base query results are computed first; `minus` then subtracts the
    resolved result sets of the referenced units. A publication may belong
    to several units.
    """
    defs = list(defs)
    by_name: Mapping[str, UnitDefinition] = {d.name: d for d in defs}
    index = _AddressIndex(corpus.cited.values())
    base = {d.name: frozenset(index.records(d.query)) for d in defs}

    resolved: dict[str, frozenset[str]] = {}
    in_progress: set[str] = set()

    def resolve(name: str) -> frozenset[str]:
        if name in resolved:
            return resolved[name]
        if name in in_progress:
            raise CyclicMinus(f"cyclic minus chain through {name!r}")
        in_progress.add(name)
        d = by_name[name]
        result = base[name]
        for other in d.minus:
            if other not in by_name:
                raise UnknownUnitInMinus(
                    f"unit {d.name!r} subtracts undefined unit {other!r}"
                )
            result -= resolve(other)
        in_progress.discard(name)
        resolved[name] = result
        return result

    return {d.name: resolve(d.name) for d in defs}
