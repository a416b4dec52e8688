"""Bibliographic data model and input/output formats.

Holds the publication record type, the corpus (the one place that states
the reference rule: a reference links iff it names a cited id), the parser
for tagged flat-file exports, the canonical line-delimited JSON interchange
format, and the loader for pre-aggregated indicator tables.

Most of a corpus is its citing side, and it repeats itself: its records
name the same cited ids, and a department's papers carry the same
addresses. So both corpus loaders keep one object per distinct value across
records: addresses, cited ids and doctypes go through sys.intern, and years
through a dict per load. The loaders build only acyclic objects, so they
pause the cyclic garbage collector, which would otherwise rescan the growing
corpus again and again.
"""
from __future__ import annotations

import csv
import gc
import io
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from sys import intern
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DuplicateId,
    MalformedField,
    MissingId,
    NonNumericCell,
    NonPositiveP,
    ParseError,
    UnterminatedRecord,
)

# Canonical document-type labels. Anything else is kept verbatim as an
# "other" label, never rejected: citing-side records are not type-filtered.
ARTICLE = "Article"
REVIEW = "Review"
PROCEEDINGS_PAPER = "Proceedings Paper"
EVALUATED_DOCTYPES = frozenset({ARTICLE, REVIEW, PROCEEDINGS_PAPER})

_DOCTYPE_MAP = {
    "article": ARTICLE,
    "review": REVIEW,
    "proceedings paper": PROCEEDINGS_PAPER,
}


def normalize_doctype(label: str) -> str:
    """Map a raw document-type string onto its canonical label.

    Unknown labels are preserved as-is (stripped of surrounding space).
    """
    return _DOCTYPE_MAP.get(label.strip().lower(), label.strip())


class PublicationRecord(NamedTuple):
    """One bibliographic record, either cited-side, citing-side, or both: a
    plain value, equal to the tuple of its fields and copied with
    ``_replace``. The loaders check the record rule; this type does not.

    A tuple, as the loaders build one per record: a frozen dataclass's
    ``__init__`` sets each field through ``object.__setattr__``."""

    id: str
    year: int
    doctype: str = ARTICLE
    addresses: tuple[str, ...] = ()
    nrefs: int | None = None
    cited_ids: tuple[str, ...] = ()
    doi: str | None = None

    @property
    def reference_count(self) -> int:
        """The k of the fractional weight: nrefs when present, else the
        number of extracted references."""
        if self.nrefs is not None:
            return self.nrefs
        return len(self.cited_ids)


@dataclass(frozen=True)
class Corpus:
    """The evaluated (cited) set and its citing documents, each a dict by
    id; links are derived from them."""

    cited: dict[str, PublicationRecord]
    citing: dict[str, PublicationRecord]

    @property
    def links(self) -> tuple[tuple[str, str], ...]:
        """(citing id, cited id) pairs, in citing then reference order."""
        return tuple(
            (rec.id, ref)
            for rec in self.citing.values()
            for ref in rec.cited_ids
            if ref in self.cited
        )


def build_corpus(
    cited: Iterable[PublicationRecord],
    citing: Iterable[PublicationRecord] | None = None,
) -> Corpus:
    """Assemble a corpus from its cited and citing records.

    A reference links iff it names a cited id; references pointing outside
    the corpus do not link but still count toward a record's k. With
    `citing` omitted the records are one population (a tagged export), and
    those whose references name a record of the set are citing as well.
    """
    cited_map: dict[str, PublicationRecord] = {}
    for rec in cited:
        if rec.id in cited_map:
            raise DuplicateId(f"duplicate cited id {rec.id!r}")
        cited_map[rec.id] = rec
    if citing is None:
        citing = [
            rec for rec in cited_map.values()
            if not cited_map.keys().isdisjoint(rec.cited_ids)
        ]
    citing_map: dict[str, PublicationRecord] = {}
    for rec in citing:
        if rec.id in citing_map:
            raise DuplicateId(f"duplicate citing id {rec.id!r}")
        citing_map[rec.id] = rec
    return Corpus(cited=cited_map, citing=citing_map)


# The loaders split a text into lines one block of about this many
# characters at a time, so they hold one block's lines, never one object per
# line of the whole file (2.6 times the text on a WoS export).
_BLOCK_CHARS = 1 << 19


def _blocks(text: str | Iterable[str]) -> Iterator[str]:
    """The text, given as one str or as pieces (a file as it is read), in
    blocks of about `_BLOCK_CHARS` characters that each end just after a
    "\\n", the last one excepted.

    A "\\n" ends a line for str.splitlines and `_record_lines` alike, and
    it is the last character of a "\\r\\n", so no line and no line break
    is cut between blocks. A line cut between pieces is carried into the
    next piece's first block; only that line is joined, so each piece is
    copied once.
    """
    carry: list[str] = []  # the parts of a line begun in earlier pieces
    for piece in (text,) if isinstance(text, str) else text:
        start = 0
        if carry:
            start = piece.find("\n") + 1
            if not start:
                carry.append(piece)
                continue
            carry.append(piece[:start])
            yield "".join(carry)
            carry = []
        last = piece.rfind("\n") + 1  # the end of the piece's last whole line
        while start < last:
            end = piece.find("\n", start + _BLOCK_CHARS - 1) + 1 or last
            yield piece[start:end]
            start = end
        if last < len(piece):
            carry.append(piece[last:])
    if carry:
        yield "".join(carry)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Disable the cyclic garbage collector, then restore its state. For
    code that builds only acyclic objects, which reference counting frees;
    as a decorator it applies to each call."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _lines(text: str | Iterable[str]) -> Iterator[str]:
    """The lines str.splitlines gives of ``text``, split one block at a time."""
    for block in _blocks(text):
        yield from block.splitlines()


def _record_lines(block: str) -> list[str]:
    """The lines of canonical text. Only "\\n", "\\r\\n" and "\\r" end
    one: a JSON string may hold U+2028, U+0085 and the like raw, where
    str.splitlines would cut the record."""
    lines = block.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines if lines[-1] else lines[:-1]


# ---------------------------------------------------------------------------
# Tagged flat-file format (WoS-style export)
# ---------------------------------------------------------------------------

# Every [A-Z][A-Z0-9] pair is a field tag. A record keeps the first value of
# each _FIRST_TAGS tag and every value of C1 and CR, continuation lines
# included; any other tag only opens a record and ends the previous field.
# _FIELDS maps the first three characters of a field line, its tag and a
# space, to the tag when the record keeps it and to "" when it does not. The
# ER and EF markers map to themselves, so that a bare marker followed by
# blanks is not read as a field; `_finish_record` reads no value of theirs.
_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_FIRST_TAGS = ("UT", "DI", "PY", "NR", "DT")
_FIELDS = {a + b + " ": "" for a in _UPPER for b in _UPPER + "0123456789"}
_FIELDS.update((tag + " ", tag) for tag in (*_FIRST_TAGS, "C1", "CR", "ER", "EF"))
# One C1 address per match: the bracket group naming its authors, which
# separates several authors with ';' too, then the address up to the next ';'.
_ADDRESS_RE = re.compile(r"\s*(?:\[[^\]]*\])?([^;]*);?")


@dataclass
class TaggedParseResult:
    """Outcome of parsing a tagged file: accepted records plus per-record
    rejection errors (each error carries a line number)."""

    records: list[PublicationRecord] = field(default_factory=list)
    errors: list[ParseError] = field(default_factory=list)


def _split_addresses(c1_lines: list[str]) -> list[str]:
    addresses: list[str] = []
    for line in c1_lines:
        for segment in _ADDRESS_RE.findall(line):
            segment = segment.strip()
            if segment:
                addresses.append(intern(segment))
    return addresses


def _cited_doi(line: str) -> str | None:
    """The DOI a CR line ends with, or None: the text after a "DOI " that
    starts a word, holding no whitespace, with one trailing '.' dropped.

    That text runs to the end of the line, so only the last "DOI " can
    start it. On a line without newlines this is the first match of the
    regex ``\\bDOI (\\S+?)\\.?$``, found without running it.
    """
    at = line.rfind("DOI ")
    if at < 0 or (at > 0 and (line[at - 1].isalnum() or line[at - 1] == "_")):
        return None
    token = line[at + 4:]
    if token.split() != [token]:
        return None
    return token[:-1] if len(token) > 1 and token[-1] == "." else token


def _count_error(year: int, nrefs: int | None) -> str | None:
    """What breaks the record rule for the two numbers counting rests on:
    the year places a citation in a window, nrefs is the k of its 1/k."""
    if year <= 0:
        return f"year must be positive, got {year}"
    if nrefs is not None and nrefs < 0:
        return f"nrefs must be >= 0, got {nrefs}"
    return None


def _finish_record(
    first: dict[str, str],
    c1: list[str],
    cr: list[str],
    start_line: int,
    years: dict[int, int],
) -> PublicationRecord | ParseError:
    """The record of one ER-terminated block, or the error that rejects it.
    Its repeated values are shared, as the module docstring says; `years`
    holds the year objects of the records before it.

    The error is returned, never raised, so it holds no frame of the parse
    (and through it the whole export).
    """
    rec_id = first.get("UT") or first.get("DI")
    if not rec_id:
        return MissingId("record has neither UT nor DI", start_line)
    if "PY" not in first:
        return MalformedField("record has no PY field", start_line)
    numbers: dict[str, int | None] = {}
    for tag in ("PY", "NR"):
        raw = first.get(tag)
        try:
            numbers[tag] = None if raw is None else int(raw)
        except ValueError:
            return MalformedField(f"non-integer {tag} {raw!r}", start_line)
    if (error := _count_error(numbers["PY"], numbers["NR"])) is not None:
        return MalformedField(error, start_line)

    dois = [intern(doi) for doi in map(_cited_doi, cr) if doi is not None]
    return PublicationRecord(
        rec_id,
        years.setdefault(numbers["PY"], numbers["PY"]),
        intern(normalize_doctype(first.get("DT") or "")),
        tuple(_split_addresses(c1)),
        numbers["NR"],
        tuple(dict.fromkeys(dois)),
        first.get("DI"),
    )


@_collector_paused()
def parse_tagged(text: str | Iterable[str]) -> TaggedParseResult:
    """Parse a tagged flat file, given as one str or as an iterable of
    blocks (see `_blocks`), into publication records.

    Records are delimited by ``ER`` lines; each field starts with a
    two-letter tag in column 1 and may continue on indented lines. The file
    ends with ``EF``. Malformed records, and a record repeating an earlier
    record's id, are rejected individually and reported in the result's
    error list. Records share repeated values, as the module docstring says.
    """
    result = TaggedParseResult()
    first_lines: dict[str, int] = {}  # accepted record id -> its start line
    years: dict[int, int] = {}
    first: dict[str, str] = {}
    c1: list[str] = []
    cr: list[str] = []
    continued: list[str] | None = None  # where an indented line goes
    start_line = 0
    in_record = False
    saw_ef = False

    for lineno, raw in enumerate(_lines(text), start=1):
        tag = _FIELDS.get(raw[:3])
        if tag is not None and not (
            (tag == "ER" or tag == "EF") and raw.rstrip() == tag
        ):
            if not in_record:
                in_record = True
                start_line = lineno
            if tag == "CR":
                cr.append(raw[3:])
                continued = cr
            elif tag == "C1":
                c1.append(raw[3:])
                continued = c1
            else:
                # FN/VR and other file-header tags are harmless extras.
                continued = None
                if tag and tag not in first:
                    first[tag] = raw[3:]
        elif raw[:1].isspace():
            if continued is not None and (value := raw.strip()):
                continued.append(value)
        elif (marker := raw.rstrip()) == "ER":
            if in_record:
                rec = _finish_record(first, c1, cr, start_line, years)
                if isinstance(rec, ParseError):
                    result.errors.append(rec)
                elif (seen_at := first_lines.setdefault(rec.id, start_line)) == start_line:
                    result.records.append(rec)
                else:
                    result.errors.append(DuplicateId(
                        f"duplicate record id {rec.id!r}, first at line {seen_at}",
                        start_line,
                    ))
            first, c1, cr = {}, [], []
            continued = None
            in_record = False
        elif marker == "EF":
            saw_ef = True
            break
        # Anything else (header prose) is ignored.

    if in_record and not saw_ef:
        result.errors.append(
            UnterminatedRecord("record not terminated by ER before EOF", start_line)
        )
    elif in_record:
        result.errors.append(
            UnterminatedRecord("record open at EF marker", start_line)
        )
    return result


# ---------------------------------------------------------------------------
# Canonical line-delimited JSON interchange format
# ---------------------------------------------------------------------------

# A tuple, so that `in` compares a side of any JSON type without hashing it.
_SIDES = ("cited", "citing", "both")
# The string encoder that json.JSONEncoder(ensure_ascii=False) uses.
_quote = json.encoder.encode_basestring


# A line in exactly the shape `write_canonical` writes, whose strings hold no
# '"', no backslash and no control character, and whose integers have at
# most 18 digits. JSON reads such a string as its text and such an integer
# as int() does, so the loader takes a record's values from this one match;
# it reads any other line as JSON, and checks both alike.
_TEXT = r'"([^"\\\x00-\x1f]*)"'
_TEXTS = r'\[((?:"[^"\\\x00-\x1f]*"(?:, "[^"\\\x00-\x1f]*")*)?)\]'
_INTEGER = r"(-?(?:0|[1-9][0-9]{0,17}))"
_written_line = re.compile(
    rf'\{{"id": {_TEXT}, "side": "(cited|citing|both)", "year": {_INTEGER}, '
    rf'"doctype": {_TEXT}, "addresses": {_TEXTS}, "nrefs": (?:{_INTEGER}|null), '
    rf'"cites": {_TEXTS}, "doi": (?:{_TEXT}|null)\}}'
).fullmatch


def _texts(items: str) -> tuple[str, ...]:
    """The strings of a `_TEXTS` match, each interned."""
    return tuple(map(intern, items[1:-1].split('", "'))) if items else ()


def _json_object(line: str, lineno: int) -> dict:
    """The JSON object of a line, with a valid side."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", lineno) from None
    except (ValueError, RecursionError) as exc:  # huge integer, deep nesting
        raise ParseError(f"invalid JSON: {exc}", lineno) from None
    if type(obj) is not dict:
        raise ParseError("a record must be a JSON object", lineno)
    side = obj.get("side")
    if side not in _SIDES:
        raise ParseError(f"invalid side {side!r}", lineno)
    return obj


def _strings(obj: dict, key: str, rec_id: str, lineno: int) -> tuple[str, ...]:
    """The JSON list of strings under `key`, each interned; missing or null
    is empty."""
    value = obj.get(key)
    if value is None:
        return ()
    if type(value) is list:
        # sys.intern raises TypeError on any item that is not a str, so it
        # checks the items as it shares them.
        try:
            return tuple(map(intern, value))
        except TypeError:
            pass
    raise MalformedField(
        f"record {rec_id!r}: {key} must be a list of strings, got {value!r}", lineno
    )


def _json_fields(
    obj: dict, rec_id: str, lineno: int
) -> tuple[int, str, tuple[str, ...], int | None, tuple[str, ...], str | None]:
    """A JSON record's year, doctype, addresses, nrefs, cites and doi, each
    of its type."""
    year = obj.get("year")
    if year is None:
        raise MalformedField(f"record {rec_id!r} has no 'year' field", lineno)
    # int() would read 2005.7 as 2005 and true as 1; a numeric string
    # is read, and int() names a bad one ("invalid literal").
    if type(year) is str:
        try:
            year = int(year)
        except ValueError as exc:
            raise MalformedField(f"record {rec_id!r}: {exc}", lineno) from None
    elif type(year) is not int:
        raise MalformedField(
            f"record {rec_id!r}: year must be an integer, got {year!r}", lineno
        )
    nrefs = obj.get("nrefs")
    if nrefs is not None and type(nrefs) is not int:
        raise MalformedField(
            f"record {rec_id!r}: nrefs must be an integer, got {nrefs!r}", lineno
        )
    doctype = obj.get("doctype")
    if doctype is None:
        doctype = ARTICLE
    elif type(doctype) is not str:
        raise MalformedField(
            f"record {rec_id!r}: doctype must be a string, got {doctype!r}", lineno
        )
    doi = obj.get("doi")
    if doi is not None and type(doi) is not str:
        raise MalformedField(
            f"record {rec_id!r}: doi must be a string, got {doi!r}", lineno
        )
    addresses = _strings(obj, "addresses", rec_id, lineno)
    cites = _strings(obj, "cites", rec_id, lineno)
    return year, doctype, addresses, nrefs, cites, doi


def _utf8_encodable(text: str) -> bool:
    if text.isascii():  # as a corpus mostly is; encoding it would copy it
        return True
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


@_collector_paused()
def load_canonical(text: str | Iterable[str]) -> Corpus:
    """Load a corpus from the canonical one-JSON-object-per-line format,
    given as one str or as an iterable of blocks (see `_blocks`).

    Unknown fields are ignored. References to ids outside the cited set do
    not become links (but still count toward k via ``cites`` length). A
    missing or null doctype reads as Article; any other doctype, ``""``
    included, is kept, as a tagged record without DT keeps ``""``. A record
    whose strings hold a lone surrogate, raw or escaped (``"\\ud800"``), is
    rejected, as no output file could encode it. Records share repeated
    values, as the module docstring says. A line in the shape
    `write_canonical` writes is read by one regex match, any other as JSON;
    both pass the same checks.
    """
    cited: list[PublicationRecord] = []
    citing: list[PublicationRecord] = []
    seen: set[str] = set()
    years: dict[int, int] = {}  # one int object per distinct year
    lineno = 0
    for block in _blocks(text):
        # A lone surrogate is a \ud800-\udfff escape or a raw character
        # UTF-8 cannot encode; a block with neither skips the per-record
        # check. An escape never straddles two blocks, as each ends at "\n".
        surrogates = "\\ud" in block or "\\uD" in block or not _utf8_encodable(block)
        for line in _record_lines(block):
            lineno += 1
            written = _written_line(line)
            if written is not None:
                rec_id, side, year, doctype, addresses, nrefs, cites, doi = written.groups()
            elif line.strip():
                obj = _json_object(line, lineno)
                side, rec_id = obj["side"], obj.get("id")
            else:
                continue
            if not rec_id:
                raise MissingId("missing id", lineno)
            if type(rec_id) is not str:
                raise MalformedField(f"id must be a string, got {rec_id!r}", lineno)
            if rec_id in seen:
                raise DuplicateId(f"duplicate id {rec_id!r}", lineno)
            seen.add(rec_id)
            if written is None:
                year, doctype, addresses, nrefs, cites, doi = _json_fields(obj, rec_id, lineno)
            else:
                year = int(year)
                addresses = _texts(addresses)
                nrefs = None if nrefs is None else int(nrefs)
                cites = _texts(cites)
            if (error := _count_error(year, nrefs)) is not None:
                raise MalformedField(f"record {rec_id!r}: {error}", lineno)
            if len(set(cites)) != len(cites):
                raise MalformedField(
                    f"record {rec_id!r}: cites contains duplicates", lineno
                )
            rec = PublicationRecord(
                rec_id, years.setdefault(year, year), intern(doctype), addresses, nrefs,
                cites, doi,
            )
            if surrogates:
                try:
                    "".join((rec_id, doctype, doi or "", *addresses, *cites)).encode()
                except UnicodeEncodeError:
                    raise MalformedField(
                        f"record {rec_id!r}: a string holds a lone surrogate", lineno
                    ) from None
            if side in ("cited", "both"):
                cited.append(rec)
            if side in ("citing", "both"):
                citing.append(rec)
    return build_corpus(cited, citing)


def _array(strings: tuple[str, ...]) -> str:
    return f"[{', '.join(map(_quote, strings))}]"


def write_canonical(corpus: Corpus) -> str:
    """Serialize a corpus to the canonical format; round-trip stable.

    Each line holds the bytes ``json.dumps(record, ensure_ascii=False)``
    gives for the record's dict, in key order id, side, year, doctype,
    addresses, nrefs, cites, doi; they are formatted here directly.
    """
    cited, citing = corpus.cited, corpus.citing
    lines: list[str] = []
    for rec_id in sorted(cited.keys() | citing.keys()):
        if rec_id in cited:
            rec = cited[rec_id]
            side = "both" if rec_id in citing else "cited"
        else:
            rec, side = citing[rec_id], "citing"
        nrefs = "null" if rec.nrefs is None else rec.nrefs
        doi = "null" if rec.doi is None else _quote(rec.doi)
        lines.append(
            f'{{"id": {_quote(rec.id)}, "side": "{side}", "year": {rec.year}, '
            f'"doctype": {_quote(rec.doctype)}, "addresses": {_array(rec.addresses)}, '
            f'"nrefs": {nrefs}, "cites": {_array(rec.cited_ids)}, "doi": {doi}}}\n'
        )
    return "".join(lines)


# ---------------------------------------------------------------------------
# Pre-aggregated indicator tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class UnitRow:
    """One unit's row of the unit table: its publication count P and, per
    citation window, its exact IC and FC totals.

    `ic` and `fc` map a window's name, the suffix its columns carry (``3``
    and ``5`` in a published table, ``_2005_2009`` for a counted window),
    to a total. `report.unit_columns` derives the per-publication ratios.
    """

    unit: str
    p: int
    ic: dict[str, int]
    fc: dict[str, Fraction]


_AGGREGATE_COLUMNS = ("unit", "P", "IC3", "FC3", "IC5", "FC5")


def load_aggregate_table(text: str) -> list[UnitRow]:
    """Load a unit,P,IC3,FC3,IC5,FC5 CSV into unit rows of windows 3 and 5.

    A unit must be named, once. Every other cell must be a number a float
    can hold, as the statistics read each column as floats. IC3, FC3, IC5
    and FC5 are counts, so none may be negative, and IC3 and IC5 must be
    whole numbers."""
    reader = csv.DictReader(io.StringIO(text))
    try:
        return _aggregate_rows(reader)
    except csv.Error as exc:  # a field over csv.field_size_limit()
        # DictReader.line_num is set after a row is read; the csv reader's
        # counts the line that failed.
        raise MalformedField(str(exc), reader.reader.line_num) from None


# A float holds magnitudes from about 1e-324 to 1e308. A count whose decimal
# exponent is beyond this bound lies far outside that range (its mantissa
# has at most a few thousand digits, as int() reads them), and Fraction
# would first build 10**exponent exactly, in time that grows with it.
_MAX_EXPONENT = 10_000
_EXPONENT_RE = re.compile(r"[\d.]e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _exponent_beyond_float(cell: str) -> bool:
    exponent = _EXPONENT_RE.search(cell)
    return exponent is not None and abs(int(exponent[1])) > _MAX_EXPONENT


def _aggregate_rows(reader: csv.DictReader) -> list[UnitRow]:
    if reader.fieldnames is None or tuple(reader.fieldnames) != _AGGREGATE_COLUMNS:
        raise ParseError(
            f"expected header {','.join(_AGGREGATE_COLUMNS)}, "
            f"got {reader.fieldnames}",
            1,
        )
    rows: list[UnitRow] = []
    seen: set[str] = set()
    for raw in reader:
        lineno = reader.line_num
        if None in raw:
            raise MalformedField(
                f"row has {len(_AGGREGATE_COLUMNS) + len(raw[None])} cells, "
                f"the header {len(_AGGREGATE_COLUMNS)}",
                lineno,
            )
        try:
            p = int(raw["P"])
            cells = [raw[c] for c in _AGGREGATE_COLUMNS[2:]]
            if any(map(_exponent_beyond_float, cells)):
                raise NonNumericCell(
                    f"count exponent far beyond a float's range in row {raw!r}", lineno
                )
            ic3, fc3, ic5, fc5 = counts = [Fraction(cell) for cell in cells]
        except (TypeError, ValueError, ZeroDivisionError):
            raise NonNumericCell(
                f"missing or non-numeric cell in row {raw!r}", lineno
            ) from None
        try:
            for value in (p, *counts):
                float(value)
        except OverflowError:
            raise NonNumericCell(
                f"cell too large for a float in row {raw!r}", lineno
            ) from None
        if ic3.denominator != 1 or ic5.denominator != 1:
            raise NonNumericCell(f"IC must be a whole number in row {raw!r}", lineno)
        if min(counts) < 0:
            raise NonNumericCell(f"IC and FC must not be negative in row {raw!r}", lineno)
        if p <= 0:
            raise NonPositiveP(f"P must be positive, got {p}", lineno)
        if not raw["unit"].strip():
            raise MalformedField("empty unit", lineno)
        if raw["unit"] in seen:
            raise DuplicateId(f"duplicate unit {raw['unit']!r}", lineno)
        seen.add(raw["unit"])
        rows.append(
            UnitRow(raw["unit"], p, {"3": int(ic3), "5": int(ic5)}, {"3": fc3, "5": fc5})
        )
    return rows
