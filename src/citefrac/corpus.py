"""Bibliographic data model and input/output formats.

Holds the publication record type, the corpus (the one place that states
the reference rule: a reference links iff it names a cited id), the parser
for tagged flat-file exports, the canonical line-delimited JSON interchange
format, and the loaders of the two unit-keyed CSV tables: pre-aggregated
indicator totals and per-paper samples.

Every loader here and in `unitquery`, and the config reader, takes its text
as one str or as pieces (a file as it is read) and gets its lines from
`_text_lines` alone: only "\n", "\r\n" and "\r" end a line.

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
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from sys import intern
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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

    A "\\n" ends a line for `_lines`, and it is the last character of a
    "\\r\\n", so no line and no line break is cut between blocks. A line
    cut between pieces is carried into the next piece's first block; only
    that line is joined, so each piece is copied once.
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


def _lines(block: str) -> list[str]:
    """The lines of a text, for every input format. Only "\\n", "\\r\\n"
    and "\\r" end one, as universal newlines read it: a tagged field, a
    JSON string, a query or a config value may hold U+2028, U+0085, "\\x0c"
    and the like, where a split at every Unicode line break would cut it."""
    if "\r" in block:
        block = block.replace("\r\n", "\n").replace("\r", "\n")
    lines = block.split("\n")
    return lines if lines[-1] else lines[:-1]


def _text_lines(text: str | Iterable[str]) -> Iterator[str]:
    """The lines of a text given as one str or as pieces (see `_blocks`),
    split by `_lines` one block at a time: the lines of every loader."""
    return chain.from_iterable(map(_lines, _blocks(text)))


def _decimal(text: str, number: type = int):
    """The `number` (int, Fraction or float) that `text` writes in ASCII,
    with blanks around it: the rule for every number an input holds as
    text. Each of those types alone would also read '_' separators and
    non-ASCII digits (``2_005``, ``١٢``, ``٠.٠٥``); this raises ValueError
    for them as the type does for any other text."""
    digits = text.strip()
    if not digits.isascii() or "_" in digits:
        raise ValueError(f"invalid literal for {number.__name__}(): {text!r}")
    return number(text)


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


# On a record's CR lines joined by "\n", the DOI of each line that ends with
# one: the text after a "DOI " that starts a word, holding no whitespace and
# running to the end of its line but for trailing blanks.
_cited_dois_of = re.compile(r"DOI (?<!\wDOI )(\S+)[^\S\n]*$", re.MULTILINE).findall


def _cited_dois(cr: list[str]) -> list[str]:
    """The DOIs of a record's CR lines, in order and interned, each with one
    trailing '.' dropped when longer than one character."""
    dois = _cited_dois_of("\n".join(cr))
    return [intern(d[:-1] if d[-1] == "." and len(d) > 1 else d) for d in dois]


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
    doctypes: dict[str, str],
) -> PublicationRecord | ParseError:
    """The record of one ER-terminated block, or the error that rejects it.
    Its tag values count stripped of blanks. It shares repeated values, as
    the module docstring says; `years` and `doctypes` hold those of the
    records before it, the doctypes by their DT text.

    The error is returned, never raised, so it holds no frame of the parse
    (and through it the whole export).
    """
    doi = first.get("DI")
    doi = None if doi is None else (doi.strip() or None)  # a blank DI is no DOI
    rec_id = first.get("UT", "").strip() or doi
    if not rec_id:
        return MissingId("record has neither UT nor DI", start_line)
    py = first.get("PY")
    if py is None:
        return MalformedField("record has no PY field", start_line)
    nr = first.get("NR")
    year = None
    try:
        year = _decimal(py)
        nrefs = None if nr is None else _decimal(nr)
    except ValueError:
        tag, raw = ("PY", py) if year is None else ("NR", nr)
        return MalformedField(f"non-integer {tag} {raw.strip()!r}", start_line)
    if (error := _count_error(year, nrefs)) is not None:
        return MalformedField(error, start_line)

    dt = first.get("DT", "")
    doctype = doctypes.get(dt) or doctypes.setdefault(dt, intern(normalize_doctype(dt)))
    return PublicationRecord(
        rec_id, years.setdefault(year, year), doctype, tuple(_split_addresses(c1)), nrefs,
        tuple(dict.fromkeys(_cited_dois(cr))), doi,
    )


@_collector_paused()
def parse_tagged(text: str | Iterable[str]) -> TaggedParseResult:
    """Parse a tagged flat file, given as one str or as pieces (see
    `_text_lines`), into publication records.

    Records are delimited by ``ER`` lines; each field starts with a
    two-letter tag in column 1 and may continue on indented lines. The file
    ends with ``EF``. Malformed records, and a record repeating an earlier
    record's id, are rejected individually and reported in the result's
    error list. Records share repeated values, as the module docstring says.
    """
    result = TaggedParseResult()
    first_lines: dict[str, int] = {}  # accepted record id -> its start line
    years: dict[int, int] = {}
    doctypes: dict[str, str] = {}
    first: dict[str, str] = {}
    c1: list[str] = []
    cr: list[str] = []
    # Where an indented line goes, kept whole: the C1 split and CR match ignore blanks.
    continued: list[str] | None = None
    start_line = 0
    in_record = False
    saw_ef = False

    for lineno, raw in enumerate(_text_lines(text), 1):
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
            if continued is not None:
                continued.append(raw)
        elif (marker := raw.rstrip()) == "ER":
            if in_record:
                rec = _finish_record(first, c1, cr, start_line, years, doctypes)
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
# '"', no backslash, no control character and no surrogate, whose year is
# positive, whose nrefs is null or not negative, and whose integers have at
# most 18 digits. JSON reads such a string as its text and such an integer as
# int() does, and such a record meets `_count_error` by construction, so the
# loader takes a record's values from this one match. It reads any other line
# as JSON, where `_count_error` checks the numbers and an encode the strings.
# A list's group holds the text between its first and last quote, and is None
# for "[]". The ", " between two strings is required: an optional separator
# would let the match split a string's text in exponentially many ways before
# it fails.
_STRING = r'[^"\\\x00-\x1f\ud800-\udfff]*'
_TEXT = rf'"({_STRING})"'
_TEXTS = rf'\[(?:"({_STRING}(?:", "{_STRING})*)")?\]'
_written_line = re.compile(
    rf'\{{"id": {_TEXT}, "side": "(cited|citing|both)", "year": ([1-9][0-9]{{0,17}}), '
    rf'"doctype": {_TEXT}, "addresses": {_TEXTS}, "nrefs": (?:(0|[1-9][0-9]{{0,17}})|null), '
    rf'"cites": {_TEXTS}, "doi": (?:{_TEXT}|null)\}}'
).fullmatch


def _texts(items: str | None) -> tuple[str, ...]:
    """The strings of a `_TEXTS` match, each interned."""
    return () if items is None else tuple(map(intern, items.split('", "')))


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


def _json_integer(obj: dict, key: str, rec_id: str, lineno: int) -> int | None:
    """The integer under `key`, None when it is missing or null: a JSON
    integer, or a string that `_decimal` reads. int() would read 2005.7 as
    2005 and true as 1."""
    value = obj.get(key)
    if value is None or type(value) is int:
        return value
    if type(value) is str:
        try:
            return _decimal(value)
        except ValueError:
            pass
    raise MalformedField(
        f"record {rec_id!r}: {key} must be an integer, got {value!r}", lineno
    )


def _json_fields(
    obj: dict, rec_id: str, lineno: int
) -> tuple[int, str, tuple[str, ...], int | None, tuple[str, ...], str | None]:
    """A JSON record's year, doctype, addresses, nrefs, cites and doi, each
    of its type."""
    year = _json_integer(obj, "year", rec_id, lineno)
    if year is None:
        raise MalformedField(f"record {rec_id!r} has no 'year' field", lineno)
    nrefs = _json_integer(obj, "nrefs", rec_id, lineno)
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


@_collector_paused()
def load_canonical(text: str | Iterable[str]) -> Corpus:
    """Load a corpus from the canonical one-JSON-object-per-line format,
    given as one str or as pieces (see `_text_lines`).

    Unknown fields are ignored. References to ids outside the cited set do
    not become links (but still count toward k via ``cites`` length). A
    missing or null doctype reads as Article; any other doctype, ``""``
    included, is kept, as a tagged record without DT keeps ``""``. A record
    whose strings hold a lone surrogate, raw or escaped (``"\\ud800"``), is
    rejected, as no output file could encode it. Records share repeated
    values, as the module docstring says. A line in the shape
    `write_canonical` writes, its strings free of surrogates, is read by one
    regex match; any other line is read as JSON, whose strings are checked
    for lone surrogates. Both pass the same checks.
    """
    cited: list[PublicationRecord] = []
    citing: list[PublicationRecord] = []
    seen: set[str] = set()
    years: dict[int, int] = {}  # one int object per distinct year
    for lineno, line in enumerate(_text_lines(text), 1):
        written = _written_line(line)
        if written is not None:
            rec_id, side, year, doctype, addresses, nrefs, cites, doi = written.groups()
        elif line.strip():
            obj = _json_object(line, lineno)
            side, rec_id = obj["side"], obj.get("id")
            if type(rec_id) is not str and rec_id is not None:
                raise MalformedField(f"id must be a string, got {rec_id!r}", lineno)
        else:
            continue
        if not rec_id:
            raise MissingId("missing id", lineno)
        if rec_id in seen:
            raise DuplicateId(f"duplicate id {rec_id!r}", lineno)
        seen.add(rec_id)
        if written is None:
            year, doctype, addresses, nrefs, cites, doi = _json_fields(obj, rec_id, lineno)
            if (error := _count_error(year, nrefs)) is not None:
                raise MalformedField(f"record {rec_id!r}: {error}", lineno)
            try:
                "".join((rec_id, doctype, doi or "", *addresses, *cites)).encode()
            except UnicodeEncodeError:
                raise MalformedField(
                    f"record {rec_id!r}: a string holds a lone surrogate", lineno
                ) from None
        else:  # the match took only numbers that meet _count_error
            year = int(year)
            addresses = _texts(addresses)
            nrefs = None if nrefs is None else int(nrefs)
            cites = _texts(cites)
        if len(set(cites)) != len(cites):
            raise MalformedField(
                f"record {rec_id!r}: cites contains duplicates", lineno
            )
        rec = PublicationRecord(
            rec_id, years.setdefault(year, year), intern(doctype), addresses, nrefs,
            cites, doi,
        )
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
# Unit-keyed CSV tables: pre-aggregated indicators and per-paper samples
# ---------------------------------------------------------------------------

def _unit_rows(
    text: str | Iterable[str], columns: Callable[[list[str]], Sequence[int]]
) -> Iterator[tuple[int, str, list[str]]]:
    """Each row of a unit-keyed CSV table as its line, its unit (its `unit`
    cell stripped of blanks) and the cells of the columns that `columns`
    picks from the header, which raises on a header its table does not
    take. A row whose cells do not match the header in number, or whose
    unit is blank, is rejected with its line. The csv reader gets each line
    ended by "\n", so a quoted cell holding a line break reads back whole."""
    reader = csv.reader(line + "\n" for line in _text_lines(text))
    try:
        header = next(reader, [])
        picked = columns(header)
        unit_at = header.index("unit")
        for row in filter(None, reader):  # a blank line is no row
            if len(row) != len(header):
                raise MalformedField(
                    f"row has {len(row)} cells, the header {len(header)}", reader.line_num
                )
            if not (unit := row[unit_at].strip()):
                raise MalformedField("empty unit", reader.line_num)
            yield reader.line_num, unit, [row[i] for i in picked]
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise MalformedField(str(exc), reader.line_num) from None


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


# The citation windows of a published unit table, named as its IC and FC columns end.
TABLE_WINDOWS = ("3", "5")
_AGGREGATE_COLUMNS = ("unit", "P", *(k + w for w in TABLE_WINDOWS for k in ("IC", "FC")))


def _aggregate_columns(header: list[str]) -> range:
    if tuple(header) != _AGGREGATE_COLUMNS:
        raise ParseError(
            f"expected header {','.join(_AGGREGATE_COLUMNS)}, got {header}", 1
        )
    return range(len(header))


# A float holds magnitudes from about 1e-324 to 1e308. A count whose decimal
# exponent is beyond this bound lies far outside that range (its mantissa
# has at most a few thousand digits, as int() reads them), and Fraction
# would first build 10**exponent exactly, in time that grows with it.
_MAX_EXPONENT = 10_000
_EXPONENT_RE = re.compile(r"[\d.]e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _exponent_beyond_float(cell: str) -> bool:
    exponent = _EXPONENT_RE.search(cell)
    return exponent is not None and abs(int(exponent[1])) > _MAX_EXPONENT


def load_aggregate_table(text: str | Iterable[str]) -> list[UnitRow]:
    """Load a unit,P,IC3,FC3,IC5,FC5 CSV, given as one str or as pieces
    (see `_text_lines`), into unit rows of the `TABLE_WINDOWS` 3 and 5.

    A unit must be named, once. Every cell is a number by `_decimal`'s
    rule, P an integer and the others fractions, that a float can hold, as
    the statistics read each column as floats. IC3, FC3, IC5 and FC5 are
    counts, so none may be negative, and IC3 and IC5 must be whole numbers."""
    rows: list[UnitRow] = []
    seen: set[str] = set()
    for lineno, unit, cells in _unit_rows(text, _aggregate_columns):
        raw = dict(zip(_AGGREGATE_COLUMNS, cells))
        try:
            p = _decimal(cells[1])
            if any(map(_exponent_beyond_float, cells[2:])):
                raise NonNumericCell(
                    f"count exponent far beyond a float's range in row {raw!r}", lineno
                )
            counts = [_decimal(cell, Fraction) for cell in cells[2:]]
        except (ValueError, ZeroDivisionError):
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
        if any(ic.denominator != 1 for ic in counts[0::2]):
            raise NonNumericCell(f"IC must be a whole number in row {raw!r}", lineno)
        if min(counts) < 0:
            raise NonNumericCell(f"IC and FC must not be negative in row {raw!r}", lineno)
        if p <= 0:
            raise NonPositiveP(f"P must be positive, got {p}", lineno)
        if unit in seen:
            raise DuplicateId(f"duplicate unit {unit!r}", lineno)
        seen.add(unit)
        rows.append(UnitRow(unit, p, dict(zip(TABLE_WINDOWS, map(int, counts[0::2]))),
                            dict(zip(TABLE_WINDOWS, counts[1::2]))))
    return rows


def _sample_columns(header: list[str]) -> list[int]:
    if "unit" not in header:
        raise MalformedField("samples header lacks a 'unit' column", 1)
    for value_columns in (["fc_num", "fc_den"], ["value"]):
        if all(column in header for column in value_columns):
            return [header.index(column) for column in value_columns]
    raise MalformedField("samples header lacks a value column", 1)


def load_samples_csv(text: str | Iterable[str]) -> dict[str, list[float]]:
    """Per-paper samples by unit, from a unit,value table or from a scores
    export (unit, fc_num, fc_den), given as one str or as pieces: there a
    sample is the float of the exact fraction fc_num/fc_den, which is what
    `counting.per_paper_samples` gives. Each number is read by `_decimal`'s
    rule."""
    groups: dict[str, list[float]] = {}
    for lineno, unit, cells in _unit_rows(text, _sample_columns):
        try:
            if len(cells) == 1:
                value = _decimal(cells[0], float)
            else:
                num, den = map(_decimal, cells)
                value = float(Fraction(num, den)) if den > 0 else math.nan
        except (ValueError, OverflowError):  # OverflowError: too large for a float
            value = math.nan
        if not math.isfinite(value):
            columns = "value" if len(cells) == 1 else "fc_num/fc_den"
            raise NonNumericCell(
                f"{columns} {'/'.join(cells)!r} is not a finite number", lineno
            )
        groups.setdefault(unit, []).append(value)
    return groups
