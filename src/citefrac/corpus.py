"""Bibliographic data model and input/output formats.

Holds the publication record type, the corpus (the one place that states
the reference rule: a reference links iff it names a cited id), the parser
for tagged flat-file exports, the canonical line-delimited JSON interchange
format, and the loader for pre-aggregated indicator tables.
"""
from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable

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


@dataclass(frozen=True)
class PublicationRecord:
    """One bibliographic record, either cited-side, citing-side, or both."""

    id: str
    year: int
    doctype: str = ARTICLE
    addresses: tuple[str, ...] = ()
    nrefs: int | None = None
    cited_ids: tuple[str, ...] = ()
    doi: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("record id must be non-empty")
        if self.year <= 0:
            raise ValueError(f"year must be positive, got {self.year}")
        if self.nrefs is not None and self.nrefs < 0:
            raise ValueError(f"nrefs must be >= 0, got {self.nrefs}")
        if len(set(self.cited_ids)) != len(self.cited_ids):
            raise ValueError("cited_ids contains duplicates")

    @property
    def reference_count(self) -> int:
        """The k of the fractional weight: nrefs when present, else the
        number of extracted references."""
        if self.nrefs is not None:
            return self.nrefs
        return len(self.cited_ids)


@dataclass(frozen=True)
class Corpus:
    """The evaluated (cited) set and its citing documents; links are
    derived from them. Immutable after construction; safe to share across
    workers.
    """

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
            if any(ref in cited_map for ref in rec.cited_ids)
        ]
    citing_map: dict[str, PublicationRecord] = {}
    for rec in citing:
        if rec.id in citing_map:
            raise DuplicateId(f"duplicate citing id {rec.id!r}")
        citing_map[rec.id] = rec
    return Corpus(cited=cited_map, citing=citing_map)


# ---------------------------------------------------------------------------
# Tagged flat-file format (WoS-style export)
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"^([A-Z][A-Z0-9]) (.*)$")
_DOI_SUFFIX_RE = re.compile(r"\bDOI (\S+?)\.?$")
_BRACKET_PREFIX_RE = re.compile(r"^\[[^\]]*\]\s*")


@dataclass
class TaggedParseResult:
    """Outcome of parsing a tagged file: accepted records plus per-record
    rejection errors (each error carries a line number)."""

    records: list[PublicationRecord] = field(default_factory=list)
    errors: list[ParseError] = field(default_factory=list)


def _split_addresses(c1_lines: list[str]) -> list[str]:
    addresses: list[str] = []
    for line in c1_lines:
        for segment in line.split(";"):
            segment = _BRACKET_PREFIX_RE.sub("", segment.strip()).strip()
            if segment:
                addresses.append(segment)
    return addresses


def _finish_record(
    fields: dict[str, list[str]], start_line: int
) -> PublicationRecord:
    def first(tag: str) -> str | None:
        values = fields.get(tag)
        return values[0] if values else None

    rec_id = first("UT") or first("DI")
    if not rec_id:
        raise MissingId("record has neither UT nor DI", start_line)

    def integer(tag: str) -> int | None:
        raw = first(tag)
        try:
            return None if raw is None else int(raw)
        except ValueError:
            raise MalformedField(f"non-integer {tag} {raw!r}", start_line) from None

    year = integer("PY")
    if year is None:
        raise MalformedField("record has no PY field", start_line)
    nrefs = integer("NR")

    cited_ids: list[str] = []
    seen: set[str] = set()
    for cr_line in fields.get("CR", []):
        m = _DOI_SUFFIX_RE.search(cr_line)
        if m and m.group(1) not in seen:
            seen.add(m.group(1))
            cited_ids.append(m.group(1))

    try:
        return PublicationRecord(
            id=rec_id,
            year=year,
            doctype=normalize_doctype(first("DT") or ""),
            addresses=tuple(_split_addresses(fields.get("C1", []))),
            nrefs=nrefs,
            cited_ids=tuple(cited_ids),
            doi=first("DI"),
        )
    except ValueError as exc:
        raise MalformedField(str(exc), start_line) from None


def parse_tagged(stream: IO[str] | str) -> TaggedParseResult:
    """Parse a tagged flat file into publication records.

    Records are delimited by ``ER`` lines; each field starts with a
    two-letter tag in column 1 and may continue on indented lines. The file
    ends with ``EF``. Malformed records, and a record repeating an earlier
    record's id, are rejected individually and reported in the result's
    error list.
    """
    lines = (stream if isinstance(stream, str) else stream.read()).splitlines()

    result = TaggedParseResult()
    first_lines: dict[str, int] = {}  # accepted record id -> its start line
    fields: dict[str, list[str]] = {}
    current_tag: str | None = None
    start_line = 0
    in_record = False
    saw_ef = False

    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        stripped = raw.rstrip()
        if stripped == "EF":
            saw_ef = True
            break
        if stripped == "ER":
            if in_record:
                try:
                    rec = _finish_record(fields, start_line)
                    first = first_lines.setdefault(rec.id, start_line)
                    if first != start_line:
                        raise DuplicateId(
                            f"duplicate record id {rec.id!r}, first at line {first}",
                            start_line,
                        )
                    result.records.append(rec)
                except ParseError as exc:
                    result.errors.append(exc)
            fields = {}
            current_tag = None
            in_record = False
            continue
        m = _TAG_RE.match(raw)
        if m:
            tag, value = m.group(1), m.group(2)
            if not in_record:
                in_record = True
                start_line = lineno
            # FN/VR and other file-header tags are harmless extras.
            fields.setdefault(tag, []).append(value)
            current_tag = tag
        elif raw[:1].isspace() and current_tag is not None:
            fields[current_tag].append(raw.strip())
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

_CANONICAL_FIELDS = ("id", "side", "year", "doctype", "addresses", "nrefs", "cites", "doi")
_SIDES = {"cited", "citing", "both"}


def load_canonical(stream: IO[str] | str) -> Corpus:
    """Load a corpus from the canonical one-JSON-object-per-line format.

    Unknown fields are ignored. References to ids outside the cited set do
    not become links (but still count toward k via ``cites`` length).
    """
    lines = (stream if isinstance(stream, str) else stream.read()).splitlines()

    cited: list[PublicationRecord] = []
    citing: list[PublicationRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", lineno) from None
        side = obj.get("side")
        if side not in _SIDES:
            raise ParseError(f"invalid side {side!r}", lineno)
        rec_id = obj.get("id")
        if not rec_id:
            raise MissingId("missing id", lineno)
        if rec_id in seen:
            raise DuplicateId(f"duplicate id {rec_id!r} at line {lineno}")
        seen.add(rec_id)
        nrefs = obj.get("nrefs")
        if not (nrefs is None or isinstance(nrefs, int)):
            raise MalformedField(
                f"record {rec_id!r}: nrefs must be an integer, got {nrefs!r}", lineno
            )
        for key in ("addresses", "cites"):
            if not isinstance(obj.get(key) or [], list):
                raise MalformedField(
                    f"record {rec_id!r}: {key} must be a list, got {obj[key]!r}", lineno
                )
        try:
            rec = PublicationRecord(
                id=rec_id,
                year=int(obj["year"]),
                doctype=obj.get("doctype") or ARTICLE,
                addresses=tuple(obj.get("addresses") or ()),
                nrefs=nrefs,
                cited_ids=tuple(obj.get("cites") or ()),
                doi=obj.get("doi"),
            )
        except KeyError as exc:
            raise MalformedField(f"record {rec_id!r} has no {exc} field", lineno) from None
        except (TypeError, ValueError) as exc:
            raise MalformedField(f"record {rec_id!r}: {exc}", lineno) from None
        if side in ("cited", "both"):
            cited.append(rec)
        if side in ("citing", "both"):
            citing.append(rec)
    return build_corpus(cited, citing)


def write_canonical(corpus: Corpus) -> str:
    """Serialize a corpus to the canonical format; round-trip stable."""
    out_lines: list[str] = []
    all_ids = sorted(set(corpus.cited) | set(corpus.citing))
    for rec_id in all_ids:
        if rec_id in corpus.cited and rec_id in corpus.citing:
            side = "both"
            rec = corpus.cited[rec_id]
        elif rec_id in corpus.cited:
            side = "cited"
            rec = corpus.cited[rec_id]
        else:
            side = "citing"
            rec = corpus.citing[rec_id]
        obj = {
            "id": rec.id,
            "side": side,
            "year": rec.year,
            "doctype": rec.doctype,
            "addresses": list(rec.addresses),
            "nrefs": rec.nrefs,
            "cites": list(rec.cited_ids),
            "doi": rec.doi,
        }
        out_lines.append(json.dumps(obj, ensure_ascii=False))
    return "\n".join(out_lines) + ("\n" if out_lines else "")


# ---------------------------------------------------------------------------
# Pre-aggregated indicator tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitRow:
    """One unit's row of the unit table: publication count P and exact
    citation totals.

    `counts` maps ``ic``/``fc`` plus a window suffix (``ic3``,
    ``fc_2005_2009``, or a bare ``ic``/``fc`` for a single window) to a
    total. Attributes read a total (``row.ic5``) or derive its
    per-publication ratio exactly (``row.fcp5`` is fc5 / P), never from
    rounded display columns.
    """

    unit: str
    p: int
    counts: dict[str, int | Fraction]

    def __getattr__(self, name: str) -> int | Fraction:
        if name.startswith("__") or name == "counts":
            raise AttributeError(name)
        if name in self.counts:
            return self.counts[name]
        base = name[:2] + name[3:]  # icp5 -> ic5, fcp_2005_2009 -> fc_2005_2009
        if name[:3] in ("icp", "fcp") and base in self.counts:
            return Fraction(self.counts[base], self.p)
        raise AttributeError(f"unit row has no column {name!r}")


_AGGREGATE_COLUMNS = ("unit", "P", "IC3", "FC3", "IC5", "FC5")


def load_aggregate_table(stream: IO[str] | str) -> list[UnitRow]:
    """Load a unit,P,IC3,FC3,IC5,FC5 CSV into unit rows keyed ic3 … fc5."""
    if isinstance(stream, str):
        import io

        stream = io.StringIO(stream)
    reader = csv.DictReader(stream)
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
            counts = {c.lower(): Fraction(raw[c]) for c in _AGGREGATE_COLUMNS[2:]}
        except (TypeError, ValueError, ZeroDivisionError):
            raise NonNumericCell(
                f"missing or non-numeric cell in row {raw!r}", lineno
            ) from None
        if p <= 0:
            raise NonPositiveP(f"P must be positive, got {p}", lineno)
        if raw["unit"] in seen:
            raise DuplicateId(f"duplicate unit {raw['unit']!r} at line {lineno}")
        seen.add(raw["unit"])
        rows.append(UnitRow(unit=raw["unit"], p=p, counts=counts))
    return rows
