"""Shared test utilities: random corpora, brute-force counting oracle,
random query ASTs, per-record query-matching oracle, scalar
studentized-range oracle, per-line regex tagged-file parser oracle,
per-record JSON-encoder canonical writer oracle, textbook omnibus-test
and loop mid-rank oracles."""
from __future__ import annotations

import io
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np

from citefrac.corpus import (
    Corpus,
    PublicationRecord,
    TaggedParseResult,
    _split_addresses,
    build_corpus,
    normalize_doctype,
)
from citefrac.counting import PaperImpact, Window
from citefrac import unitquery as uq
from citefrac.errors import (
    ConvergenceFailure,
    DuplicateId,
    MalformedField,
    MissingId,
    ParseError,
    UnterminatedRecord,
)
from citefrac.stats.distributions import _PHI_Z, _Z, _ZW, _chi_scale_grid, chi2_sf, f_sf

DOCTYPES = ["Article", "Review", "Proceedings Paper", "Editorial", "Letter"]


def random_corpus(rng: random.Random, max_records: int = 50) -> Corpus:
    n_cited = rng.randint(1, max(1, max_records // 2))
    n_citing = rng.randint(0, max_records - n_cited)
    cited = [
        PublicationRecord(
            id=f"C{i}",
            year=rng.randint(2004, 2006),
            doctype=rng.choice(DOCTYPES),
            addresses=tuple(
                f"Univ {rng.randint(0, 3)}, Dep {rng.choice('ABC')}, City"
                for _ in range(rng.randint(0, 2))
            ),
        )
        for i in range(n_cited)
    ]
    cited_ids = [r.id for r in cited]
    citing = []
    for j in range(n_citing):
        n_refs_internal = rng.randint(0, min(4, n_cited))
        cites = tuple(sorted(rng.sample(cited_ids, n_refs_internal)))
        # nrefs may exceed the internal reference count (external refs),
        # be absent, or be zero.
        style = rng.random()
        if style < 0.6:
            nrefs = len(cites) + rng.randint(0, 30)
        elif style < 0.8:
            nrefs = None
        else:
            nrefs = 0 if not cites else len(cites)
        citing.append(
            PublicationRecord(
                id=f"X{j}",
                year=rng.randint(2004, 2011),
                doctype=rng.choice(DOCTYPES),
                nrefs=nrefs,
                cited_ids=cites,
            )
        )
    return build_corpus(cited, citing)


def brute_force_scores(
    corpus: Corpus,
    window: Window,
    eligible_doctypes: frozenset[str],
) -> dict[str, PaperImpact]:
    """Naive per-link reimplementation of the counting rules."""
    out: dict[str, PaperImpact] = {}
    for rec in corpus.cited.values():
        if rec.doctype not in eligible_doctypes:
            continue
        impact = PaperImpact()
        for citing in corpus.citing.values():
            if citing.year < window.start or citing.year > window.end:
                continue
            k = citing.nrefs if citing.nrefs is not None else len(citing.cited_ids)
            for ref in citing.cited_ids:
                if ref == rec.id:
                    if k <= 0:
                        continue
                    impact.ic += 1
                    impact.fc += Fraction(1, k)
        out[rec.id] = impact
    return out


# -- random query ASTs ------------------------------------------------------

_WORDS = ["univ", "dep", "phys", "chem", "sch", "coll", "beijing", "china",
          "taiwan", "life", "sci", "engr", "tsinghua", "state"]


def _random_ad_node(rng: random.Random, depth: int) -> uq.Node:
    if depth <= 0 or rng.random() < 0.4:
        n = rng.randint(1, 3)
        return uq.Phrase(tuple(rng.choice(_WORDS) for _ in range(n)))
    ctor = rng.choice([uq.And, uq.Or, uq.Not, uq.Same])
    return ctor(_random_ad_node(rng, depth - 1), _random_ad_node(rng, depth - 1))


def random_ast(rng: random.Random, depth: int = 3) -> uq.Node:
    roll = rng.random()
    if roll < 0.25:
        return uq.YearEquals(rng.randint(1990, 2020))
    if roll < 0.55 or depth <= 0:
        return uq.FieldScope("ad", _random_ad_node(rng, rng.randint(0, 3)))
    ctor = rng.choice([uq.And, uq.Or, uq.Not])
    return ctor(random_ast(rng, depth - 1), random_ast(rng, depth - 1))


def random_record(rng: random.Random) -> PublicationRecord:
    addresses = tuple(
        ", ".join(
            " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        )
        for _ in range(rng.randint(0, 3))
    )
    return PublicationRecord(
        id=f"R{rng.randint(0, 10**9)}",
        year=rng.randint(1990, 2020),
        addresses=addresses,
    )


# ---------------------------------------------------------------------------
# Per-record query-matching oracle: walks the AST once per record and scans
# every normalized address for each phrase, with no index.
# ---------------------------------------------------------------------------


def _phrase_in(tokens: tuple[str, ...], address: tuple[str, ...]) -> bool:
    n = len(tokens)
    return any(address[i : i + n] == tokens for i in range(len(address) - n + 1))


def _match_address(node: uq.Node, address: tuple[str, ...]) -> bool:
    """Evaluate an ad-scope expression against a single address string."""
    if isinstance(node, uq.Phrase):
        return _phrase_in(node.tokens, address)
    if isinstance(node, uq.Same):
        return _match_address(node.left, address) and _match_address(node.right, address)
    if isinstance(node, uq.And):
        return _match_address(node.left, address) and _match_address(node.right, address)
    if isinstance(node, uq.Or):
        return _match_address(node.left, address) or _match_address(node.right, address)
    if isinstance(node, uq.Not):
        return _match_address(node.left, address) and not _match_address(node.right, address)
    raise TypeError(f"{type(node).__name__} cannot appear inside an address scope")


def index_match_record(node: uq.Node, rec: PublicationRecord) -> bool:
    """Whether a record satisfies a query, by the evaluator `assign_units`
    runs, over an index of that one record."""
    return bool(uq._AddressIndex([rec]).records(node))


def reference_match_record(node: uq.Node, rec: PublicationRecord) -> bool:
    """Decide whether a record satisfies a query. Total function."""
    addresses = [uq.normalize_address(a) for a in rec.addresses]
    return _match(node, rec, addresses)


def _match(node: uq.Node, rec: PublicationRecord, addresses: list[tuple[str, ...]]) -> bool:
    if isinstance(node, uq.YearEquals):
        return rec.year == node.year
    if isinstance(node, uq.FieldScope):
        return _match(node.expr, rec, addresses)
    if isinstance(node, uq.Phrase):
        return any(_phrase_in(node.tokens, a) for a in addresses)
    if isinstance(node, uq.Same):
        # Both sides must hold within one and the same address string.
        return any(
            _match_address(node.left, a) and _match_address(node.right, a)
            for a in addresses
        )
    if isinstance(node, uq.And):
        return _match(node.left, rec, addresses) and _match(node.right, rec, addresses)
    if isinstance(node, uq.Or):
        return _match(node.left, rec, addresses) or _match(node.right, rec, addresses)
    if isinstance(node, uq.Not):
        return _match(node.left, rec, addresses) and not _match(node.right, rec, addresses)
    raise TypeError(f"unknown node type {type(node).__name__}")


# ---------------------------------------------------------------------------
# Scalar studentized-range oracle: one math.erfc call per (w, z) grid point
# and a per-element float power, on the same quadrature grids as the kernel.
# ---------------------------------------------------------------------------


def _ref_normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


_REF_CDF_Z = np.array([_ref_normal_cdf(z) for z in _Z])


def reference_range_cdf(w, k: int):
    """P(range of k standard normals <= w), one scalar Phi per grid point."""
    w = np.asarray(w, dtype=float)
    lower = np.array(
        [[_ref_normal_cdf(zi - wi) for zi in _Z] for wi in np.atleast_1d(w)]
    )
    inner = np.clip(_REF_CDF_Z[None, :] - lower, 0.0, 1.0) ** (k - 1)
    out = k * np.sum(_PHI_Z[None, :] * inner * _ZW[None, :], axis=1)
    return out if out.size > 1 else float(out[0])


def reference_studentized_range_cdf(q: float, k: int, df: float) -> float:
    if q <= 0:
        return 0.0
    if math.isinf(df) or df > 1e6:
        return float(reference_range_cdf(q, k))
    s, w = _chi_scale_grid(float(df))
    inner = reference_range_cdf(q * s, k)
    return float(min(1.0, max(0.0, np.sum(w * inner))))


def reference_studentized_range_quantile(
    alpha: float, k: int, df: float, rel_tol: float = 1e-6, max_iter: int = 200,
    cdf=reference_studentized_range_cdf,
) -> float:
    """Bracketing plus bisection, every step a CDF call: on the scalar
    oracle CDF by default, or on `cdf` (such as the package's kernel, which
    is ten times faster and checked equal to the oracle elsewhere)."""
    target = 1.0 - alpha
    lo, hi = 1e-8, 4.0
    it = 0
    while cdf(hi, k, df) < target:
        lo, hi = hi, hi * 2.0
        it += 1
        if it > 60:
            raise ConvergenceFailure("could not bracket studentized-range quantile")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if cdf(mid, k, df) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * mid:
            return 0.5 * (lo + hi)
    raise ConvergenceFailure(
        f"studentized-range quantile did not converge (bracket [{lo:g}, {hi:g}])"
    )


# ---------------------------------------------------------------------------
# Omnibus-test oracles: a loop mid-ranker, Kruskal-Wallis from rank sums and a
# Counter tie term, and Levene's W from its own sums of the deviations z.
# ---------------------------------------------------------------------------


def reference_rankdata(values) -> np.ndarray:
    """1-based ranks, each run of ties given the mean of its positions."""
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(len(a), dtype=float)
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def reference_kruskal_wallis(groups) -> tuple[float, float]:
    """(H, p): 12/(N(N+1))·Σ Rᵢ²/nᵢ - 3(N+1) over 1 - Σ(t³ - t)/(N³ - N)."""
    pooled = [float(v) for g in groups for v in g]
    n_total = len(pooled)
    ranks = reference_rankdata(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r_sum = float(np.sum(ranks[offset : offset + len(g)]))
        h += r_sum * r_sum / len(g)
        offset += len(g)
    h = 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)
    tie_sum = sum(t**3 - t for t in Counter(pooled).values())
    h = max(0.0, h / (1.0 - tie_sum / (n_total**3 - n_total)))
    return h, chi2_sf(h, len(groups) - 1)


def reference_levene(groups) -> tuple[float, float]:
    """(W, p): W = (N - k)/(k - 1)·Σ nᵢ(z̄ᵢ - z̄)²/ΣΣ(zᵢⱼ - z̄ᵢ)², where
    zᵢⱼ = |xᵢⱼ - x̄ᵢ|. Zero spread of z gives W = 0 if the z̄ᵢ agree, else inf;
    whether z has zero spread is decided in exact arithmetic on the values
    as given, where rounding cannot hide it."""
    exact = [[Fraction(v) for v in g] for g in groups]
    exact_z = [{abs(v - sum(g) / len(g)) for v in g} for g in exact]
    if all(len(zi) == 1 for zi in exact_z):
        return (0.0, 1.0) if len(set().union(*exact_z)) == 1 else (math.inf, 0.0)
    z = [np.abs(np.asarray(g, dtype=float) - float(np.mean(g))) for g in groups]
    n_total = sum(len(g) for g in groups)
    k = len(groups)
    z_means = [float(np.mean(zi)) for zi in z]
    z_grand = float(np.sum([np.sum(zi) for zi in z])) / n_total
    numer = sum(len(g) * (zm - z_grand) ** 2 for g, zm in zip(groups, z_means))
    denom = sum(float(np.sum((zi - zm) ** 2)) for zi, zm in zip(z, z_means))
    if denom == 0.0:
        return (0.0, 1.0) if numer == 0.0 else (math.inf, 0.0)
    w = (n_total - k) / (k - 1) * numer / denom
    return w, f_sf(w, k - 1, n_total - k)


# ---------------------------------------------------------------------------
# Tagged-file parser oracle: a regex match on every line, a list kept for
# every tag, every value stripped of surrounding blanks, and errors raised and
# caught. Addresses come from the package's own _split_addresses.
# ---------------------------------------------------------------------------

_TAG_RE = re.compile(r"^([A-Z][A-Z0-9]) (.*)$")
_DOI_SUFFIX_RE = re.compile(r"\bDOI (\S+?)\.?\s*$")
_DECIMAL_RE = re.compile(r"[+-]?[0-9]+")


def _reference_finish_record(
    fields: dict[str, list[str]], start_line: int
) -> PublicationRecord:
    def first(tag: str) -> str | None:
        values = fields.get(tag)
        return values[0] if values else None

    rec_id = first("UT") or first("DI")
    if not rec_id:
        raise MissingId("record has neither UT nor DI", start_line)

    def integer(tag: str) -> int | None:
        # A sign and ASCII digits only: int() would also read "2_005" and "١٢".
        raw = first(tag)
        try:
            if raw is not None and not _DECIMAL_RE.fullmatch(raw):
                raise ValueError(raw)
            return None if raw is None else int(raw)
        except ValueError:
            raise MalformedField(f"non-integer {tag} {raw!r}", start_line) from None

    year = integer("PY")
    if year is None:
        raise MalformedField("record has no PY field", start_line)
    nrefs = integer("NR")
    if year <= 0:
        raise MalformedField(f"year must be positive, got {year}", start_line)
    if nrefs is not None and nrefs < 0:
        raise MalformedField(f"nrefs must be >= 0, got {nrefs}", start_line)

    cited_ids: list[str] = []
    seen: set[str] = set()
    for cr_line in fields.get("CR", []):
        m = _DOI_SUFFIX_RE.search(cr_line)
        if m and m.group(1) not in seen:
            seen.add(m.group(1))
            cited_ids.append(m.group(1))

    return PublicationRecord(
        id=rec_id,
        year=year,
        doctype=normalize_doctype(first("DT") or ""),
        addresses=tuple(_split_addresses(fields.get("C1", []))),
        nrefs=nrefs,
        cited_ids=tuple(cited_ids),
        doi=first("DI") or None,
    )


def reference_parse_tagged(text: str) -> TaggedParseResult:
    # Universal newlines: only "\n", "\r\n" and "\r" end a line.
    lines = [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]

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
                    rec = _reference_finish_record(fields, start_line)
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
            fields.setdefault(tag, []).append(value.strip())
            current_tag = tag
        elif raw[:1].isspace() and current_tag is not None:
            fields[current_tag].append(raw.strip())

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
# Canonical writer oracle: a dict per record, serialized by the json module's
# own encoder.
# ---------------------------------------------------------------------------

_encode = json.JSONEncoder(ensure_ascii=False).encode


def reference_write_canonical(corpus: Corpus) -> str:
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
            "addresses": rec.addresses,
            "nrefs": rec.nrefs,
            "cites": rec.cited_ids,
            "doi": rec.doi,
        }
        out_lines.append(_encode(obj))
    return "\n".join(out_lines) + ("\n" if out_lines else "")
