"""Integer and fractional citation counting over citation windows.

A citing link is worth 1/k, k = reference-list length of the citing
document, so counting walks the citing records. Per window, each in-window
record computes k once, and each of its references to an eligible paper
adds 1 to n[cited paper][k]. Each cited paper then gets ic = Σ nₖ and one
fc = Fraction(Σ nₖ·(L // k), L), L the lcm of its k values: the same exact
rational as the per-link sum of 1/k, for any summation order. Conversion
to floating point happens only at reporting and statistics boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .corpus import Corpus, EVALUATED_DOCTYPES, UnitRow
from .errors import UnknownUnit
from .report import csv_text


@dataclass(frozen=True, order=True)
class Window:
    """Inclusive range of citing-publication years."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"window start {self.start} > end {self.end}")

    def __contains__(self, year: int) -> bool:
        return self.start <= year <= self.end

    def label(self) -> str:
        return f"{self.start}-{self.end}"


@dataclass
class PaperImpact:
    """Citation tallies for one cited paper within a window."""

    paper_id: str
    ic: int = 0
    fc: Fraction = Fraction(0)


@dataclass
class ScoreSet:
    """Per-paper impacts plus the ids of citing documents skipped for
    having k = 0 (skip-and-warn policy)."""

    impacts: dict[str, PaperImpact]
    skipped_citing: list[str] = field(default_factory=list)


def paper_scores(
    corpus: Corpus,
    window: Window,
    eligible_doctypes: frozenset[str] = EVALUATED_DOCTYPES,
    pub_years: frozenset[int] | None = None,
) -> ScoreSet:
    """Count integer and fractional citations per cited paper.

    The cited side is filtered to `eligible_doctypes` and, when given, to
    `pub_years`. A citing link contributes iff the citing record's year
    falls in `window`; citing documents are not type-filtered. Papers with
    no in-window citations appear with ic = 0, fc = 0. An in-window citing
    document with k = 0 that cites an eligible paper is skipped and listed.
    """
    impacts: dict[str, PaperImpact] = {}
    for rec in corpus.cited.values():
        if rec.doctype not in eligible_doctypes:
            continue
        if pub_years is not None and rec.year not in pub_years:
            continue
        impacts[rec.id] = PaperImpact(rec.id)

    # Only integer work per link: tallies[cited id][k] counts in-window
    # citations from documents with k references.
    tallies: dict[str, dict[int, int]] = {}
    skipped: list[str] = []
    for rec in corpus.citing.values():
        if rec.year not in window:
            continue
        k = rec.reference_count
        if k <= 0:
            if any(ref in impacts for ref in rec.cited_ids):
                skipped.append(rec.id)
            continue
        for ref in rec.cited_ids:
            if ref in impacts:
                by_k = tallies.setdefault(ref, {})
                by_k[k] = by_k.get(k, 0) + 1

    # Σ nₖ/k = Σ nₖ·(L/k) / L, L = lcm of the k values.
    for cited_id, by_k in tallies.items():
        common = math.lcm(*by_k)
        impact = impacts[cited_id]
        impact.ic = sum(by_k.values())
        impact.fc = Fraction(
            sum(n * (common // k) for k, n in by_k.items()), common
        )
    return ScoreSet(impacts=impacts, skipped_citing=sorted(skipped))


def aggregate_units(
    assignment: Mapping[str, frozenset[str]],
    scores: Mapping[str, ScoreSet],
    min_pubs: int = 5,
) -> tuple[list[UnitRow], list[tuple[str, int]]]:
    """Sum per-paper impacts into unit rows, every window at once.

    `scores` maps each window's name to its `ScoreSet`; all must count the
    same papers, so P is the same in each. A paper assigned to several units
    contributes fully to each (whole counting at the unit level). Units with
    fewer than `min_pubs` papers are left out and returned second, as
    (unit, P) pairs.
    """
    papers = [score_set.impacts.keys() for score_set in scores.values()]
    if not papers or any(keys != papers[0] for keys in papers):
        raise ValueError("aggregate_units needs score sets that count the same papers")
    counted = papers[0]
    rows: list[UnitRow] = []
    skipped: list[tuple[str, int]] = []
    for unit in sorted(assignment):
        paper_ids = [pid for pid in assignment[unit] if pid in counted]
        p = len(paper_ids)
        if p < min_pubs:
            skipped.append((unit, p))
            continue
        ic, fc = {}, {}
        for window, score_set in scores.items():
            impacts = score_set.impacts
            ic[window] = sum(impacts[pid].ic for pid in paper_ids)
            fc[window] = sum((impacts[pid].fc for pid in paper_ids), Fraction(0))
        rows.append(UnitRow(unit, p, ic, fc))
    return rows, skipped


def per_paper_samples(
    assignment: Mapping[str, frozenset[str]],
    scores: ScoreSet,
    unit: str,
) -> list[float]:
    """The unit's per-paper fractional citation values, zeros included.

    This is the sample fed to the significance battery; its length equals
    the unit's publication count.
    """
    if unit not in assignment:
        raise UnknownUnit(f"unit {unit!r} not in assignment")
    impacts = scores.impacts
    return [float(impacts[p].fc) for p in sorted(assignment[unit]) if p in impacts]


def export_scores_csv(
    scores: ScoreSet,
    assignment: Mapping[str, frozenset[str]],
) -> str:
    """Scores export: paper_id, unit, ic, fc_num, fc_den, fc_decimal, one
    row per counted paper of each unit, in (unit, paper) order."""
    impacts = scores.impacts
    return csv_text(
        ["paper_id", "unit", "ic", "fc_num", "fc_den", "fc_decimal"],
        (
            [
                pid, unit, imp.ic,
                imp.fc.numerator, imp.fc.denominator, f"{float(imp.fc):.12f}",
            ]
            for unit in sorted(assignment)
            for pid in sorted(assignment[unit])
            if (imp := impacts.get(pid)) is not None
        ),
    )
