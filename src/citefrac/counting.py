"""Integer and fractional citation counting over citation windows.

A citing link is worth 1/k, k = reference-list length of the citing
document, so counting walks the citing records. Per window, each in-window
record computes k once, and each of its references to an eligible paper
appends k to that paper's list of k values. Each cited paper then gets
ic = the list's length and one fc = Fraction(Σ L // k, L), L the lcm of its
k values: the same exact rational as the per-link sum of 1/k, for any
summation order. A unit's fc in a window is likewise one sum over the
common denominator D of its papers' fcs, Fraction(Σ a·(D // b), D) for
each fc a/b. Conversion to floating point happens only at reporting and
statistics boundaries.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import floordiv
from typing import Mapping

from .corpus import Corpus, EVALUATED_DOCTYPES, UnitRow
from .errors import UnknownUnit
from .report import csv_text


@dataclass(frozen=True, order=True)
class Window:
    """Inclusive range of citing-publication years: 1 <= start <= end, as a
    record's year is positive."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 1:
            raise ValueError(f"window start must be >= 1, got {self.start}")
        if self.start > self.end:
            raise ValueError(f"window start {self.start} > end {self.end}")

    def __contains__(self, year: int) -> bool:
        return self.start <= year <= self.end

    def label(self) -> str:
        return f"{self.start}-{self.end}"


@dataclass
class PaperImpact:
    """Citation tallies for one cited paper within a window; a `ScoreSet`
    keys them by the paper's id."""

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
) -> ScoreSet:
    """Count integer and fractional citations per cited paper.

    The cited side is filtered to `eligible_doctypes`; the papers of one
    publication year are picked by the units file (``py=``), through the
    assignment. A citing link contributes iff the citing record's year
    falls in `window`; citing documents are not type-filtered. Papers with
    no in-window citations appear with ic = 0, fc = 0. An in-window citing
    document with k = 0 that cites an eligible paper is skipped and listed.
    """
    impacts = {
        rec.id: PaperImpact()
        for rec in corpus.cited.values()
        if rec.doctype in eligible_doctypes
    }

    # Only integer work per link: ks[cited id] lists the k of each in-window
    # citation of that paper.
    ks: defaultdict[str, list[int]] = defaultdict(list)
    skipped: list[str] = []
    start, end = window.start, window.end
    eligible = impacts.__contains__
    for rec in corpus.citing.values():
        if not start <= rec.year <= end:
            continue
        k = rec.reference_count
        if k <= 0:
            if any(map(eligible, rec.cited_ids)):
                skipped.append(rec.id)
            continue
        for ref in filter(eligible, rec.cited_ids):
            ks[ref].append(k)

    # Σ 1/k = Σ (L/k) / L, L = lcm of the k values.
    for cited_id, paper_ks in ks.items():
        common = math.lcm(*paper_ks)
        impact = impacts[cited_id]
        impact.ic = len(paper_ks)
        impact.fc = Fraction(sum(map(floordiv, repeat(common), paper_ks)), common)
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
            impacts = [score_set.impacts[pid] for pid in paper_ids]
            ic[window] = sum(impact.ic for impact in impacts)
            fc[window] = _exact_sum([impact.fc for impact in impacts])
        rows.append(UnitRow(unit, p, ic, fc))
    return rows, skipped


def _exact_sum(fractions: list[Fraction]) -> Fraction:
    """Σ a/b as one Fraction(Σ a·(D // b), D), D the lcm of the b: one
    reduction, where a chain of Fraction additions reduces at every step."""
    common = math.lcm(*(f.denominator for f in fractions))
    return Fraction(sum(f.numerator * (common // f.denominator) for f in fractions), common)


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
