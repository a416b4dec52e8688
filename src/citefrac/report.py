"""Rankings, rank changes, homogeneity graph, and file emission.

All ranking and graph logic consumes exact values. An emitted table shows
an integer (P, an IC total) as an integer and any other number (FC, a
ratio) rounded to 2 decimals; beside it, an ``*_exact`` column gives the
value's float to 12 significant digits, so 47/24 reads ``1.95833333333``.
That ``_exact`` format is not full precision; it stays as it is while
``perfbench/check.py`` compares aggregates at ``.12g``.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import IncompletePairCoverage, UnitSetMismatch

if TYPE_CHECKING:
    from .corpus import UnitRow
    from .stats.results import PairwiseDecision, TestResult

Number = Fraction | int | float


@dataclass(frozen=True)
class RankEntry:
    rank: int
    unit: str
    value: Number


@dataclass(frozen=True)
class Ranking:
    key: str
    entries: tuple[RankEntry, ...]

    def units(self) -> frozenset[str]:
        return frozenset(e.unit for e in self.entries)


def unit_columns(rows: Sequence[UnitRow], windows: Sequence[str]) -> dict[str, list]:
    """The unit table as named columns: ``unit``, ``p``, then for each
    window w its totals ``ic<w>`` and ``fc<w>``, each followed by its exact
    ratio to P (``icp<w>``, ``fcp<w>``)."""
    columns: dict[str, list] = {"unit": [r.unit for r in rows], "p": [r.p for r in rows]}
    for w in windows:
        for kind, totals in (("ic", [row.ic[w] for row in rows]),
                             ("fc", [row.fc[w] for row in rows])):
            columns[f"{kind}{w}"] = totals
            columns[f"{kind}p{w}"] = [Fraction(t, p) for t, p in zip(totals, columns["p"])]
    return columns


def rank_units(columns: Mapping[str, Sequence], key: str) -> Ranking:
    """Rank the units of `unit_columns` descending by the named column,
    ties broken by ascending unit name. Ranks run 1..n with no gaps."""
    ordered = sorted(
        zip(columns[key], columns["unit"]), key=lambda pair: (-Fraction(pair[0]), pair[1])
    )
    entries = tuple(
        RankEntry(rank=i, unit=unit, value=value)
        for i, (value, unit) in enumerate(ordered, start=1)
    )
    return Ranking(key=key, entries=entries)


def rank_change(a: Ranking, b: Ranking) -> list[tuple[str, int]]:
    """Per-unit rank delta between two rankings, in b's rank order.

    delta = rank in a - rank in b, so positive means the unit improved
    in b.
    """
    if a.units() != b.units():
        raise UnitSetMismatch(
            f"rankings cover different unit sets: "
            f"{sorted(a.units() ^ b.units())} differ"
        )
    rank_a = {e.unit: e.rank for e in a.entries}
    return [(e.unit, rank_a[e.unit] - e.rank) for e in b.entries]


# ---------------------------------------------------------------------------
# Homogeneity graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneityGraph:
    """Units as vertices; an edge joins each pair whose impacts are NOT
    significantly different. Components are the homogeneous groups."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    density: float
    components: tuple[frozenset[str], ...]


def _connected_components(
    vertices: Sequence[str], edges: Iterable[tuple[str, str]]
) -> tuple[frozenset[str], ...]:
    parent = {v: v for v in vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, set[str]] = {}
    for v in vertices:
        groups.setdefault(find(v), set()).add(v)
    return tuple(
        sorted((frozenset(g) for g in groups.values()), key=lambda g: sorted(g)[0])
    )


def build_homogeneity_graph(decisions: Sequence[PairwiseDecision]) -> HomogeneityGraph:
    """Build the graph from a complete set of pairwise decisions."""
    vertices = tuple(sorted({d.unit_i for d in decisions} | {d.unit_j for d in decisions}))
    covered = {tuple(sorted((d.unit_i, d.unit_j))) for d in decisions}
    expected = set(combinations(vertices, 2))
    if covered != expected:
        missing = sorted(expected - covered)
        raise IncompletePairCoverage(f"missing pairs: {missing[:5]}")
    edges = frozenset(
        tuple(sorted((d.unit_i, d.unit_j))) for d in decisions if not d.significant
    )
    n = len(vertices)
    density = len(edges) / (n * (n - 1) / 2) if n > 1 else 0.0
    return HomogeneityGraph(
        vertices=vertices,
        edges=edges,
        density=density,
        components=_connected_components(vertices, edges),
    )


def _dot_id(name: str) -> str:
    """A unit name as a quoted DOT id: backslash and double quote escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_graph_dot(graph: HomogeneityGraph) -> str:
    """Undirected DOT output; vertices and edges in sorted order."""
    lines = [
        f"// density {graph.density:.6f}",
        f"// components {len(graph.components)}",
        "graph homogeneity {",
    ]
    for v in graph.vertices:
        lines.append(f"  {_dot_id(v)};")
    for a, b in sorted(graph.edges):
        lines.append(f"  {_dot_id(a)} -- {_dot_id(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _display(value: Number) -> str:
    return str(value) if type(value) is int else f"{float(value):.2f}"


def _exact(value: Number) -> str:
    return f"{float(value):.12g}"


def csv_text(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    """One CSV table as text: a field holding a comma, a quote or a line
    break is quoted, so every row keeps the header's number of fields."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def format_aggregates_csv(rows: Sequence[UnitRow], windows: Sequence[str]) -> str:
    """Aggregate table CSV: unit, P, then each count column of
    `unit_columns` as a display column plus an `_exact` one."""
    columns = unit_columns(rows, windows)
    units, ps = columns.pop("unit"), columns.pop("p")
    header = ["unit", "P"] + [name for key in columns for name in (key, f"{key}_exact")]
    body = []
    for i, (unit, p) in enumerate(zip(units, ps)):
        out = [unit, str(p)]
        for values in columns.values():
            out += [_display(values[i]), _exact(values[i])]
        body.append(out)
    return csv_text(header, body)


def format_ranking_csv(ranking: Ranking) -> str:
    return csv_text(
        ["rank", "unit", ranking.key, f"{ranking.key}_exact"],
        ([e.rank, e.unit, _display(e.value), _exact(e.value)] for e in ranking.entries),
    )


def format_rank_changes_csv(
    changes: Sequence[tuple[str, int]], from_key: str, to_key: str
) -> str:
    return csv_text(
        ["unit", f"delta_{from_key}_to_{to_key}"],
        ([unit, f"{delta:+d}" if delta else "0"] for unit, delta in changes),
    )


def format_correlation_csv(
    pairs: Mapping[tuple[str, str], tuple[TestResult, TestResult]],
) -> str:
    """Long-format matrix CSV from `correlation_matrix`'s per-pair
    (Pearson, Spearman) results: Pearson below the diagonal, Spearman
    above, each cell tagged with its triangle and starred at p <= 0.05
    (`*`) or p <= 0.01 (`**`). Rows and columns follow the label order of
    the pair keys."""
    labels = list(dict.fromkeys(label for pair in pairs for label in pair))
    body = []
    for i, row in enumerate(labels):
        for j, col in enumerate(labels):
            if i > j:
                method, result = "pearson", pairs[col, row][0]
            elif i < j:
                method, result = "spearman", pairs[row, col][1]
            else:
                continue
            p = result.p_value
            stars = "**" if p <= 0.01 else "*" if p <= 0.05 else ""
            body.append([row, col, method, f"{result.statistic:.6f}", f"{p:.6f}", stars])
    return csv_text(["row", "col", "triangle", "value", "p_value", "stars"], body)


def format_tests_csv(kw: TestResult, lv: TestResult, av: TestResult) -> str:
    return csv_text(["method", "statistic", "df", "p_value"], [
        ["kruskal-wallis", f"{kw.statistic:.6f}", kw.df, f"{kw.p_value:.6g}"],
        ["levene", f"{lv.statistic:.6f}", f"{lv.df[0]}:{lv.df[1]}", f"{lv.p_value:.6g}"],
        ["anova", f"{av.statistic:.6f}", f"{av.df[0]}:{av.df[1]}", f"{av.p_value:.6g}"],
    ])


def format_decisions_csv(decisions: Sequence[PairwiseDecision]) -> str:
    return csv_text(
        ["unit_i", "unit_j", "mean_diff", "critical_diff", "significant"],
        (
            [
                d.unit_i,
                d.unit_j,
                f"{d.mean_diff:.12g}",
                f"{d.critical_diff:.12g}",
                str(d.significant).lower(),
            ]
            for d in sorted(decisions, key=lambda d: (d.unit_i, d.unit_j))
        ),
    )


# A file's text is encoded and written this many characters at a time, so
# that no encoded copy of a whole output is held.
_WRITE_CHARS = 1 << 20


def write_text(path: Path, content: str) -> Path:
    """Write `content` to `path` as Path.write_text writes it (UTF-8),
    one slice of `_WRITE_CHARS` characters at a time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as file:
        for start in range(0, len(content), _WRITE_CHARS):
            file.write(content[start:start + _WRITE_CHARS])
    return path
