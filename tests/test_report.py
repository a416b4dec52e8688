import random
import re
from fractions import Fraction

import pytest

from citefrac.errors import IncompletePairCoverage, UnitSetMismatch
from citefrac.report import (
    Ranking,
    RankEntry,
    build_homogeneity_graph,
    emit_graph_dot,
    format_aggregates_csv,
    format_ranking_csv,
    rank_change,
    rank_units,
)
from citefrac.stats.results import PairwiseDecision


def decision(a, b, significant):
    return PairwiseDecision(a, b, 1.0, 0.5, significant)


class TestRankUnits:
    def test_fcp5_top_three(self, table1_columns):
        ranking = rank_units(table1_columns, "fcp5")
        top = [(e.rank, e.unit) for e in ranking.entries[:3]]
        assert top == [
            (1, "Dep Chem"),
            (2, "Dep Chinese Language & Literature"),
            (3, "Dep Phys"),
        ]
        assert float(ranking.entries[0].value) == pytest.approx(0.411782, abs=1e-6)

    def test_fc5_rank1(self, table1_columns):
        ranking = rank_units(table1_columns, "fc5")
        assert ranking.entries[0].unit == "Dep Chem"
        assert ranking.entries[0].value == Fraction("166.36")

    def test_tie_broken_by_name(self, table1_columns):
        # Two units share FC5 = 6.9; the lexicographically smaller name
        # ranks first.
        ranking = rank_units(table1_columns, "fc5")
        by_unit = {e.unit: e.rank for e in ranking.entries}
        assert by_unit["Dep Civil Engn"] + 1 == by_unit["Inst Microelect"]
        assert by_unit["Dep Civil Engn"] == 16

    def test_ranks_are_gapless(self, table1_columns):
        ranking = rank_units(table1_columns, "icp3")
        assert [e.rank for e in ranking.entries] == list(range(1, 28))

    def test_values_non_increasing(self, table1_columns):
        for key in ("fc5", "fcp5", "icp5", "p"):
            values = [Fraction(e.value) for e in rank_units(table1_columns, key).entries]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestRankChange:
    def test_chinese_language_plus_17(self, table1_columns):
        a = rank_units(table1_columns, "icp5")
        b = rank_units(table1_columns, "fcp5")
        deltas = dict(rank_change(a, b))
        assert deltas["Dep Chinese Language & Literature"] == 17
        assert deltas["Sch Life Sci"] == -6
        assert deltas["Dep Biomed Engn"] == -6

    def test_identical_rankings(self, table1_columns):
        a = rank_units(table1_columns, "fc5")
        assert all(d == 0 for _, d in rank_change(a, a))

    def test_antisymmetry(self, table1_columns):
        a = rank_units(table1_columns, "icp5")
        b = rank_units(table1_columns, "fcp5")
        forward = dict(rank_change(a, b))
        backward = dict(rank_change(b, a))
        assert all(forward[u] == -backward[u] for u in forward)

    def test_unit_set_mismatch(self):
        a = Ranking("k", (RankEntry(1, "A", 1),))
        b = Ranking("k", (RankEntry(1, "B", 1),))
        with pytest.raises(UnitSetMismatch):
            rank_change(a, b)


class TestHomogeneityGraph:
    def test_complete_graph(self):
        decisions = [
            decision("A", "B", False),
            decision("A", "C", False),
            decision("B", "C", False),
        ]
        g = build_homogeneity_graph(decisions)
        assert g.density == 1.0
        assert len(g.components) == 1

    def test_empty_graph(self):
        decisions = [
            decision("A", "B", True),
            decision("A", "C", True),
            decision("B", "C", True),
        ]
        g = build_homogeneity_graph(decisions)
        assert g.density == 0.0
        assert len(g.components) == 3
        assert g.edges == frozenset()

    def test_four_unit_components(self):
        # Edges {AB, BC}: one component {A,B,C}, one {D}, density 2/6.
        decisions = [
            decision("A", "B", False),
            decision("B", "C", False),
            decision("A", "C", True),
            decision("A", "D", True),
            decision("B", "D", True),
            decision("C", "D", True),
        ]
        g = build_homogeneity_graph(decisions)
        assert g.density == pytest.approx(2 / 6)
        assert set(g.components) == {frozenset("ABC"), frozenset("D")}

    def test_incomplete_coverage(self):
        with pytest.raises(IncompletePairCoverage):
            build_homogeneity_graph([decision("A", "B", False), decision("A", "C", True)])

    def test_components_decrease_as_edges_added(self):
        rng = random.Random(12)
        units = [f"U{i}" for i in range(8)]
        pairs = [(a, b) for i, a in enumerate(units) for b in units[i + 1 :]]
        rng.shuffle(pairs)
        significant = {p: True for p in pairs}
        prev_components = len(units)
        for pair in pairs:
            significant[pair] = False  # add one edge
            decisions = [decision(a, b, sig) for (a, b), sig in significant.items()]
            g = build_homogeneity_graph(decisions)
            assert len(g.components) <= prev_components
            prev_components = len(g.components)


_DOT_ID = r'"((?:[^"\\]|\\.)+)"'


def _dot_unescape(text):
    return re.sub(r"\\(.)", r"\1", text)


def parse_dot(text):
    """Minimal DOT reader: vertices and undirected edges, quoted ids with
    backslash escapes."""
    vertices, edges = set(), set()
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        m = re.fullmatch(f"{_DOT_ID} -- {_DOT_ID}", line)
        if m:
            edges.add(tuple(sorted(map(_dot_unescape, m.groups()))))
        elif m := re.fullmatch(_DOT_ID, line):
            vertices.add(_dot_unescape(m[1]))
    return vertices, edges


class TestDotEmission:
    def test_empty_graph_valid(self):
        g = build_homogeneity_graph([decision("A", "B", True)])
        text = emit_graph_dot(g)
        vertices, edges = parse_dot(text)
        assert vertices == {"A", "B"} and not edges

    def test_four_unit_example_edges_sorted(self):
        decisions = [
            decision("A", "B", False),
            decision("B", "C", False),
            decision("A", "C", True),
            decision("A", "D", True),
            decision("B", "D", True),
            decision("C", "D", True),
        ]
        text = emit_graph_dot(build_homogeneity_graph(decisions))
        edge_lines = [l for l in text.splitlines() if "--" in l]
        assert edge_lines == ['  "A" -- "B";', '  "B" -- "C";']
        assert "// density 0.333333" in text
        assert "// components 2" in text

    def test_quote_and_backslash_escaped(self):
        names = ['Unit "Alpha", Sub', "Unit Beta", "Dep A\\B"]
        decisions = [
            decision(names[0], names[1], False),
            decision(names[0], names[2], False),
            decision(names[1], names[2], True),
        ]
        g = build_homogeneity_graph(decisions)
        text = emit_graph_dot(g)
        assert '  "Unit \\"Alpha\\", Sub" -- "Unit Beta";' in text.splitlines()
        assert '  "Dep A\\\\B";' in text.splitlines()
        vertices, edges = parse_dot(text)
        assert vertices == set(names)
        assert edges == g.edges

    def test_reload_preserves_edge_count(self):
        decisions = [
            decision("A", "B", False),
            decision("A", "C", False),
            decision("B", "C", True),
        ]
        g = build_homogeneity_graph(decisions)
        _, edges = parse_dot(emit_graph_dot(g))
        assert edges == g.edges


class TestCsvEmission:
    def test_display_and_exact_columns(self, table1_rows):
        text = format_aggregates_csv(table1_rows, ["5"])
        lines = text.splitlines()
        assert lines[0] == (
            "unit,P,ic5,ic5_exact,icp5,icp5_exact,fc5,fc5_exact,fcp5,fcp5_exact"
        )
        chem = next(l for l in lines if l.startswith("Dep Chem,"))
        fields = chem.split(",")
        assert fields[:4] == ["Dep Chem", "404", "4950", "4950"]
        assert fields[8] == "0.41"
        assert fields[9].startswith("0.411782178218")

    def test_deterministic(self, table1_columns):
        ranking = rank_units(table1_columns, "fc5")
        assert format_ranking_csv(ranking) == format_ranking_csv(ranking)

    def test_empty_rows_header_only(self):
        assert format_aggregates_csv([], ["5"]).strip() == (
            "unit,P,ic5,ic5_exact,icp5,icp5_exact,fc5,fc5_exact,fcp5,fcp5_exact"
        )

    def test_reranking_exact_column_reproduces_ranks(self, table1_columns):
        ranking = rank_units(table1_columns, "fcp5")
        text = format_ranking_csv(ranking)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        exact = [float(r[-1]) for r in rows]
        # Sorting the emitted exact values descending reproduces the ranks.
        assert exact == sorted(exact, reverse=True)
