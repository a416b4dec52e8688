"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live;
under plain pytest the prints appear in captured output on failure.
"""
from __future__ import annotations

import csv
import hashlib
import json
import random
import time
from fractions import Fraction

from citefrac.cli import main
from citefrac.corpus import EVALUATED_DOCTYPES, load_aggregate_table, load_canonical
from citefrac.counting import Window, paper_scores
from citefrac.report import rank_change, rank_units
from citefrac.stats import (
    correlation_matrix,
    dunnett_c,
    kruskal_wallis,
    levene,
    one_way_anova,
    studentized_range_quantile,
)
from citefrac.unitquery import (
    assign_units,
    parse_query,
    parse_unit_definitions,
    to_text,
)

from helpers import brute_force_scores, random_ast, random_corpus

ALL_DOCTYPES = frozenset(
    ["Article", "Review", "Proceedings Paper", "Editorial", "Letter"]
)


def _verdict(n: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {n}] {label}: {status}")
    assert not failures, f"criterion {n} ({label}): " + "; ".join(failures[:10])


def _table1_rows(data_dir):
    return load_aggregate_table(
        (data_dir / "table1.csv").read_text(encoding="utf-8")
    )


def _load_golden(path):
    with path.open(encoding="utf-8") as fh:
        return {int(row["rank"]): row["unit"] for row in csv.DictReader(fh)}


# Published 9x9 correlation matrix over the aggregate table: Pearson in
# the lower triangle, Spearman in the upper. 2-decimal source values.
LABELS = ["P", "ICP3", "ICP5", "FCP3", "FCP5", "IC3", "IC5", "FC3", "FC5"]

PEARSON_LOWER = {
    ("ICP3", "P"): 0.248,
    ("ICP5", "P"): 0.281, ("ICP5", "ICP3"): 0.967,
    ("FCP3", "P"): 0.111, ("FCP3", "ICP3"): 0.744, ("FCP3", "ICP5"): 0.598,
    ("FCP5", "P"): 0.259, ("FCP5", "ICP3"): 0.936, ("FCP5", "ICP5"): 0.890,
    ("FCP5", "FCP3"): 0.872,
    ("IC3", "P"): 0.715, ("IC3", "ICP3"): 0.756, ("IC3", "ICP5"): 0.783,
    ("IC3", "FCP3"): 0.465, ("IC3", "FCP5"): 0.698,
    ("IC5", "P"): 0.698, ("IC5", "ICP3"): 0.753, ("IC5", "ICP5"): 0.792,
    ("IC5", "FCP3"): 0.457, ("IC5", "FCP5"): 0.700, ("IC5", "IC3"): 0.996,
    ("FC3", "P"): 0.843, ("FC3", "ICP3"): 0.652, ("FC3", "ICP5"): 0.673,
    ("FC3", "FCP3"): 0.415, ("FC3", "FCP5"): 0.625, ("FC3", "IC3"): 0.972,
    ("FC3", "IC5"): 0.960,
    ("FC5", "P"): 0.823, ("FC5", "ICP3"): 0.666, ("FC5", "ICP5"): 0.701,
    ("FC5", "FCP3"): 0.411, ("FC5", "FCP5"): 0.638, ("FC5", "IC3"): 0.980,
    ("FC5", "IC5"): 0.978, ("FC5", "FC3"): 0.995,
}

SPEARMAN_UPPER = {
    ("P", "ICP3"): 0.093, ("P", "ICP5"): 0.133, ("P", "FCP3"): 0.093,
    ("P", "FCP5"): 0.12, ("P", "IC3"): 0.934, ("P", "IC5"): 0.927,
    ("P", "FC3"): 0.946, ("P", "FC5"): 0.954,
    ("ICP3", "ICP5"): 0.942, ("ICP3", "FCP3"): 0.890, ("ICP3", "FCP5"): 0.941,
    ("ICP3", "IC3"): 0.386, ("ICP3", "IC5"): 0.385, ("ICP3", "FC3"): 0.347,
    ("ICP3", "FC5"): 0.324,
    ("ICP5", "FCP3"): 0.729, ("ICP5", "FCP5"): 0.847, ("ICP5", "IC3"): 0.422,
    ("ICP5", "IC5"): 0.440, ("ICP5", "FC3"): 0.369, ("ICP5", "FC5"): 0.362,
    ("FCP3", "FCP5"): 0.945, ("FCP3", "IC3"): 0.328, ("FCP3", "IC5"): 0.303,
    ("FCP3", "FC3"): 0.349, ("FCP3", "FC5"): 0.301,
    ("FCP5", "IC3"): 0.382, ("FCP5", "IC5"): 0.38, ("FCP5", "FC3"): 0.393,
    ("FCP5", "FC5"): 0.352,
    ("IC3", "IC5"): 0.988, ("IC3", "FC3"): 0.983, ("IC3", "FC5"): 0.988,
    ("IC5", "FC3"): 0.977, ("IC5", "FC5"): 0.983,
    ("FC3", "FC5"): 0.994,
}


def test_criterion_1_correlation_matrix(data_dir):
    started = time.perf_counter()
    rows = _table1_rows(data_dir)
    columns = {
        "P": [row.p for row in rows],
        "ICP3": [float(row.icp3) for row in rows],
        "ICP5": [float(row.icp5) for row in rows],
        "FCP3": [float(row.fcp3) for row in rows],
        "FCP5": [float(row.fcp5) for row in rows],
        "IC3": [float(row.ic3) for row in rows],
        "IC5": [float(row.ic5) for row in rows],
        "FC3": [float(row.fc3) for row in rows],
        "FC5": [float(row.fc5) for row in rows],
    }
    pairs = correlation_matrix(columns)
    assert list(columns) == LABELS

    def coefficient(a, b, which):  # which: 0 Pearson, 1 Spearman
        # Pairs are keyed in column order; either triangle reads the pair.
        key = (a, b) if LABELS.index(a) < LABELS.index(b) else (b, a)
        return pairs[key][which].statistic

    failures = []
    for (a, b), expected in PEARSON_LOWER.items():
        got = coefficient(a, b, 0)
        if abs(got - expected) > 0.02:
            failures.append(f"pearson({a},{b}) {got:.4f} vs {expected}")
    for (a, b), expected in SPEARMAN_UPPER.items():
        got = coefficient(a, b, 1)
        if abs(got - expected) > 0.02:
            failures.append(f"spearman({a},{b}) {got:.4f} vs {expected}")

    # Headline pair: impact over the two windows, integer counting.
    headline_s = coefficient("ICP5", "ICP3", 1)
    headline_p = coefficient("ICP5", "ICP3", 0)
    if abs(headline_s - 0.942) > 0.02:
        failures.append(f"headline spearman {headline_s:.4f} vs 0.942")
    if abs(headline_p - 0.967) > 0.02:
        failures.append(f"headline pearson {headline_p:.4f} vs 0.967")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(1, "correlation matrix reproduction", failures)


def test_criterion_2_ranking_reproduction(data_dir):
    rows = _table1_rows(data_dir)
    failures = []
    for key, golden_name in (
        ("fc5", "golden_fc5_order.csv"),
        ("fcp5", "golden_fcp5_order.csv"),
        ("icp5", "golden_icp5_order.csv"),
    ):
        golden = _load_golden(data_dir / golden_name)
        ranking = rank_units(rows, key)
        by_rank = {e.rank: e.unit for e in ranking.entries}
        for rank, unit in golden.items():
            if by_rank.get(rank) != unit:
                failures.append(
                    f"{key} rank {rank}: got {by_rank.get(rank)!r}, want {unit!r}"
                )
    changes = dict(
        rank_change(rank_units(rows, "icp5"), rank_units(rows, "fcp5"))
    )
    for unit, expected in (
        ("Dep Chinese Language & Literature", 17),
        ("Sch Life Sci", -6),
        ("Dep Biomed Engn", -6),
    ):
        if changes.get(unit) != expected:
            failures.append(f"rank change {unit}: {changes.get(unit)} vs {expected:+d}")
    _verdict(2, "ranking and rank-change reproduction", failures)


def test_criterion_3_omnibus_significance():
    failures = []
    rng = random.Random(27)
    heterogeneous = [
        [rng.gauss(0.5 * i, 1.0) for _ in range(30)] for i in range(27)
    ]
    result = kruskal_wallis(heterogeneous)
    if result.df != 26:
        failures.append(f"df {result.df} != 26")
    if not result.p_value < 0.01:
        failures.append(f"heterogeneous p {result.p_value:.4g} not < 0.01")

    quiet = 0
    for seed in range(100):
        rng = random.Random(1000 + seed)
        groups = [[rng.gauss(0.0, 1.0) for _ in range(20)] for _ in range(27)]
        if kruskal_wallis(groups).p_value > 0.05:
            quiet += 1
    if quiet < 90:
        failures.append(f"iid replicates with p>0.05: {quiet}/100 < 90")
    _verdict(3, "omnibus significance on synthetic groups", failures)


def test_criterion_4_counting_properties():
    started = time.perf_counter()
    failures = []
    rng = random.Random(4242)
    window = Window(2005, 2009)
    narrow = Window(2005, 2007)
    for trial in range(1000):
        corpus = random_corpus(rng, max_records=50)
        scores = paper_scores(corpus, window, eligible_doctypes=ALL_DOCTYPES)
        impacts = scores.impacts

        # conservation: each citing document hands out exactly m/k credit
        for citing in corpus.citing.values():
            if not (window.start <= citing.year <= window.end):
                continue
            k = citing.nrefs if citing.nrefs is not None else len(citing.cited_ids)
            internal = [c for c in citing.cited_ids if c in impacts]
            if k <= 0:
                continue
            handed = sum(
                (Fraction(1, k) for c in internal), Fraction(0)
            )
            if handed != Fraction(len(internal), k):
                failures.append(f"trial {trial}: conservation broken")
                break

        # dominance: fc never exceeds ic
        if any(imp.fc > imp.ic for imp in impacts.values()):
            failures.append(f"trial {trial}: fc > ic")

        # window monotonicity: a narrower window never counts more
        narrow_scores = paper_scores(corpus, narrow, eligible_doctypes=ALL_DOCTYPES)
        for pid, imp in narrow_scores.impacts.items():
            wide = impacts[pid]
            if imp.ic > wide.ic or imp.fc > wide.fc:
                failures.append(f"trial {trial}: window monotonicity broken at {pid}")
                break

        # brute-force oracle equivalence, exact
        oracle = brute_force_scores(corpus, window, ALL_DOCTYPES)
        if set(oracle) != set(impacts):
            failures.append(f"trial {trial}: paper set differs from oracle")
        else:
            for pid, expected in oracle.items():
                got = impacts[pid]
                if got.ic != expected.ic or got.fc != expected.fc:
                    failures.append(f"trial {trial}: oracle mismatch at {pid}")
                    break
        if failures:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(4, "counting properties on 1000 random corpora", failures)


def test_criterion_5_statistics_oracles(data_dir):
    cases = json.loads((data_dir / "stats_cases.json").read_text(encoding="utf-8"))
    failures = []
    for i, case in enumerate(cases):
        groups = case["groups"]
        for name, func, expected in (
            ("kw", kruskal_wallis, case["kw"]),
            ("levene", levene, case["levene"]),
            ("anova", one_way_anova, case["anova"]),
        ):
            result = func(groups)
            if abs(result.statistic - expected[0]) > 1e-6:
                failures.append(f"case {i} {name} stat {result.statistic} vs {expected[0]}")
            if abs(result.p_value - expected[1]) > 1e-6:
                failures.append(f"case {i} {name} p {result.p_value} vs {expected[1]}")
        named = {f"g{j}": g for j, g in enumerate(groups)}
        verdicts = {
            f"{d.unit_i}|{d.unit_j}": d.significant for d in dunnett_c(named)
        }
        if verdicts != case["dunnett"]:
            diff = {k for k in verdicts if verdicts[k] != case["dunnett"][k]}
            failures.append(f"case {i} dunnett verdicts differ at {sorted(diff)}")

    closed_form = studentized_range_quantile(0.05, 2, float("inf"))
    if abs(closed_form - 2.7718) > 1e-3:
        failures.append(f"q(0.05,2,inf) {closed_form:.5f} vs 2.7718")
    grid = [
        # (alpha, k, df, q) -- critical-value table entries plus
        # high-precision reference values
        (0.05, 3, 10, 3.877),
        (0.05, 4, 20, 3.958),
        (0.05, 5, 30, 4.102),
        (0.01, 3, 10, 5.270),
        (0.05, 2, 5, 3.635),
        (0.05, 10, 30, 4.824141286183106),
        (0.05, 10, 60, 4.646323963266348),
        (0.05, 10, 120, 4.55953799405391),
    ]
    for alpha, k, df, expected in grid:
        got = studentized_range_quantile(alpha, k, df)
        if abs(got - expected) > 5e-3 * expected:
            failures.append(f"q({alpha},{k},{df}) {got:.5f} vs {expected}")
    _verdict(5, "statistics kernel oracle agreement", failures)


def test_criterion_6_query_language(data_dir):
    failures = []
    corpus = load_canonical((data_dir / "addresses12.jsonl").read_text(encoding="utf-8"))
    defs = parse_unit_definitions(
        (data_dir / "units_tsinghua.txt").read_text(encoding="utf-8")
    )
    assignment = assign_units(corpus, defs)
    expected = {
        "Dep Phys": {"A01", "A02", "A07", "A12"},
        "Dep Chem Engr": {"A04"},
        "Dep Chem": {"A03", "A07", "A11"},
        "Sch Life Sci": {"A10"},
    }
    for unit, ids in expected.items():
        if set(assignment.get(unit, set())) != ids:
            failures.append(f"{unit}: {sorted(assignment.get(unit, set()))} vs {sorted(ids)}")
    # the dual-membership record must land only in the subtracted-away unit
    if "A04" in assignment.get("Dep Chem", set()):
        failures.append("A04 leaked into Dep Chem despite the minus rule")

    rng = random.Random(6)
    for trial in range(1000):
        ast = random_ast(rng)
        rendered = to_text(ast)
        if parse_query(rendered) != ast:
            failures.append(f"round-trip failed for {rendered!r}")
            break
    _verdict(6, "query language partition and round-trip", failures)


def _tree_digest(root) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


def test_criterion_7_determinism(data_dir, tmp_path):
    failures = []
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "evaluate",
            "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2007", "--window", "2005:2009",
            "--min-pubs", "2", "--out", str(out),
        ])
        if code != 0:
            failures.append(f"evaluate run {name} exited {code}")
        outs.append(out)
    if not failures:
        digest_a, digest_b = _tree_digest(outs[0]), _tree_digest(outs[1])
        if digest_a != digest_b:
            diff = {
                name for name in set(digest_a) | set(digest_b)
                if digest_a.get(name) != digest_b.get(name)
            }
            failures.append(f"trees differ: {sorted(diff)}")
    _verdict(7, "byte-identical evaluate runs", failures)
