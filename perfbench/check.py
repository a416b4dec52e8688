"""Output checks against the generator's truth.

``check(workload, inputs, out, q_cache)`` returns a list of problems
(empty when the output tree is correct). Dunnett's C critical differences
are cross-checked against ``scipy.stats.studentized_range`` when scipy is
installed; its quantiles are cached in ``q_cache``. ``tree_digest`` hashes an output tree so that
repeated invocations of one code version can be compared byte for byte.
"""
from __future__ import annotations

import csv
import hashlib
import json
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

MIN_PUBS = 5
ALPHA = 0.05


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _exact(value) -> str:
    return f"{float(value):.12g}"


def _key(prefix: str, label: str) -> str:
    return f"{prefix}_{label.replace('-', '_')}"


def _expected_scores(truth: dict, label: str) -> list[list[str]]:
    papers = truth["counts"][label]["papers"]
    rows = []
    for unit in sorted(truth["units"]):
        for pid in sorted(truth["units"][unit]):
            if pid in papers:
                ic, num, den = papers[pid]
                rows.append([pid, unit, str(ic), str(num), str(den), f"{num / den:.12f}"])
    return rows


def _check_scores(path: Path, truth: dict, label: str) -> list[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    with path.open(encoding="utf-8", newline="") as fh:
        got = list(csv.reader(fh))
    if got[:1] != [["paper_id", "unit", "ic", "fc_num", "fc_den", "fc_decimal"]]:
        return [f"{path.name}: unexpected header {got[:1]}"]
    expected = _expected_scores(truth, label)
    if got[1:] == expected:
        return []
    bad = next(
        (i for i, (g, e) in enumerate(zip(got[1:], expected)) if g != e),
        min(len(got) - 1, len(expected)),
    )
    return [
        f"{path.name}: {len(got) - 1} rows vs {len(expected)} expected; "
        f"first difference at row {bad + 1}: "
        f"{got[bad + 1] if bad + 1 < len(got) else None} vs "
        f"{expected[bad] if bad < len(expected) else None}"
    ]


def _kept_units(truth: dict) -> list[str]:
    units = truth["counts"][truth["windows"][0]]["units"]
    return sorted(u for u, row in units.items() if row["P"] >= MIN_PUBS)


def _check_aggregates(path: Path, truth: dict) -> list[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    rows = _rows(path)
    kept = _kept_units(truth)
    if [r["unit"] for r in rows] != kept:
        return [f"{path.name}: units {[r['unit'] for r in rows]} != {kept}"]
    problems = []
    for row in rows:
        for label in truth["windows"]:
            t = truth["counts"][label]["units"][row["unit"]]
            p, ic, fc = t["P"], t["IC"], Fraction(*t["FC"])
            expected = {
                "P": str(p),
                _key("ic", label) + "_exact": _exact(ic),
                _key("icp", label) + "_exact": _exact(Fraction(ic, p)),
                _key("fc", label) + "_exact": _exact(fc),
                _key("fcp", label) + "_exact": _exact(fc / p),
            }
            for column, value in expected.items():
                if row.get(column) != value:
                    problems.append(
                        f"{path.name}: {row['unit']} {column} = {row.get(column)}, expected {value}"
                    )
    return problems


def _studentized_q(cache: Path, k: int, dfs: list[int]) -> dict[int, float] | None:
    """Upper critical values from scipy, cached per (k, df); None without scipy."""
    table = json.loads(cache.read_text()) if cache.is_file() else {}
    missing = [df for df in dfs if f"{k}:{df}" not in table]
    if missing:
        try:
            from scipy.stats import studentized_range
        except ImportError:
            print("note: scipy not installed; critical_diff not cross-checked", file=sys.stderr)
            return None
        for df in missing:
            table[f"{k}:{df}"] = float(studentized_range.ppf(1.0 - ALPHA, k, df))
        cache.write_text(json.dumps(table, sort_keys=True))
    return {df: table[f"{k}:{df}"] for df in dfs}


def _check_pairwise(path: Path, truth: dict, q_cache: Path) -> list[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    rows = _rows(path)
    kept = _kept_units(truth)
    got = {(r["unit_i"], r["unit_j"]) for r in rows}
    if len(rows) != len(got) or got != set(combinations(kept, 2)):
        return [f"{path.name}: {len(rows)} rows do not cover the {len(kept) * (len(kept) - 1) // 2} pairs"]
    # Dunnett's C recomputed from the truth, with scipy's quantiles.
    papers = truth["counts"][truth["windows"][-1]]["papers"]
    stats = {}
    for unit in kept:
        values = np.asarray(
            [papers[pid][1] / papers[pid][2] for pid in sorted(truth["units"][unit]) if pid in papers],
            dtype=float,
        )
        stats[unit] = (float(values.mean()), float(values.var(ddof=1)) / len(values), len(values))
    q = _studentized_q(q_cache, len(kept), sorted({n - 1 for _, _, n in stats.values()}))
    if q is None:
        return []
    problems = []
    for r in rows:
        mean_i, v_i, n_i = stats[r["unit_i"]]
        mean_j, v_j, n_j = stats[r["unit_j"]]
        diff = mean_i - mean_j
        crit = np.sqrt((v_i + v_j) / 2.0) * (q[n_i - 1] * v_i + q[n_j - 1] * v_j) / (v_i + v_j)
        got_diff, got_crit = float(r["mean_diff"]), float(r["critical_diff"])
        if abs(got_diff - diff) > 1e-9 * max(1.0, abs(diff)) or abs(got_crit - crit) > 1e-5 * crit:
            problems.append(
                f"{path.name}: {r['unit_i']} vs {r['unit_j']}: mean_diff {got_diff} / "
                f"critical {got_crit}, expected {diff} / {crit}"
            )
        elif abs(abs(diff) - crit) > 1e-5 * crit and r["significant"] != str(abs(diff) > crit).lower():
            problems.append(f"{path.name}: {r['unit_i']} vs {r['unit_j']}: wrong decision")
    return problems


def _check_tests(path: Path) -> list[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    methods = [r["method"] for r in _rows(path)]
    if methods != ["kruskal-wallis", "levene", "anova"]:
        return [f"{path.name}: rows {methods}"]
    return []


def _check_ingest(inputs: Path, out: Path, truth: dict) -> list[str]:
    path = out / "corpus.jsonl"
    if not path.is_file():
        return ["missing corpus.jsonl"]
    with (inputs / "expected_records.jsonl").open(encoding="utf-8") as fh:
        expected = {rec["id"]: rec for rec in map(json.loads, fh)}
    problems = []
    seen = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            rec = json.loads(line)
            seen += 1
            side = rec.pop("side", None)
            want = expected.get(rec.get("id"))
            if want is not None and want["shared_bracket"]:
                # Known parser gap: a C1 bracket naming several authors is
                # split at its ';'. Reported as corpus.addresses against
                # corpus.addresses_expected by the traced run.
                rec["addresses"] = want["addresses"]
            if want is not None:
                rec["shared_bracket"] = want["shared_bracket"]
            if want is None or rec != want or side not in ("cited", "both"):
                problems.append(f"corpus.jsonl:{lineno}: {rec.get('id')} does not round-trip")
                if len(problems) >= 5:
                    break
    if seen != truth["accepted"] and not problems:
        problems.append(f"corpus.jsonl: {seen} records, expected {truth['accepted']}")
    return problems


def check(workload: str, inputs: Path, out: Path, q_cache: Path) -> list[str]:
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    if workload == "ingest-tagged":
        return _check_ingest(inputs, out, truth)
    problems = _check_aggregates(out / "aggregates.csv", truth)
    if workload == "paper27":
        # evaluate writes scores for the last window only.
        label = truth["windows"][-1]
        problems += _check_scores(out / "scores.csv", truth, label)
        problems += _check_pairwise(out / "pairwise.csv", truth, q_cache)
        problems += _check_tests(out / "tests.csv")
    else:
        for label in truth["windows"]:
            name = f"scores_{label.replace('-', '_')}.csv"
            problems += _check_scores(out / name, truth, label)
    return problems
