"""Command-line pipeline: ingest, assign, count, stats, report, evaluate.

Exit codes: 0 success, 1 internal error, 2 usage or input error. A flat
``key = value`` config file can pre-set any flag; flags given on the
command line override the file.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import counting, report
from .corpus import (
    Corpus,
    UnitRow,
    load_aggregate_table,
    load_canonical,
    parse_tagged,
    write_canonical,
)
from .counting import Window, aggregate_units, paper_scores, per_paper_samples
from .errors import CitefracError
from .stats import correlation_matrix, dunnett_c, kruskal_wallis, levene, one_way_anova
from .unitquery import assign_units, parse_unit_definitions

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    input: Path
    format: str = "canonical"
    units: Path | None = None
    py: frozenset[int] | None = None
    windows: list[Window] = field(default_factory=list)
    min_pubs: int = 5
    alpha: float = 0.05
    out: Path = Path("out")
    strict: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise UsageError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.min_pubs < 1:
            raise UsageError(f"min-pubs must be >= 1, got {self.min_pubs}")


def _parse_window(text: str) -> Window:
    try:
        start, end = text.split(":")
        return Window(int(start), int(end))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid window {text!r}, expected START:END") from exc


def _read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merged(args: argparse.Namespace) -> dict[str, str | list[str] | bool | None]:
    """Flag values with config-file fallback; flags always win."""
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        config = _read_config_file(path)
    merged: dict = {}
    for key in ("input", "format", "units", "py", "min_pubs", "alpha", "out"):
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else config.get(key)
    windows = getattr(args, "window", None)
    if windows is None and "window" in config:
        windows = [w.strip() for w in config["window"].split(",") if w.strip()]
    merged["window"] = windows
    merged["strict"] = bool(getattr(args, "strict", False)) or (
        config.get("strict", "").lower() in ("1", "true", "yes")
    )
    return merged


def _build_config(args: argparse.Namespace) -> RunConfig:
    m = _merged(args)
    if not m["input"]:
        raise UsageError("--input is required")
    windows = [_parse_window(w) for w in (m["window"] or [])]
    for i, window in enumerate(windows):
        if window in windows[:i]:
            raise UsageError(f"window {window.label()} given twice")
    py = None
    try:
        if m["py"]:
            py = frozenset(int(y) for y in str(m["py"]).split(",") if y.strip())
        alpha = float(m["alpha"]) if m["alpha"] is not None else 0.05
        min_pubs = int(m["min_pubs"]) if m["min_pubs"] is not None else 5
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return RunConfig(
        input=Path(m["input"]),
        format=m["format"] or "canonical",
        units=Path(m["units"]) if m["units"] else None,
        py=py,
        windows=windows,
        min_pubs=min_pubs,
        alpha=alpha,
        out=Path(m["out"]) if m["out"] else Path("out"),
        strict=m["strict"],
    )


def _load_corpus(config: RunConfig) -> Corpus:
    if not config.input.is_file():
        raise UsageError(f"input file not found: {config.input}")
    text = config.input.read_text(encoding="utf-8")
    if config.format == "tagged":
        result = parse_tagged(text)
        if result.errors:
            if config.strict:
                raise UsageError(f"parse errors: {result.errors[0]}")
            print(f"warning: {len(result.errors)} record(s) rejected", file=sys.stderr)
        # A tagged file carries one population; records that cite into the
        # set act as citing-side documents as well.
        records = result.records
        return_corpus = _corpus_from_records(records)
        return return_corpus
    if config.format == "canonical":
        return load_canonical(text)
    raise UsageError(f"unsupported corpus format {config.format!r}")


def _corpus_from_records(records) -> Corpus:
    from .corpus import build_corpus

    ids = {r.id for r in records}
    cited = records
    citing = [r for r in records if any(c in ids for c in r.cited_ids)]
    return build_corpus(cited, citing)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(config: RunConfig, inputs: list[Path]) -> None:
    lines = []
    for path in sorted(inputs):
        lines.append(f"input {path.name} sha256={_sha256(path)}")
    lines.append(f"format = {config.format}")
    lines.append(f"min_pubs = {config.min_pubs}")
    lines.append(f"alpha = {config.alpha}")
    lines.append("windows = " + ",".join(w.label() for w in config.windows))
    if config.py:
        lines.append("py = " + ",".join(str(y) for y in sorted(config.py)))
    report.write_text(config.out / "manifest.txt", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if not config.input.is_file():
        raise UsageError(f"input file not found: {config.input}")
    result = parse_tagged(config.input.read_text(encoding="utf-8"))
    if result.errors and config.strict:
        for err in result.errors:
            print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    corpus = _corpus_from_records(result.records)
    report.write_text(config.out / "corpus.jsonl", write_canonical(corpus))
    print(
        f"ingested {len(result.records)} record(s), "
        f"rejected {len(result.errors)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_assign(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if config.units is None or not config.units.is_file():
        raise UsageError("--units file is required and must exist")
    corpus = _load_corpus(config)
    defs = parse_unit_definitions(config.units.read_text(encoding="utf-8"))
    assignment = assign_units(corpus, defs)
    lines = ["unit,paper_id"]
    for unit in sorted(assignment):
        for pid in sorted(assignment[unit]):
            lines.append(f"{unit},{pid}")
    report.write_text(config.out / "assignment.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def _label(window: Window) -> str:
    """A window as it appears in column and file names: 2005_2009."""
    return window.label().replace("-", "_")


def _aggregate_keys(suffixes: list[str]) -> list[tuple[str, bool]]:
    """aggregates.csv columns, (name, is_integer): IC, IC/P, FC and FC/P
    for each window suffix in turn."""
    return [
        (f"{prefix}{suffix}", prefix == "ic")
        for suffix in suffixes
        for prefix in ("ic", "icp", "fc", "fcp")
    ]


def _count_pipeline(config: RunConfig, corpus: Corpus):
    """Assign, count every window, and write aggregates.csv: one row per
    kept unit with its ic_<window> and fc_<window> totals."""
    if config.units is None or not config.units.is_file():
        raise UsageError("--units file is required and must exist")
    if not config.windows:
        raise UsageError("at least one --window is required")
    defs = parse_unit_definitions(config.units.read_text(encoding="utf-8"))
    assignment = assign_units(corpus, defs)

    per_window = {}
    for window in config.windows:
        scores = paper_scores(corpus, window, pub_years=config.py)
        agg = aggregate_units(assignment, scores, min_pubs=config.min_pubs)
        per_window[window] = (scores, agg)

    # P does not depend on the window, so every window keeps the same
    # units in the same (sorted) order.
    rows = []
    for per_unit in zip(*(agg.aggregates for _, agg in per_window.values())):
        counts = {
            f"{key}_{_label(window)}": total
            for window, row in zip(per_window, per_unit)
            for key, total in row.counts.items()
        }
        rows.append(UnitRow(per_unit[0].unit, per_unit[0].p, counts))
    keys = _aggregate_keys([f"_{_label(window)}" for window in config.windows])
    report.write_text(
        config.out / "aggregates.csv", report.format_aggregates_csv(rows, keys)
    )
    return assignment, per_window, rows


def cmd_count(args: argparse.Namespace) -> int:
    config = _build_config(args)
    corpus = _load_corpus(config)
    assignment, per_window, _ = _count_pipeline(config, corpus)
    for window, (scores, agg) in per_window.items():
        label = _label(window)
        report.write_text(
            config.out / f"scores_{label}.csv",
            counting.export_scores_csv(scores, assignment),
        )
        if agg.skipped_units:
            lines = ["unit,p"] + [f"{u},{p}" for u, p in agg.skipped_units]
            report.write_text(
                config.out / f"skipped_units_{label}.csv", "\n".join(lines) + "\n"
            )
    _write_manifest(config, [config.input, config.units])
    return EXIT_OK


def _load_samples_csv(path: Path) -> dict[str, list[float]]:
    """Read per-paper samples from a scores export (unit, fc_decimal)."""
    import csv as _csv

    groups: dict[str, list[float]] = {}
    with path.open(encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames is None or "unit" not in reader.fieldnames:
            raise UsageError(f"samples file {path} lacks a 'unit' column")
        value_col = "fc_decimal" if "fc_decimal" in reader.fieldnames else "value"
        if value_col not in reader.fieldnames:
            raise UsageError(f"samples file {path} lacks a value column")
        for row in reader:
            groups.setdefault(row["unit"], []).append(float(row[value_col]))
    return groups


def _stats_battery(groups: dict[str, list[float]], alpha: float, outdir: Path) -> None:
    ordered = [groups[name] for name in sorted(groups)]
    lines = ["method,statistic,df,p_value"]
    kw = kruskal_wallis(ordered)
    lines.append(f"kruskal-wallis,{kw.statistic:.6f},{kw.df},{kw.p_value:.6g}")
    lv = levene(ordered)
    lines.append(f"levene,{lv.statistic:.6f},{lv.df[0]}:{lv.df[1]},{lv.p_value:.6g}")
    av = one_way_anova(ordered)
    lines.append(f"anova,{av.statistic:.6f},{av.df[0]}:{av.df[1]},{av.p_value:.6g}")
    report.write_text(outdir / "tests.csv", "\n".join(lines) + "\n")

    decisions = dunnett_c(groups, alpha=alpha)
    report.write_text(outdir / "pairwise.csv", report.format_decisions_csv(decisions))
    graph = report.build_homogeneity_graph(decisions)
    report.write_text(outdir / "homogeneity.dot", report.emit_graph_dot(graph))


def cmd_stats(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if not config.input.is_file():
        raise UsageError(f"samples file not found: {config.input}")
    groups = _load_samples_csv(config.input)
    _stats_battery(groups, config.alpha, config.out)
    _write_manifest(config, [config.input])
    return EXIT_OK


def _write_unit_reports(
    out: Path,
    rows: list[UnitRow],
    ranked: list[str],
    changes: dict[str, tuple[str, str, str, str]],
    correlations: dict[str, str],
) -> None:
    """Rankings, rank changes and correlations of one unit table.

    `ranked` names the columns to rank; `changes` maps a rank-change file
    name to (from column, to column, from label, to label); `correlations`
    maps a correlation label to its column. Fewer than three units give no
    correlations.
    """
    rankings = {key: report.rank_units(rows, key) for key in ranked}
    for key, ranking in rankings.items():
        text = report.format_ranking_csv(ranking)
        report.write_text(out / f"ranking_{key}.csv", text)
    for name, (from_key, to_key, from_label, to_label) in changes.items():
        deltas = report.rank_change(rankings[from_key], rankings[to_key])
        report.write_text(
            out / name, report.format_rank_changes_csv(deltas, from_label, to_label)
        )
    if len(rows) >= 3:
        matrix = correlation_matrix(
            {
                label: [float(getattr(row, key)) for row in rows]
                for label, key in correlations.items()
            }
        )
        text = report.format_correlation_csv(matrix)
        report.write_text(out / "correlations.csv", text)


def _table_reports(config: RunConfig, table_path: Path) -> None:
    """The unit-table stage on a published unit,P,IC3,FC3,IC5,FC5 table."""
    rows = load_aggregate_table(table_path.read_text(encoding="utf-8"))
    keys = _aggregate_keys(["3", "5"])
    report.write_text(
        config.out / "aggregates.csv", report.format_aggregates_csv(rows, keys)
    )
    _write_unit_reports(
        config.out,
        rows,
        ranked=[key for key, _ in keys] + ["p"],
        changes={
            f"rank_changes_{a}_to_{b}.csv": (a, b, a, b)
            for a, b in (("ic5", "fc5"), ("icp5", "fcp5"))
        },
        correlations={
            "P": "p",
            "IC/P (3y)": "icp3", "IC/P (5y)": "icp5",
            "FC/P (3y)": "fcp3", "FC/P (5y)": "fcp5",
            "IC (3y)": "ic3", "IC (5y)": "ic5",
            "FC (3y)": "fc3", "FC (5y)": "fc5",
        },
    )
    _write_manifest(config, [table_path])


def cmd_report(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if not config.input.is_file():
        raise UsageError(f"input file not found: {config.input}")
    _table_reports(config, config.input)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    aggregate_table = getattr(args, "aggregate_table", None)
    if aggregate_table or config.format == "aggregate":
        table_path = Path(aggregate_table) if aggregate_table else config.input
        if not table_path.is_file():
            raise UsageError(f"aggregate table not found: {table_path}")
        _table_reports(config, table_path)
        return EXIT_OK

    corpus = _load_corpus(config)
    assignment, per_window, rows = _count_pipeline(config, corpus)
    last = config.windows[-1]
    suffix = f"_{_label(last)}"
    _write_unit_reports(
        config.out,
        rows,
        ranked=[prefix + suffix for prefix in ("ic", "fc", "icp", "fcp")],
        changes={
            f"rank_changes_{a}_to_{b}_{last.label()}.csv":
                (a + suffix, b + suffix, a, b)
            for a, b in (("ic", "fc"), ("icp", "fcp"))
        },
        correlations={
            "P": "p",
            **{
                f"{prefix}_{_label(window)}": f"{prefix}_{_label(window)}"
                for prefix in ("icp", "fcp", "ic", "fc")
                for window in config.windows
            },
        },
    )

    scores, _ = per_window[last]
    groups = {
        row.unit: per_paper_samples(assignment, scores, row.unit) for row in rows
    }
    if len(groups) >= 2 and all(len(g) >= 2 for g in groups.values()):
        _stats_battery(groups, config.alpha, config.out)
    report.write_text(
        config.out / "scores.csv", counting.export_scores_csv(scores, assignment)
    )

    _write_manifest(config, [config.input, config.units])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="input file")
    parser.add_argument("--format", choices=["tagged", "canonical", "aggregate"])
    parser.add_argument("--units", help="unit definitions file")
    parser.add_argument("--py", help="publication year(s), comma-separated")
    parser.add_argument(
        "--window", action="append", metavar="START:END",
        help="citation window, repeatable",
    )
    parser.add_argument("--min-pubs", dest="min_pubs", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--strict", action="store_true", default=None)
    parser.add_argument("--config", help="flat key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citefrac",
        description="Fractional citation counting and unit impact evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("ingest", cmd_ingest),
        ("assign", cmd_assign),
        ("count", cmd_count),
        ("stats", cmd_stats),
        ("report", cmd_report),
        ("evaluate", cmd_evaluate),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "evaluate":
            p.add_argument(
                "--aggregate-table", dest="aggregate_table",
                help="run ranking/correlation directly on an aggregate table",
            )
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, CitefracError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
