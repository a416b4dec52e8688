"""Command-line pipeline: ingest, assign, count, stats, report, evaluate.

Exit codes: 0 success, 1 internal error, 2 usage or input error. A flat
``key = value`` config file can pre-set any flag; flags given on the
command line override the file. A subcommand computes its whole output
tree before ``main`` writes any of it, so a failed run writes no file.
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
from .errors import CitefracError, MalformedField, NonNumericCell
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


def _parse_windows(value: str | list[str]) -> list[Window]:
    """Repeated --window flags, or a config file's comma-separated list."""
    if isinstance(value, str):
        value = [text for text in value.split(",") if text.strip()]
    windows: list[Window] = []
    for text in value:
        window = _parse_window(text)
        if window in windows:
            raise UsageError(f"window {window.label()} given twice")
        windows.append(window)
    return windows


def _read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(
                f"{path.name}, line {number}: config line without '=': {raw!r}"
            )
        raw_key, value = line.split("=", 1)
        key = raw_key.strip().replace("-", "_")
        if key not in _SETTINGS:
            raise UsageError(
                f"{path.name}, line {number}: unknown setting "
                f"{raw_key.strip()!r} (known: {', '.join(_SETTINGS)})"
            )
        values[key] = value.strip()
    return values


# Setting (flag dest and config-file key) -> (RunConfig field, parser of a
# flag value or of a config-file string).
_SETTINGS = {
    "input": ("input", Path),
    "format": ("format", str),
    "units": ("units", Path),
    "py": ("py", lambda v: frozenset(int(y) for y in v.split(",") if y.strip())),
    "window": ("windows", _parse_windows),
    "min_pubs": ("min_pubs", int),
    "alpha": ("alpha", float),
    "out": ("out", Path),
    "strict": ("strict", lambda v: str(v).lower() in ("1", "true", "yes")),
}


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Resolve every setting once: a flag wins over the --config file, and a
    setting given neither way (or given empty) keeps its RunConfig default.
    The file the subcommand reads must exist."""
    given: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        given = _read_config_file(path)
    for key in _SETTINGS:
        flag = getattr(args, key)
        if flag is not None:
            given[key] = flag
    if getattr(args, "aggregate_table", None):
        given["input"] = args.aggregate_table
    if not given.get("input"):
        raise UsageError("--input is required")
    if not Path(given["input"]).is_file():
        raise UsageError(f"input file not found: {given['input']}")
    try:
        settings = {
            name: parse(given[key])
            for key, (name, parse) in _SETTINGS.items()
            if given.get(key) not in (None, "")
        }
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return RunConfig(**settings)


def _load_corpus(config: RunConfig, fmt: str) -> Corpus:
    text = config.input.read_text(encoding="utf-8")
    if fmt == "canonical":
        return load_canonical(text)
    if fmt != "tagged":
        raise UsageError(f"unsupported corpus format {fmt!r}")
    # Looked up at call time, so that a rebound corpus.build_corpus (the
    # traced benchmark wraps it) is the one called.
    from .corpus import build_corpus

    result = parse_tagged(text)
    if result.errors and config.strict:
        for err in result.errors:
            print(f"error: {err}", file=sys.stderr)
        raise UsageError(f"{len(result.errors)} record(s) rejected under --strict")
    print(
        f"ingested {len(result.records)} record(s), "
        f"rejected {len(result.errors)}",
        file=sys.stderr,
    )
    # A tagged file carries one population; records that cite into the
    # set act as citing-side documents as well.
    ids = {r.id for r in result.records}
    citing = [r for r in result.records if any(c in ids for c in r.cited_ids)]
    return build_corpus(result.records, citing)


def _unit_definitions(config: RunConfig):
    if config.units is None or not config.units.is_file():
        raise UsageError("--units file is required and must exist")
    return parse_unit_definitions(config.units.read_text(encoding="utf-8"))


def _manifest(config: RunConfig, inputs: list[Path]) -> str:
    lines = []
    for path in sorted(inputs):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"input {path.name} sha256={digest}")
    lines.append(f"format = {config.format}")
    lines.append(f"min_pubs = {config.min_pubs}")
    lines.append(f"alpha = {config.alpha}")
    lines.append("windows = " + ",".join(w.label() for w in config.windows))
    if config.py:
        lines.append("py = " + ",".join(str(y) for y in sorted(config.py)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands: each maps the resolved RunConfig to its output tree, a dict of
# file name -> text. Only main writes the tree, once it is complete.
# ---------------------------------------------------------------------------


def cmd_ingest(config: RunConfig) -> dict[str, str]:
    return {"corpus.jsonl": write_canonical(_load_corpus(config, "tagged"))}


def cmd_assign(config: RunConfig) -> dict[str, str]:
    defs = _unit_definitions(config)
    assignment = assign_units(_load_corpus(config, config.format), defs)
    lines = ["unit,paper_id"]
    for unit in sorted(assignment):
        for pid in sorted(assignment[unit]):
            lines.append(f"{unit},{pid}")
    return {"assignment.csv": "\n".join(lines) + "\n"}


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


def _count_pipeline(config: RunConfig, tree: dict[str, str]):
    """Load, assign, count every window, and add aggregates.csv to the tree:
    one row per kept unit with its ic_<window> and fc_<window> totals."""
    if not config.windows:
        raise UsageError("at least one --window is required")
    defs = _unit_definitions(config)
    corpus = _load_corpus(config, config.format)
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
    tree["aggregates.csv"] = report.format_aggregates_csv(rows, keys)
    return assignment, per_window, rows


def cmd_count(config: RunConfig) -> dict[str, str]:
    tree: dict[str, str] = {}
    assignment, per_window, _ = _count_pipeline(config, tree)
    for window, (scores, agg) in per_window.items():
        label = _label(window)
        tree[f"scores_{label}.csv"] = counting.export_scores_csv(scores, assignment)
        if agg.skipped_units:
            lines = ["unit,p"] + [f"{u},{p}" for u, p in agg.skipped_units]
            tree[f"skipped_units_{label}.csv"] = "\n".join(lines) + "\n"
    tree["manifest.txt"] = _manifest(config, [config.input, config.units])
    return tree


def _load_samples_csv(path: Path) -> dict[str, list[float]]:
    """Read per-paper samples from a scores export (unit, fc_decimal)."""
    import csv as _csv
    import math

    groups: dict[str, list[float]] = {}
    with path.open(encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames is None or "unit" not in reader.fieldnames:
            raise UsageError(f"samples file {path} lacks a 'unit' column")
        value_col = "fc_decimal" if "fc_decimal" in reader.fieldnames else "value"
        if value_col not in reader.fieldnames:
            raise UsageError(f"samples file {path} lacks a value column")
        for row in reader:
            try:
                value = float(row[value_col])
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise NonNumericCell(
                    f"{value_col} {row[value_col]!r} in {path.name} is not a "
                    "finite number",
                    reader.line_num,
                )
            if not row["unit"].strip():
                raise MalformedField(f"empty unit in {path.name}", reader.line_num)
            groups.setdefault(row["unit"], []).append(value)
    return groups


def _stats_battery(
    tree: dict[str, str], groups: dict[str, list[float]], alpha: float
) -> None:
    ordered = [groups[name] for name in sorted(groups)]
    lines = ["method,statistic,df,p_value"]
    kw = kruskal_wallis(ordered)
    lines.append(f"kruskal-wallis,{kw.statistic:.6f},{kw.df},{kw.p_value:.6g}")
    lv = levene(ordered)
    lines.append(f"levene,{lv.statistic:.6f},{lv.df[0]}:{lv.df[1]},{lv.p_value:.6g}")
    av = one_way_anova(ordered)
    lines.append(f"anova,{av.statistic:.6f},{av.df[0]}:{av.df[1]},{av.p_value:.6g}")
    tree["tests.csv"] = "\n".join(lines) + "\n"

    decisions = dunnett_c(groups, alpha=alpha)
    tree["pairwise.csv"] = report.format_decisions_csv(decisions)
    graph = report.build_homogeneity_graph(decisions)
    tree["homogeneity.dot"] = report.emit_graph_dot(graph)


def cmd_stats(config: RunConfig) -> dict[str, str]:
    tree: dict[str, str] = {}
    _stats_battery(tree, _load_samples_csv(config.input), config.alpha)
    tree["manifest.txt"] = _manifest(config, [config.input])
    return tree


def _unit_reports(
    tree: dict[str, str],
    rows: list[UnitRow],
    ranked: list[str],
    changes: dict[str, tuple[str, str, str, str]],
    correlations: dict[str, str],
) -> None:
    """Add the rankings, rank changes and correlations of one unit table.

    `ranked` names the columns to rank; `changes` maps a rank-change file
    name to (from column, to column, from label, to label); `correlations`
    maps a correlation label to its column. Fewer than three units give no
    correlations.
    """
    rankings = {key: report.rank_units(rows, key) for key in ranked}
    for key, ranking in rankings.items():
        tree[f"ranking_{key}.csv"] = report.format_ranking_csv(ranking)
    for name, (from_key, to_key, from_label, to_label) in changes.items():
        deltas = report.rank_change(rankings[from_key], rankings[to_key])
        tree[name] = report.format_rank_changes_csv(deltas, from_label, to_label)
    if len(rows) >= 3:
        matrix = correlation_matrix(
            {
                label: [float(getattr(row, key)) for row in rows]
                for label, key in correlations.items()
            }
        )
        tree["correlations.csv"] = report.format_correlation_csv(matrix)


def cmd_report(config: RunConfig) -> dict[str, str]:
    """The unit-table stage on a published unit,P,IC3,FC3,IC5,FC5 table."""
    rows = load_aggregate_table(config.input.read_text(encoding="utf-8"))
    keys = _aggregate_keys(["3", "5"])
    tree = {"aggregates.csv": report.format_aggregates_csv(rows, keys)}
    _unit_reports(
        tree,
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
    tree["manifest.txt"] = _manifest(config, [config.input])
    return tree


def cmd_evaluate(config: RunConfig) -> dict[str, str]:
    if config.format == "aggregate":
        return cmd_report(config)

    tree: dict[str, str] = {}
    assignment, per_window, rows = _count_pipeline(config, tree)
    last = config.windows[-1]
    suffix = f"_{_label(last)}"
    _unit_reports(
        tree,
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
        _stats_battery(tree, groups, config.alpha)
    tree["scores.csv"] = counting.export_scores_csv(scores, assignment)
    tree["manifest.txt"] = _manifest(config, [config.input, config.units])
    return tree


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
        config = _build_config(args)
        # evaluate --aggregate-table runs the table stage, as report does.
        command = cmd_report if getattr(args, "aggregate_table", None) else args.func
        tree = command(config)
        # Nothing is written until the whole tree is computed, so a run
        # that fails leaves no files.
        for name, text in tree.items():
            report.write_text(config.out / name, text)
        return EXIT_OK
    except (UsageError, CitefracError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
