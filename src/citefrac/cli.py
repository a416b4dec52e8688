"""Command-line pipeline: ingest, assign, count, stats, report, evaluate.

Exit codes: 0 success, 1 internal error, 2 usage or input error. Every
setting is declared once, in ``_SETTINGS``: its flag, its key in a flat
``key = value`` config file and the one parser that checks both. Each
subcommand takes only the settings it reads, as ``_COMMANDS`` lists them.
Flags given on the command line override the file. A subcommand computes
its whole output tree before ``main`` writes any of it, so a failed run
writes no file.
"""
from __future__ import annotations

import argparse
import codecs
import hashlib
import io
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import corpus, counting, report
from .corpus import (
    Corpus,
    UnitRow,
    _decimal,
    _text_lines,
    load_aggregate_table,
    load_canonical,
    load_samples_csv,
    parse_tagged,
    write_canonical,
)
from .counting import Window, aggregate_units, paper_scores, per_paper_samples
from .errors import CitefracError, ParseError, QuerySyntaxError, StatsError
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
    units: Path | None = None
    windows: list[Window] = field(default_factory=list)
    min_pubs: int = 5
    alpha: float = 0.05
    out: Path = Path("out")
    strict: bool = False
    read: tuple[str, ...] = ()  # the keys of the settings its subcommand reads


def _checked(number: type, rule: str, ok) -> Callable:
    """A parser: the `number` the text writes by `corpus._decimal`'s rule,
    of which it requires `ok`."""
    def parse(text: str):
        value = _decimal(text, number)
        if not ok(value):
            raise ValueError(f"must {rule}, got {value}")
        return value
    return parse


def _parse_windows(text: str) -> list[Window]:
    """A comma-separated list of START:END windows, each given once; a
    window that parses but breaks `Window`'s rule fails with its reason."""
    windows: list[Window] = []
    for part in filter(str.strip, text.split(",")):
        try:
            start, end = map(_decimal, part.split(":"))
        except ValueError:
            raise ValueError(f"invalid window {part!r}, expected START:END") from None
        window = Window(start, end)
        if window in windows:
            raise ValueError(f"window {window.label()} given twice")
        windows.append(window)
    return windows


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError("expected one of 1/0/true/false/yes/no")
    return text.lower() in ("1", "true", "yes")


class _Setting(NamedTuple):
    field: str  # the RunConfig field it sets
    # The text of a flag or of a config value alike -> the value; raises
    # ValueError on a value it does not accept.
    parse: Callable[[str], object]
    help: str
    flag: dict = {}  # further add_argument keywords of its flag
    required: bool = False  # by every subcommand that reads it


# Config-file key (also the flag, --key with '-' for '_') -> its setting.
# A repeated --window joins into the config file's comma list, and the bare
# --strict switch gives the text "true".
_SETTINGS = {
    "input": _Setting("input", Path, "input file", required=True),
    "units": _Setting("units", Path, "unit definitions file", required=True),
    "window": _Setting("windows", _parse_windows, "citation window, repeatable",
                       {"action": "append", "metavar": "START:END"}, required=True),
    "min_pubs": _Setting("min_pubs", _checked(int, "be >= 1", lambda v: v >= 1),
                         "smallest publication count P of a kept unit"),
    "alpha": _Setting("alpha", _checked(float, "lie in (0, 1)", lambda v: 0.0 < v < 1.0),
                      "significance level of the pairwise tests"),
    "out": _Setting("out", Path, "output directory"),
    "strict": _Setting("strict", _parse_bool, "exit 2 if any tagged record is rejected",
                       {"action": "store_const", "const": "true"}),
}


def _read_config_file(path: Path, keys: tuple[str, ...]) -> dict[str, tuple[str, str]]:
    """Setting key -> (value, the file:line prefix of its error should it not
    parse), for the settings in `keys` alone, each given once. Only a line whose
    first non-blank character is '#' is a comment."""
    values: dict[str, tuple[str, str]] = {}
    first: dict[str, int] = {}  # key -> the line that gave it
    lines = _read(path, lambda text: list(_text_lines(text)))
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path.name}, line {number}"
        if "=" not in line:
            raise UsageError(f"{where}: config line without '=': {raw!r}")
        raw_key, value = map(str.strip, line.split("=", 1))
        key = raw_key.replace("-", "_")
        if key not in keys:
            raise UsageError(f"{where}: unknown setting {raw_key!r} (known: {', '.join(keys)})")
        if key in first:
            raise UsageError(f"{where}: {raw_key} given twice, first at line {first[key]}")
        first[key] = number
        values[key] = (value, f"{where}: invalid {raw_key} value {value!r}: ")
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Resolve each setting the subcommand reads once: a flag wins over the
    --config file, and a setting given neither way (or given empty) keeps
    its RunConfig default. A required setting must be given, and a required
    path must name a file; both are checked before any input is read."""
    keys = _COMMANDS[args.command][1]
    given: dict[str, tuple[str, str]] = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        given = _read_config_file(path, keys)
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            text = ",".join(flag) if isinstance(flag, list) else flag
            given[key] = (text, f"invalid --{key.replace('_', '-')} value {text!r}: ")
    settings = {}
    for key, (text, where) in given.items():
        if text != "":
            try:
                settings[_SETTINGS[key].field] = _SETTINGS[key].parse(text)
            except ValueError as exc:
                raise UsageError(f"{where}{exc}") from exc
    for key in (k for k in keys if _SETTINGS[k].required):
        value = settings.get(_SETTINGS[key].field)
        if not value:
            raise UsageError(f"--{key} is required")
        if isinstance(value, Path) and not value.is_file():
            raise UsageError(f"{key} file not found: {value}")
    config = RunConfig(read=keys, **settings)
    if config.out.exists() and not config.out.is_dir():
        raise UsageError(f"--out {config.out} exists and is not a directory")
    return config


# An input is read this many bytes at a time, each read hashed and decoded
# as it passes, so that neither its whole bytes nor its whole text is held.
# Smaller reads cut the peak further (256 KB: links-heavy 57 -> 55 MB) but
# made paper27's studentized-range quantiles about 50% slower: glibc then
# maps and faults in their numpy temporaries afresh on every call, as
# freeing no buffer this large has raised its mmap threshold above them.
_READ_BYTES = 1 << 20


def _decoded(path: Path, file, sha) -> Iterator[str]:
    """The text of the binary `file`, decoded as Path.read_text decodes
    with encoding="utf-8-sig" (UTF-8, universal newlines, a leading
    byte-order mark dropped), one read at a time; each read goes into the
    hash `sha`, if any, as it passes. At a byte that is not UTF-8, the text
    before it comes first, so that a fault earlier in the file is the one
    its loader reports; the offset it names counts a byte-order mark."""
    decoder = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder("utf-8")(), translate=True
    )
    offset = 0  # of the read's first byte in the file
    bom = "\ufeff"  # dropped from the first text only, where it is a mark
    final = False
    while not final:
        data = file.read(_READ_BYTES)
        final = not data
        if sha is not None:
            sha.update(data)
        held, flag = decoder.getstate()  # held: bytes of a character begun before
        try:
            text = decoder.decode(data, final)
        except UnicodeDecodeError as exc:
            # The failed decode left the state as it was; exc.start counts
            # from the held bytes.
            decoder.setstate((b"", flag))
            yield decoder.decode((held + data)[:exc.start], True).removeprefix(bom)
            raise UsageError(
                f"{path.name}: not UTF-8 text: {exc.reason} "
                f"at byte {offset - len(held) + exc.start}"
            ) from None
        offset += len(data)
        del data  # not held while the loader works on its text
        if text:
            yield text.removeprefix(bom)
            bom = ""


def _read(path: Path, load, digests: list[tuple[Path, str]] | None = None):
    """Apply `load` to the text blocks of the input file at `path`, read
    once. What `load` leaves unread (a tagged export ends at EF) is read
    after it returns, so that every byte is checked to be UTF-8; only when
    `digests` is given is their sha256 taken, into it. An error that names
    a line is led by the file's name: `units.txt, line 3: ...`."""
    sha = None if digests is None else hashlib.sha256()
    with path.open("rb") as file:
        blocks = _decoded(path, file, sha)
        try:
            result = load(blocks)
        except (ParseError, QuerySyntaxError) as exc:
            if exc.line is None:
                raise
            raise UsageError(f"{path.name}, {exc}") from exc
        for _ in blocks:
            pass
    if digests is not None:
        digests.append((path, sha.hexdigest()))
    return result


def _manifest(config: RunConfig, fmt: str, digests: list[tuple[Path, str]]) -> str:
    """The run's inputs, by the digests taken as they were read, the format
    of its --input, and those of min_pubs, alpha and windows it read."""
    lines = [f"input {path.name} sha256={digest}" for path, digest in sorted(digests)]
    lines.append(f"format = {fmt}")
    shown = {"min_pubs": config.min_pubs, "alpha": config.alpha,
             "window": ",".join(w.label() for w in config.windows)}
    lines += [f"{_SETTINGS[k].field} = {v}" for k, v in shown.items() if k in config.read]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands: each maps the resolved RunConfig to its output tree, a dict of
# file name -> text. Only main writes the tree, once it is complete. Each
# reads one input format: ingest a tagged export, assign, count and evaluate
# a canonical corpus, stats a samples CSV and report a unit table.
# ---------------------------------------------------------------------------


def _ingested(config: RunConfig) -> Corpus:
    """The corpus of the tagged export at --input. Only the corpus outlives
    this call, so the parse result is freed before the corpus is written."""
    result = _read(config.input, parse_tagged)
    if not result.records and not result.errors:
        raise UsageError(f"{config.input.name}: no tagged record found")
    for err in result.errors:
        print(f"rejected: {config.input.name}, {err}", file=sys.stderr)
    if result.errors and config.strict:
        raise UsageError(f"{len(result.errors)} record(s) rejected under --strict")
    print(f"ingested {len(result.records)} record(s), rejected {len(result.errors)}",
          file=sys.stderr)
    # Through the module attribute, so that a rebound corpus.build_corpus
    # (the traced benchmark wraps it) is the one called.
    return corpus.build_corpus(result.records)


def cmd_ingest(config: RunConfig) -> dict[str, str]:
    return {"corpus.jsonl": write_canonical(_ingested(config))}


def cmd_assign(config: RunConfig) -> dict[str, str]:
    defs = _read(config.units, parse_unit_definitions)
    assignment = assign_units(_read(config.input, load_canonical), defs)
    rows = ([u, pid] for u in sorted(assignment) for pid in sorted(assignment[u]))
    return {"assignment.csv": report.csv_text(["unit", "paper_id"], rows)}


def _count_pipeline(config: RunConfig, tree: dict[str, str], digests: list):
    """Load, assign and count every window, and add aggregates.csv to the
    tree: one row per kept unit with its totals per window, each window
    named by the suffix of its columns and files (_2005_2009). The units
    file is parsed before the corpus is read."""
    defs = _read(config.units, parse_unit_definitions, digests)
    loaded = _read(config.input, load_canonical, digests)
    assignment = assign_units(loaded, defs)
    scores = {}
    for window in config.windows:
        name = "_" + window.label().replace("-", "_")
        scores[name] = paper_scores(loaded, window)
    rows, skipped = aggregate_units(assignment, scores, min_pubs=config.min_pubs)
    tree["aggregates.csv"] = report.format_aggregates_csv(rows, list(scores))
    return assignment, scores, rows, skipped


def cmd_count(config: RunConfig) -> dict[str, str]:
    tree: dict[str, str] = {}
    digests: list[tuple[Path, str]] = []
    assignment, scores, _, skipped = _count_pipeline(config, tree, digests)
    for name, score_set in scores.items():
        tree[f"scores{name}.csv"] = counting.export_scores_csv(score_set, assignment)
        if skipped:
            tree[f"skipped_units{name}.csv"] = report.csv_text(["unit", "p"], skipped)
    tree["manifest.txt"] = _manifest(config, "canonical", digests)
    return tree


def _stats_battery(
    tree: dict[str, str], groups: dict[str, list[float]], alpha: float
) -> None:
    """Add tests.csv, pairwise.csv and homogeneity.dot of the per-unit
    samples. A test that cannot run raises the kernel's StatsError, which
    says why; Dunnett's C runs first, as its reasons name the unit. The
    tree gets no file unless all four tests return."""
    decisions = dunnett_c(groups, alpha=alpha)
    ordered = [groups[name] for name in sorted(groups)]
    kw, lv, av = kruskal_wallis(ordered), levene(ordered), one_way_anova(ordered)
    tree["tests.csv"] = report.csv_text(["method", "statistic", "df", "p_value"], [
        ["kruskal-wallis", f"{kw.statistic:.6f}", kw.df, f"{kw.p_value:.6g}"],
        ["levene", f"{lv.statistic:.6f}", f"{lv.df[0]}:{lv.df[1]}", f"{lv.p_value:.6g}"],
        ["anova", f"{av.statistic:.6f}", f"{av.df[0]}:{av.df[1]}", f"{av.p_value:.6g}"],
    ])
    tree["pairwise.csv"] = report.format_decisions_csv(decisions)
    graph = report.build_homogeneity_graph(decisions)
    tree["homogeneity.dot"] = report.emit_graph_dot(graph)


def cmd_stats(config: RunConfig) -> dict[str, str]:
    tree: dict[str, str] = {}
    digests: list[tuple[Path, str]] = []
    groups = _read(config.input, load_samples_csv, digests)
    try:
        _stats_battery(tree, groups, config.alpha)
    except StatsError as exc:
        raise UsageError(f"{config.input.name}: {exc}") from exc
    tree["manifest.txt"] = _manifest(config, "samples", digests)
    return tree


def _unit_reports(tree: dict[str, str], rows: list[UnitRow], windows: list[str]) -> None:
    """Add the rankings, rank changes and correlations of one unit table,
    each named by its column key: every column of `report.unit_columns`
    but ``unit`` is ranked and correlated, in that order, and the last
    window's IC -> FC and IC/P -> FC/P rank changes are written. Where the
    kernel cannot correlate the columns (fewer than three units, a constant
    column, a value too large), the run prints why and writes the rest of
    the tree."""
    columns = report.unit_columns(rows, windows)
    keys = [key for key in columns if key != "unit"]
    rankings = {key: report.rank_units(columns, key) for key in keys}
    for key, ranking in rankings.items():
        tree[f"ranking_{key}.csv"] = report.format_ranking_csv(ranking)
    for a, b in (("ic", "fc"), ("icp", "fcp")):
        a, b = a + windows[-1], b + windows[-1]
        deltas = report.rank_change(rankings[a], rankings[b])
        tree[f"rank_changes_{a}_to_{b}.csv"] = report.format_rank_changes_csv(deltas, a, b)
    try:
        pairs = correlation_matrix({key: columns[key] for key in keys})
    except StatsError as exc:
        print(f"correlations skipped: {exc}", file=sys.stderr)
    else:
        tree["correlations.csv"] = report.format_correlation_csv(pairs)


def cmd_report(config: RunConfig) -> dict[str, str]:
    """The unit-table stage on a published unit,P,IC3,FC3,IC5,FC5 table."""
    digests: list[tuple[Path, str]] = []
    rows = _read(config.input, load_aggregate_table, digests)
    tree = {"aggregates.csv": report.format_aggregates_csv(rows, ["3", "5"])}
    _unit_reports(tree, rows, ["3", "5"])
    tree["manifest.txt"] = _manifest(config, "aggregate", digests)
    return tree


def cmd_evaluate(config: RunConfig) -> dict[str, str]:
    tree: dict[str, str] = {}
    digests: list[tuple[Path, str]] = []
    assignment, scores, rows, _ = _count_pipeline(config, tree, digests)
    windows = list(scores)
    last = windows[-1]
    _unit_reports(tree, rows, windows)

    groups = {
        row.unit: per_paper_samples(assignment, scores[last], row.unit) for row in rows
    }
    try:
        _stats_battery(tree, groups, config.alpha)
    except StatsError as exc:
        print(f"statistics skipped: {exc}", file=sys.stderr)
    tree["scores.csv"] = counting.export_scores_csv(scores[last], assignment)
    tree["manifest.txt"] = _manifest(config, "canonical", digests)
    return tree


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# Subcommand -> (its function, the keys of the settings it reads). These
# alone are its flags and its config keys; a manifest shows those it reads.
_COMMANDS = {
    "ingest": (cmd_ingest, ("input", "out", "strict")),
    "assign": (cmd_assign, ("input", "units", "out")),
    "count": (cmd_count, ("input", "units", "window", "min_pubs", "out")),
    "stats": (cmd_stats, ("input", "alpha", "out")),
    "report": (cmd_report, ("input", "out")),
    "evaluate": (cmd_evaluate, ("input", "units", "window", "min_pubs", "alpha", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citefrac",
        description="Fractional citation counting and unit impact evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        for key in keys:
            setting = _SETTINGS[key]
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=setting.help,
                           **setting.flag)
        p.add_argument("--config", help="flat key = value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config = _build_config(args)
        tree = _COMMANDS[args.command][0](config)
        # Nothing is written until the whole tree is computed, so a run
        # that fails leaves no files.
        for name, text in tree.items():
            try:
                report.write_text(config.out / name, text)
            except OSError as exc:
                raise UsageError(
                    f"cannot write {config.out / name}: {exc.strerror or exc}"
                ) from exc
        return EXIT_OK
    except (UsageError, CitefracError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
