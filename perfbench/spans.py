"""Layer spans for the traced benchmark run.

``install()`` rebinds citefrac's public functions, under the names that
``citefrac.cli``, ``citefrac.corpus``, ``citefrac.counting``,
``citefrac.report`` and ``citefrac.stats.posthoc`` look them up by, to
wrappers that record a span (name, start, end, parent) and a few counts.
Nothing under ``src/`` changes. Spans stay in memory until ``dump()``.

``summarize()`` turns one invocation's spans into the per-layer metrics:
inclusive time per span name, self time per layer (a span's duration minus
the part its child spans cover), and the counts. The layer self times plus
``cli.self_s`` add up to the root span, the traced ``wall_s``.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

# Span name -> the inclusive-time metric it feeds. A span's layer is the
# part of its name before the dot.
SPAN_METRICS = {
    "corpus.load": "corpus.load_s",
    "corpus.build": "corpus.build_s",
    "corpus.parse_tagged": "corpus.parse_tagged_s",
    "corpus.write": "corpus.write_s",
    "unitquery.parse": "unitquery.parse_s",
    "unitquery.assign": "unitquery.assign_s",
    "counting.scores": "counting.scores_s",
    "counting.aggregate": "counting.aggregate_s",
    "counting.samples": "counting.samples_s",
    "counting.export": "counting.export_s",
    "stats.omnibus": "stats.omnibus_s",
    "stats.correlation": "stats.correlation_s",
    "stats.dunnett": "stats.dunnett_s",
    "stats.quantile": "stats.quantile_s",
    "report.emit": "report.emit_s",
}
LAYERS = ("corpus", "unitquery", "counting", "stats", "report")
COUNTS = (
    "stats.quantiles", "stats.pairs", "unitquery.evals", "unitquery.members",
    "counting.windows", "counting.links_in_window", "counting.skipped_citing",
    "corpus.records", "corpus.links", "corpus.rejected", "corpus.addresses",
    "report.files", "report.bytes",
)
ROOT = "cli.main"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _wrap(recorder: Recorder, module, attr: str, span: str, count=None) -> None:
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if count is not None:
            count(recorder.counts, args, result)
        return result

    setattr(module, attr, wrapper)


def _count_load(counts, args, corpus):
    records = {**corpus.citing, **corpus.cited}
    counts["corpus.records"] += len(records)
    counts["corpus.addresses"] += sum(len(r.addresses) for r in records.values())


def _count_build(counts, args, corpus):
    counts["corpus.links"] = len(corpus.links)


def _count_tagged(counts, args, result):
    counts["corpus.records"] += len(result.records) + len(result.errors)
    counts["corpus.rejected"] += len(result.errors)
    counts["corpus.addresses"] += sum(len(r.addresses) for r in result.records)


def _count_assign(counts, args, assignment):
    counts["unitquery.evals"] += len(args[0].cited) * len(assignment)
    counts["unitquery.members"] += sum(len(ids) for ids in assignment.values())


def _count_scores(counts, args, scores):
    counts["counting.windows"] += 1
    counts["counting.links_in_window"] += sum(i.ic for i in scores.impacts.values())
    counts["counting.skipped_citing"] += len(scores.skipped_citing)


def _count_quantile(counts, args, result):
    counts["stats.quantiles"] += 1


def _count_pairs(counts, args, decisions):
    counts["stats.pairs"] += len(decisions)


def _count_write(counts, args, result):
    counts["report.files"] += 1
    counts["report.bytes"] += len(args[1].encode("utf-8"))


def install() -> Recorder:
    import citefrac.cli as cli
    import citefrac.corpus as corpus
    import citefrac.counting as counting
    import citefrac.report as report
    import citefrac.stats.posthoc as posthoc

    rec = Recorder()
    _wrap(rec, cli, "load_canonical", "corpus.load", _count_load)
    _wrap(rec, corpus, "build_corpus", "corpus.build", _count_build)
    _wrap(rec, cli, "parse_tagged", "corpus.parse_tagged", _count_tagged)
    _wrap(rec, cli, "write_canonical", "corpus.write")
    _wrap(rec, cli, "parse_unit_definitions", "unitquery.parse")
    _wrap(rec, cli, "assign_units", "unitquery.assign", _count_assign)
    _wrap(rec, cli, "paper_scores", "counting.scores", _count_scores)
    _wrap(rec, cli, "aggregate_units", "counting.aggregate")
    _wrap(rec, cli, "per_paper_samples", "counting.samples")
    _wrap(rec, counting, "export_scores_csv", "counting.export")
    for name in ("kruskal_wallis", "levene", "one_way_anova"):
        _wrap(rec, cli, name, "stats.omnibus")
    _wrap(rec, cli, "correlation_matrix", "stats.correlation")
    _wrap(rec, cli, "dunnett_c", "stats.dunnett", _count_pairs)
    _wrap(rec, posthoc, "studentized_range_quantile", "stats.quantile", _count_quantile)
    _wrap(rec, report, "write_text", "report.emit", _count_write)
    for name in (
        "format_aggregates_csv", "format_ranking_csv", "format_rank_changes_csv",
        "format_correlation_csv", "format_decisions_csv", "rank_units",
        "rank_change", "build_homogeneity_graph", "emit_graph_dot",
    ):
        _wrap(rec, report, name, "report.emit")
    _wrap(rec, cli, "main", ROOT)
    return rec


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    spans = trace["spans"]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        children[parent].append((start, end))
    metrics = {m: 0.0 for m in SPAN_METRICS.values()}
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS + ("cli",)})
    for index, (name, start, end, parent) in enumerate(spans):
        self_time = (end - start) - _covered(children[index])
        if name == ROOT:
            metrics["trace.wall_s"] = end - start
            metrics["cli.self_s"] += self_time
            continue
        metrics[SPAN_METRICS[name]] += end - start
        metrics[name.split(".")[0] + ".self_s"] += self_time
    counts = trace["counts"]
    metrics.update({name: float(counts.get(name, 0)) for name in COUNTS})
    evals = metrics["unitquery.evals"]
    metrics["unitquery.hit_ratio"] = metrics["unitquery.members"] / evals if evals else 0.0
    return metrics
