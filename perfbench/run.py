"""citefrac benchmark: seeded inputs, fresh-process runs, checked outputs.

    python3 perfbench/run.py --workload paper27 --seed 1 --seconds 40 --trace 0

    for w in paper27 links-heavy ingest-tagged; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 40 --trace 1
    done

Run from the repository root (the directory holding ``src/citefrac``).
Inputs for (workload, seed) are generated once into ``.perfbench/inputs``
and reused; generation is never timed. The run then measures for about
``--seconds`` seconds, closed loop, one process at a time:

* set-up-only launches, three first and then one before each
  invocation, which time process launch until ``citefrac.cli`` is
  imported and ``main`` is callable (``setup_s``);
* repeated ``citefrac.cli.main(argv)`` invocations, each in a fresh
  process (see ``worker.py`` for why a process is never reused), each
  output tree checked against the generator's truth.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
medians of ``wall_s``, ``records_per_s``, ``cpu_s``, ``peak_rss_mb`` and
``setup_s``. ``fail_frac`` is ``failed / attempted`` in that same line.
With ``--trace 1`` untraced and traced invocations alternate, and the last
line reports the per-layer metrics of the median traced invocation plus
the tracing overhead (traced minus untraced ``wall_s``); its spans are
written to ``.perfbench/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import spans

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 3
INVOCATION_TIMEOUT_S = 150.0
# A run never starts an invocation that would end past this, so that it
# exits well within 180 s.
RUN_LIMIT_S = 150.0


def _argv(workload: str, inputs: Path, out: Path) -> list[str]:
    if workload == "ingest-tagged":
        return ["ingest", "--input", str(inputs / "export.txt"), "--out", str(out)]
    command = "evaluate" if workload == "paper27" else "count"
    argv = [command, "--input", str(inputs / "corpus.jsonl"), "--units", str(inputs / "units.txt")]
    for start, end in gen.WINDOWS[workload]:
        argv += ["--window", f"{start}:{end}"]
    return argv + ["--min-pubs", str(check.MIN_PUBS), "--out", str(out)]


class Launcher:
    """Starts worker processes, one at a time, and waits for each."""

    def __init__(self, root: Path, work: Path) -> None:
        self.result = work / "result.json"
        self.log = work / "worker.log"
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(root / "src"),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        self.root = root

    def __call__(self, argv: list[str] = (), trace: bool = False) -> dict | None:
        self.result.unlink(missing_ok=True)
        with self.log.open("w", encoding="utf-8") as log:
            launch = time.monotonic()
            cmd = [sys.executable, str(HERE / "worker.py"), repr(launch), str(self.result),
                   "1" if trace else "0", *argv]
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=INVOCATION_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not self.result.is_file():
            return None
        return json.loads(self.result.read_text(encoding="utf-8"))

    def log_tail(self) -> str:
        return self.log.read_text(encoding="utf-8", errors="replace")[-2000:]


def _check(workload: str, inputs: Path, tree: Path, q_cache: Path) -> list[str]:
    try:
        return check.check(workload, inputs, tree, q_cache)
    except Exception as exc:  # a malformed output tree is a failed check
        return [f"output unreadable: {exc!r}"]


def _median_index(values: list[float]) -> int:
    """Index of the lower median, so the chosen invocation really ran."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=gen.GENERATORS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begun = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "citefrac" / "cli.py").is_file():
        print(f"error: {root} holds no src/citefrac; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    for stale in work.glob("tree-*"):  # left by an interrupted run
        shutil.rmtree(stale)
    inputs = gen.ensure_inputs(work / "inputs", args.workload, args.seed)
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    out = work / "out"
    launch = Launcher(root, work)

    # Byte-compile citefrac once, untimed: users do not pay that per run.
    if launch() is None:
        print(f"error: worker failed to start:\n{launch.log_tail()}", file=sys.stderr)
        return 1

    start = time.monotonic()
    setup_samples = []

    def setup_launch() -> None:
        res = launch()
        if res is not None:
            setup_samples.append(res["setup_s"])

    for _ in range(SETUP_LAUNCHES):
        setup_launch()

    argv = _argv(args.workload, inputs, out)
    results: list[dict | None] = []
    trees: dict[str, Path] = {}  # output digest -> first tree with it
    while True:
        iteration = time.monotonic()
        setup_launch()  # spread set-up samples over the whole run
        trace = bool(args.trace) and len(results) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        res = launch(argv, trace)
        if res is not None and res["rc"] == 0:
            res["traced"] = trace
            res["digest"] = check.tree_digest(out)
            if res["digest"] not in trees:
                trees[res["digest"]] = out.rename(work / f"tree-{len(trees)}")
        else:
            print(f"check failed: invocation failed\n{launch.log_tail()}", file=sys.stderr)
            res = None
        results.append(res)
        now = time.monotonic()
        enough = len(results) >= (2 if args.trace else 1)
        if enough and (now - start + (now - iteration) > args.seconds
                       or now - begun + (now - iteration) > RUN_LIMIT_S):
            break
    shutil.rmtree(out, ignore_errors=True)

    # Checks run after the measured loop; equal digests mean equal trees.
    problems = {digest: _check(args.workload, inputs, tree, work / "scipy_q.json")
                for digest, tree in trees.items()}
    for tree in trees.values():
        shutil.rmtree(tree)
    first_digest = next(iter(trees), None)
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted, failed = len(results), 0
    for res in results:
        if res is None:
            failed += 1
            continue
        found = list(problems[res["digest"]])
        if res["digest"] != first_digest:
            found.append("output tree differs from the first invocation's")
        if res["traced"]:
            res["layers"] = spans.summarize(res["trace"])
            parts = sum(res["layers"][f"{layer}.self_s"] for layer in spans.LAYERS + ("cli",))
            if abs(parts - res["layers"]["trace.wall_s"]) > 1e-6:
                found.append(f"layer self times sum to {parts}, not the traced wall_s")
        for problem in found:
            print(f"check failed: {problem}", file=sys.stderr)
        failed += bool(found)
        setup_samples.append(res["setup_s"])
        (traced if res["traced"] else untraced).append(res)

    runs = untraced or traced
    if not runs:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 0
    med = lambda key, rs=runs: statistics.median(r[key] for r in rs)  # noqa: E731
    records = truth["records"]
    e2e = {
        "wall_s": (med("wall_s"), "s"),
        "records_per_s": (statistics.median(records / r["wall_s"] for r in runs), "1/s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    fail_frac = failed / attempted
    for name, (value, unit) in e2e.items():
        n = len(setup_samples) if name == "setup_s" else len(runs)
        print(f"{args.workload} {name} {value:.6g} {unit} (median of {n})")
    print(f"{args.workload} fail_frac {fail_frac:.6g} ({failed} of {attempted})")

    if args.trace:
        metrics = {}
        if traced:
            pick = traced[_median_index([r["layers"]["trace.wall_s"] for r in traced])]
            layers = dict(pick["layers"])
            layers["corpus.links_expected"] = float(truth.get("links_expected", truth.get("links")))
            layers["corpus.addresses_expected"] = float(
                truth.get("addresses_expected", truth.get("addresses")))
            untraced_wall = med("wall_s", untraced) if untraced else pick["wall_s"]
            layers["trace.overhead_s"] = med("wall_s", traced) - untraced_wall
            (work / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(pick["trace"]), encoding="utf-8")
            for name in sorted(layers):
                print(f"{args.workload} {name} {layers[name]:.6g}")
            metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
