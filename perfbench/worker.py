"""One benchmark invocation, in a fresh interpreter.

    python3 perfbench/worker.py LAUNCH RESULT TRACE [citefrac args...]

LAUNCH is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` runs from process launch until ``citefrac.cli`` is
imported and ``main`` is callable. With no citefrac arguments the worker
stops there (a set-up-only launch). Otherwise it times ``main(argv)`` and,
when TRACE is 1, records layer spans first. The result is written as JSON
to RESULT.

Every invocation must be a new process: ``stats.posthoc._q_crit`` and
``stats.distributions._chi_scale_grid`` are ``lru_cache``s, so a second
``main()`` in the same interpreter would skip most of the studentized-range
work that every command-line run pays for.
"""
import sys
import time

import citefrac.cli

READY = time.monotonic()


def _run() -> None:
    import json
    import resource

    launch, result_path, trace = float(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    result: dict = {"setup_s": READY - launch}
    if argv:
        recorder = None
        if trace:
            import spans

            recorder = spans.install()
        start = time.perf_counter()
        result["rc"] = citefrac.cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
        if recorder is not None:
            result["trace"] = recorder.dump()
        usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        result["cpu_s"] = sum(u.ru_utime + u.ru_stime for u in usage)
        result["peak_rss_mb"] = max(u.ru_maxrss for u in usage) / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    _run()
