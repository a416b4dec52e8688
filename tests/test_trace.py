"""The traced benchmark's layer spans still reach the pipeline.

``perfbench/spans.py`` rebinds functions under the names ``citefrac.cli``
and ``citefrac.corpus`` call them by. A renamed function, or an import that
binds a name before the rebinding, would leave a layer untimed without
failing any other test. Each run is a fresh interpreter, as in the
benchmark.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citefrac

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import citefrac.cli
import spans
recorder = spans.install()
rc = citefrac.cli.main(sys.argv[2:])
print(json.dumps({"rc": rc, "metrics": spans.summarize(recorder.dump())}))
"""


def traced(argv):
    package_root = str(Path(citefrac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PERFBENCH), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", ["ingest", "evaluate"])
def test_traced_run_times_every_layer(command, data_dir, tmp_path):
    out = tmp_path / "out"
    if command == "ingest":
        argv = ["ingest", "--input", str(data_dir / "toy_good.tagged")]
    else:
        argv = [
            "evaluate", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2007", "--window", "2005:2009", "--min-pubs", "2",
        ]
    result = traced(argv + ["--out", str(out)])
    metrics = result["metrics"]
    assert result["rc"] == 0
    assert metrics["corpus.build_s"] > 0
    if command == "evaluate":
        assert metrics["counting.scores_s"] > 0
        assert metrics["counting.windows"] == 2
        assert metrics["corpus.links"] == 101  # the links of toy_corpus.jsonl
    self_times = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert len(self_times) == 6
    assert sum(self_times) == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    assert metrics["report.files"] == len(list(out.iterdir()))
