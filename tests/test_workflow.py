"""The CI workflow's installed-entry-point step runs as written: each of its
lines, in order, succeeds, a `citefrac ...` command through `cli.main` and
any other line (one that writes an input file or checks an outcome) through
bash, where `citefrac` runs `python -m citefrac.cli`."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import citefrac
from citefrac.cli import main

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def entry_point_lines() -> list[str]:
    """Each line of the step's script, `\\` continuations joined."""
    step = WORKFLOW.read_text(encoding="utf-8").split("- name: Installed entry point\n", 1)[1]
    script = step.split("run: |\n", 1)[1].split("- name:", 1)[0]
    script = re.sub(r"\\\n\s*", " ", script)
    return [line for line in map(str.strip, script.splitlines()) if line]


def test_entry_point_step_runs(tmp_path, monkeypatch):
    lines = entry_point_lines()
    commands = [shlex.split(line) for line in lines if line.startswith("citefrac ")]
    assert {argv[1] for argv in commands} == {
        "ingest", "assign", "count", "stats", "report", "evaluate"
    }
    monkeypatch.chdir(ROOT)  # the step reads tests/data/ from the checkout
    path = [str(Path(citefrac.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "out": str(tmp_path), "PYTHON": sys.executable,
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    # As in the step, which runs under `set -e`, every command of a line must succeed.
    shim = 'set -e; citefrac() { "$PYTHON" -m citefrac.cli "$@"; }; '
    for line in lines:
        if line.startswith("citefrac "):
            argv = [arg.replace("$out", str(tmp_path)) for arg in shlex.split(line)]
            assert main(argv[1:]) == 0, line
        else:
            subprocess.run(["bash", "-c", shim + line], env=env, check=True)
