"""The CI workflow's installed-entry-point step runs as written: each of its
`citefrac ...` commands, in order, exits 0 through `cli.main`."""
import re
import shlex
from pathlib import Path

from citefrac.cli import main

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def entry_point_commands(out: Path) -> list[list[str]]:
    """Each `citefrac ...` line of the step, `\\` continuations joined and
    `$out` replaced by `out`."""
    step = WORKFLOW.read_text(encoding="utf-8").split("- name: Installed entry point\n", 1)[1]
    script = step.split("run: |\n", 1)[1].split("- name:", 1)[0]
    script = re.sub(r"\\\n\s*", " ", script)
    return [
        [arg.replace("$out", str(out)) for arg in shlex.split(line)]
        for line in map(str.strip, script.splitlines())
        if line.startswith("citefrac ")
    ]


def test_entry_point_step_runs(tmp_path, monkeypatch):
    commands = entry_point_commands(tmp_path)
    assert sorted(argv[1] for argv in commands) == sorted(
        ["ingest", "assign", "count", "stats", "report", "evaluate"]
    )
    monkeypatch.chdir(ROOT)  # the step reads tests/data/ from the checkout
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
