"""The README's Library example runs as written against the toy fixtures,
and every command of its CLI block parses as written."""
import re
import shlex
import shutil
from pathlib import Path

import pytest

from citefrac.cli import build_parser

README = Path(__file__).parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_library_example_runs(data_dir, tmp_path, monkeypatch, capsys):
    shutil.copy(data_dir / "toy_corpus.jsonl", tmp_path / "corpus.jsonl")
    shutil.copy(data_dir / "toy_units.txt", tmp_path / "units.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines
    assert [line.split()[0] for line in lines] == [str(i) for i in range(1, len(lines) + 1)]


def cli_commands() -> list[list[str]]:
    """Each `citefrac ...` command of the CLI block, `\\` continuations joined."""
    section = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1].replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_cli_block_lists_every_subcommand():
    commands = cli_commands()
    assert {argv[0] for argv in commands} == {"citefrac"}
    assert sorted(argv[1] for argv in commands) == sorted(
        ["ingest", "assign", "count", "stats", "report", "evaluate"]
    )


@pytest.mark.parametrize("argv", cli_commands(), ids=lambda argv: argv[1])
def test_cli_block_command_parses(argv):
    # A flag its subcommand does not take makes argparse exit 2.
    args = build_parser().parse_args(argv[1:])
    assert args.command == argv[1]
