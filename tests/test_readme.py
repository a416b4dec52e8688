"""The README's Library example runs as written against the toy fixtures."""
import re
import shutil
from pathlib import Path

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
