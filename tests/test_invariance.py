"""Relations that exact counting implies, checked at benchmark scale.

The paper27 corpus of ``perfbench/gen.py`` (seed 1: 600 cited papers, 6000
citing records, 27 units) is evaluated as generated, then once per
transform of its records, and each relation states which output files the
transform may change. No second implementation is needed: a loader, an
assignment or a count that depends on what it should not breaks one.

The generator is run from its source, as a script, so that the tests leave
no bytecode in ``perfbench/``. The generated lines are in the shape
``write_canonical`` writes, so the loader reads them by its written-line
match; the shuffled corpus is written compactly, which the loader reads as
JSON, so that relation also holds the match to the JSON path.
"""
import csv
import io
import json
import random
import runpy
from pathlib import Path

import pytest

from citefrac.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def paper27(tmp_path_factory):
    """The generated inputs' directory, its records and its windows."""
    gen = runpy.run_path(str(PERFBENCH / "gen.py"))
    inputs = tmp_path_factory.mktemp("paper27")
    gen["gen_paper27"](inputs, random.Random("paper27:1"))
    lines = (inputs / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    return inputs, [json.loads(line) for line in lines], gen["WINDOWS"]["paper27"]


def evaluate(paper27, corpus: Path, out: Path) -> dict[str, bytes]:
    inputs, _, windows = paper27
    argv = ["evaluate", "--input", str(corpus), "--units", str(inputs / "units.txt")]
    for start, end in windows:
        argv += ["--window", f"{start}:{end}"]
    assert main(argv + ["--min-pubs", "5", "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.fixture(scope="module")
def generated(paper27, tmp_path_factory):
    inputs, _, _ = paper27
    return evaluate(paper27, inputs / "corpus.jsonl", tmp_path_factory.mktemp("out"))


def evaluate_records(paper27, tmp_path, records, **dumps) -> dict[str, bytes]:
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(json.dumps(rec, ensure_ascii=False, **dumps) + "\n" for rec in records),
        encoding="utf-8",
    )
    return evaluate(paper27, corpus, tmp_path / "out")


def changed(a: dict[str, bytes], b: dict[str, bytes]) -> set[str]:
    return {name for name in a.keys() | b.keys() if a.get(name) != b.get(name)}


def table(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def test_shuffled_lines(paper27, generated, tmp_path):
    records = paper27[1][:]
    random.Random(1).shuffle(records)
    tree = evaluate_records(paper27, tmp_path, records, separators=(",", ":"))
    assert changed(generated, tree) == {"manifest.txt"}


def test_tripled_explicit_nrefs_keep_every_order_and_decision(paper27, generated, tmp_path):
    # Every 1/k becomes 1/(3k): each FC is a third of itself, so each
    # ranking, correlation, test and pairwise decision stays as it was.
    records = [
        {**rec, "nrefs": 3 * (len(rec["cites"]) if rec["nrefs"] is None else rec["nrefs"])}
        for rec in paper27[1]
    ]
    tree = evaluate_records(paper27, tmp_path, records)
    assert changed(generated, tree) == {
        "manifest.txt", "aggregates.csv", "scores.csv", "pairwise.csv",
        "ranking_fc_2005_2007.csv", "ranking_fc_2005_2009.csv",
        "ranking_fcp_2005_2007.csv", "ranking_fcp_2005_2009.csv",
    }
    for name in (n for n in tree if n.startswith("ranking_")):
        assert [row[:2] for row in table(tree[name])] == [
            row[:2] for row in table(generated[name])
        ], name
    decisions = [(row[:2], row[-1]) for row in table(tree["pairwise.csv"])]
    assert decisions == [(row[:2], row[-1]) for row in table(generated["pairwise.csv"])]


def test_citing_record_after_every_window(paper27, generated, tmp_path):
    records = paper27[1]
    cited = next(rec["id"] for rec in records if rec["side"] == "cited")
    late = {"id": "Z0000001", "side": "citing", "year": 2015, "doctype": "Article",
            "addresses": [], "nrefs": 10, "cites": [cited], "doi": None}
    tree = evaluate_records(paper27, tmp_path, records + [late])
    assert changed(generated, tree) == {"manifest.txt"}


def test_cited_record_not_evaluated(paper27, generated, tmp_path):
    # A letter with a unit's address and year, cited in every window by
    # records whose k is their nrefs, so that their other links keep
    # their weight.
    records = paper27[1]
    owned = next(rec for rec in records if rec["side"] == "cited" and rec["year"] == 2005)
    letter = {**owned, "id": "L0000001", "doctype": "Letter"}
    citing = [
        {**rec, "cites": rec["cites"] + [letter["id"]]}
        if rec["side"] == "citing" and rec["nrefs"] else rec
        for rec in records
    ]
    tree = evaluate_records(paper27, tmp_path, citing + [letter])
    assert changed(generated, tree) == {"manifest.txt"}


def test_ids_renamed_in_their_order(paper27, generated, tmp_path):
    records = paper27[1]
    ids = sorted({rec["id"] for rec in records} | {c for rec in records for c in rec["cites"]})
    renamed = {old: f"R{i:07d}" for i, old in enumerate(ids)}
    tree = evaluate_records(paper27, tmp_path, [
        {**rec, "id": renamed[rec["id"]], "cites": [renamed[c] for c in rec["cites"]]}
        for rec in records
    ])
    assert changed(generated, tree) == {"manifest.txt", "scores.csv"}
    header, *rows = table(generated["scores.csv"])
    assert table(tree["scores.csv"]) == [header] + [[renamed[row[0]], *row[1:]] for row in rows]


def test_tagged_records_reversed(data_dir, tmp_path):
    text = (data_dir / "toy_good.tagged").read_text(encoding="utf-8")
    head, body = text.split("PT ", 1)
    records = ("PT " + body).removesuffix("EF\n").split("ER\n")[:-1]
    assert len(records) == 3
    reversed_export = tmp_path / "reversed.tagged"
    reversed_export.write_text(
        head + "".join(rec + "ER\n" for rec in reversed(records)) + "EF\n", encoding="utf-8"
    )
    corpora = []
    for export in (data_dir / "toy_good.tagged", reversed_export):
        out = tmp_path / export.stem
        assert main(["ingest", "--input", str(export), "--out", str(out)]) == 0
        corpora.append((out / "corpus.jsonl").read_bytes())
    assert corpora[0] == corpora[1]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_tagged_line_ends(data_dir, tmp_path, newline):
    export = data_dir / "toy_good.tagged"
    copy = tmp_path / "copy.tagged"
    copy.write_text(export.read_text(encoding="utf-8"), encoding="utf-8", newline=newline)
    assert copy.read_bytes().count(newline.encode()) == export.read_bytes().count(b"\n")
    corpora = []
    for path in (export, copy):
        out = tmp_path / path.stem
        assert main(["ingest", "--input", str(path), "--out", str(out)]) == 0
        corpora.append((out / "corpus.jsonl").read_bytes())
    assert corpora[0] == corpora[1]
