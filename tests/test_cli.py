import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import citefrac
from citefrac.cli import _SETTINGS, UsageError, _build_config, build_parser, main
from citefrac.corpus import load_canonical, load_samples_csv
from citefrac.report import unit_columns


def run(*argv):
    return main(list(argv))


class TestIngest:
    def test_tagged_and_ingested_corpus_count_alike(self, data_dir, tmp_path):
        # A tagged record without DT has doctype "" (not evaluated) in the
        # corpus.jsonl that ingest writes, so count leaves it out as the
        # export's own doctype would.
        text = (data_dir / "toy_good.tagged").read_text(encoding="utf-8")
        export = tmp_path / "export.tagged"
        export.write_text(text.replace("DT Proceedings Paper\n", ""), encoding="utf-8")
        ingested = tmp_path / "ingested"
        assert run("ingest", "--input", str(export), "--out", str(ingested)) == 0
        out = tmp_path / "count"
        code = run(
            "count", "--input", str(ingested / "corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--min-pubs", "1", "--out", str(out),
        )
        assert code == 0
        assert "Unit Alpha,1," in (out / "aggregates.csv").read_text(encoding="utf-8")

    def test_good_file(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("ingest", "--input", str(data_dir / "toy_good.tagged"), "--out", str(out))
        assert code == 0
        corpus = load_canonical((out / "corpus.jsonl").read_text(encoding="utf-8"))
        assert len(corpus.cited) == 3
        assert "ingested 3 record(s), rejected 0" in capsys.readouterr().err

    def test_one_bad_record_lenient(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("ingest", "--input", str(data_dir / "toy_onebad.tagged"), "--out", str(out))
        assert code == 0
        corpus = load_canonical((out / "corpus.jsonl").read_text(encoding="utf-8"))
        assert len(corpus.cited) == 2
        assert "rejected 1" in capsys.readouterr().err

    def test_one_bad_record_strict(self, data_dir, tmp_path, capsys):
        code = run(
            "ingest", "--input", str(data_dir / "toy_onebad.tagged"),
            "--out", str(tmp_path / "out"), "--strict",
        )
        assert code == 2
        assert "rejected: toy_onebad.tagged, line " in capsys.readouterr().err

    @pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["lenient", "strict"])
    def test_every_rejected_record_is_printed(self, data_dir, tmp_path, capsys, strict):
        run("ingest", "--input", str(data_dir / "toy_onebad.tagged"),
            "--out", str(tmp_path / "out"), *strict)
        err = capsys.readouterr().err
        assert "rejected: toy_onebad.tagged, line 8: record has neither UT nor DI\n" in err
        assert err.count("rejected: ") == 1

    def test_missing_input(self, tmp_path, capsys):
        code = run("ingest", "--input", str(tmp_path / "nope.tagged"), "--out", str(tmp_path))
        assert code == 2

    def test_input_without_tagged_record_usage_exit(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("ingest", "--input", str(data_dir / "toy_corpus.jsonl"), "--out", str(out))
        assert code == 2
        assert "error: toy_corpus.jsonl: no tagged record found" in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_export_is_one_rejected_record(self, tmp_path, capsys):
        export = tmp_path / "export.tagged"
        export.write_text("FN x\nVR 1\nEF\n", encoding="utf-8")
        assert run("ingest", "--input", str(export), "--out", str(tmp_path / "out")) == 0
        assert "ingested 0 record(s), rejected 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record, message",
        [
            ("PT J\nPY 0\nUT WOS:2\nER\n", "export.tagged, line 5: year must be positive"),
            (
                "PT J\nPY 2006\nNR -3\nUT WOS:2\nER\n",
                "export.tagged, line 5: nrefs must be >= 0",
            ),
            (
                "PT J\nPY 2006\nUT WOS:1\nER\n",
                "export.tagged, line 5: duplicate record id 'WOS:1', first at line 1",
            ),
        ],
        ids=["year_zero", "negative_nr", "duplicate_ut"],
    )
    def test_bad_record_rejected_with_line(self, tmp_path, capsys, record, message):
        export = tmp_path / "export.tagged"
        export.write_text("PT J\nPY 2005\nUT WOS:1\nER\n" + record + "EF\n", encoding="utf-8")
        assert run("ingest", "--input", str(export), "--out", str(tmp_path / "out")) == 0
        assert "ingested 1 record(s), rejected 1" in capsys.readouterr().err
        strict = tmp_path / "strict"
        assert run("ingest", "--input", str(export), "--out", str(strict), "--strict") == 2
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err
        assert not strict.exists()


class TestAssign:
    def test_partition_fixture(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = run(
            "assign", "--input", str(data_dir / "addresses12.jsonl"),
            "--units", str(data_dir / "units_tsinghua.txt"), "--out", str(out),
        )
        assert code == 0
        rows = (out / "assignment.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "unit,paper_id"
        phys = {r.split(",")[1] for r in rows[1:] if r.startswith("Dep Phys,")}
        assert phys == {"A01", "A02", "A07", "A12"}
        chem = {r.split(",")[1] for r in rows[1:] if r.startswith("Dep Chem,")}
        assert chem == {"A03", "A07", "A11"}

    def test_units_file_with_byte_order_mark(self, data_dir, tmp_path):
        # As a text editor saves "UTF-8 with BOM": the mark is not part of
        # the first unit's name.
        units = tmp_path / "units.txt"
        units.write_bytes(b"\xef\xbb\xbf" + (data_dir / "toy_units.txt").read_bytes())
        trees = []
        for name, path in (("plain", data_dir / "toy_units.txt"), ("bom", units)):
            out = tmp_path / name
            code = run(
                "assign", "--input", str(data_dir / "toy_corpus.jsonl"),
                "--units", str(path), "--out", str(out),
            )
            assert code == 0
            trees.append((out / "assignment.csv").read_text(encoding="utf-8"))
        assert trees[0] == trees[1]
        assert "\nUnit Alpha," in trees[1]

    def test_units_required(self, data_dir, tmp_path, capsys):
        code = run(
            "assign", "--input", str(data_dir / "addresses12.jsonl"),
            "--out", str(tmp_path),
        )
        assert code == 2


class TestCountAndEvaluate:
    def evaluate_toy(self, data_dir, out, *extra):
        return run(
            "evaluate", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2007", "--window", "2005:2009",
            "--min-pubs", "2", "--out", str(out), *extra,
        )

    def test_full_pipeline_outputs(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.evaluate_toy(data_dir, out) == 0
        assert "statistics skipped" not in capsys.readouterr().err
        expected = [
            "aggregates.csv",
            "ranking_p.csv",
            *(f"ranking_{kind}_2005_{end}.csv"
              for end in ("2007", "2009") for kind in ("ic", "icp", "fc", "fcp")),
            "rank_changes_ic_2005_2009_to_fc_2005_2009.csv",
            "rank_changes_icp_2005_2009_to_fcp_2005_2009.csv",
            "correlations.csv",
            "tests.csv",
            "pairwise.csv",
            "homogeneity.dot",
            "scores.csv",
            "manifest.txt",
        ]
        for name in expected:
            assert (out / name).is_file(), name

    def test_aggregates_have_both_windows(self, data_dir, tmp_path):
        out = tmp_path / "out"
        self.evaluate_toy(data_dir, out)
        header = (out / "aggregates.csv").read_text(encoding="utf-8").splitlines()[0]
        assert "fc_2005_2007" in header and "fc_2005_2009" in header
        assert "fcp_2005_2009_exact" in header

    def test_pairwise_covers_all_pairs(self, data_dir, tmp_path):
        out = tmp_path / "out"
        self.evaluate_toy(data_dir, out)
        lines = (out / "pairwise.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3  # header + C(3,2) pairs

    def test_count_manifest_records_settings(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--min-pubs", "2", "--out", str(out),
        )
        assert code == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert "min_pubs = 2" in manifest
        assert "windows = 2005-2009" in manifest
        assert "sha256=" in manifest

    @pytest.mark.parametrize("command", ["count", "evaluate", "report", "ingest"])
    def test_each_input_read_once(self, data_dir, tmp_path, monkeypatch, command):
        # The manifest hashes the bytes the loader read; no input is opened
        # a second time.
        corpus, units = data_dir / "toy_corpus.jsonl", data_dir / "toy_units.txt"
        counted = ["--units", str(units), "--window", "2005:2009", "--min-pubs", "2"]
        inputs, extra = {
            "count": ([corpus, units], counted),
            "evaluate": ([corpus, units], counted),
            "report": ([data_dir / "table1.csv"], []),
            "ingest": ([data_dir / "toy_good.tagged"], []),
        }[command]
        opened = []
        real_open = Path.open

        def counting_open(self, *args, **kwargs):
            opened.append(self.name)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        out = str(tmp_path / "out")
        assert run(command, "--input", str(inputs[0]), *extra, "--out", out) == 0
        assert [opened.count(path.name) for path in inputs] == [1] * len(inputs)

    def test_window_required(self, data_dir, tmp_path, capsys):
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"), "--out", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["count", "evaluate"])
    def test_windows_and_units_checked_before_corpus(self, tmp_path, capsys, command):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("not json\n", encoding="utf-8")
        units = tmp_path / "units.txt"
        units.write_text("A := ad=(x) minus Ghost\n", encoding="utf-8")
        argv = [command, "--input", str(corpus), "--units", str(units),
                "--out", str(tmp_path / "out")]
        assert run(*argv) == 2
        assert "error: --window is required\n" in capsys.readouterr().err
        assert run(*argv, "--window", "2005:2009") == 2
        err = capsys.readouterr().err
        assert "units.txt, line 1, column 13: unit 'A' subtracts undefined unit 'Ghost'" in err
        assert "corpus.jsonl" not in err

    @pytest.mark.parametrize(
        "min_pubs, reason",
        [
            ("6", "only unit 'Unit Alpha' kept, the tests need at least 2 units"),
            ("7", "no unit kept, the tests need at least 2 units"),
        ],
        ids=["one_unit", "no_unit"],
    )
    def test_skipped_statistics_say_why(self, data_dir, tmp_path, capsys, min_pubs, reason):
        out = tmp_path / "out"
        code = run(
            "evaluate", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--min-pubs", min_pubs, "--out", str(out),
        )
        assert code == 0
        assert f"statistics skipped: {reason}\n" in capsys.readouterr().err
        assert not (out / "tests.csv").exists()

    def test_statistics_skipped_for_a_one_paper_unit(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "A1", "side": "cited", "year": 2005, "addresses": ["Univ, Dep A"]}\n'
            '{"id": "A2", "side": "cited", "year": 2005, "addresses": ["Univ, Dep A"]}\n'
            '{"id": "B1", "side": "cited", "year": 2005, "addresses": ["Univ, Dep B"]}\n'
            '{"id": "X", "side": "citing", "year": 2006, "nrefs": 2, "cites": ["A1", "B1"]}\n',
            encoding="utf-8",
        )
        units = tmp_path / "units.txt"
        units.write_text("A := ad=(dep a)\nB := ad=(dep b)\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            "evaluate", "--input", str(corpus), "--units", str(units),
            "--window", "2005:2009", "--min-pubs", "1", "--out", str(out),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "statistics skipped: unit 'B' has 1 paper(s), the tests need at least 2\n" in err
        assert (out / "scores.csv").is_file() and not (out / "tests.csv").exists()

    def test_statistics_skipped_for_tied_papers(self, tmp_path, capsys):
        # No paper is cited in the window: every FC is 0.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(
                f'{{"id": "{pid}", "side": "cited", "year": 2005, '
                f'"addresses": ["Univ, Dep {pid[0]}"]}}\n'
                for pid in ("A1", "A2", "B1", "B2")
            )
            + '{"id": "X", "side": "citing", "year": 2012, "nrefs": 2, "cites": ["A1", "B1"]}\n',
            encoding="utf-8",
        )
        units = tmp_path / "units.txt"
        units.write_text("A := ad=(dep a)\nB := ad=(dep b)\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            "evaluate", "--input", str(corpus), "--units", str(units),
            "--window", "2005:2009", "--min-pubs", "2", "--out", str(out),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "statistics skipped: every paper has the value 0, the tests need 2 distinct" in err
        assert (out / "scores.csv").is_file() and not (out / "tests.csv").exists()

    def test_evaluate_window_without_citations(self, data_dir, tmp_path, capsys):
        # Every unit's IC is 0: the correlations are skipped and so are the
        # statistics, each saying why, and the rest of the tree is written.
        out = tmp_path / "out"
        code = run(
            "evaluate", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "1990:1991", "--min-pubs", "2", "--out", str(out),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert (
            "correlations skipped: correlation of p and ic_1990_1991 undefined: "
            "ic_1990_1991 is constant\n" in err
        )
        assert "statistics skipped: every paper has the value 0, the tests need 2 distinct" in err
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "aggregates.csv", "manifest.txt", "ranking_p.csv", "scores.csv",
            *(f"ranking_{kind}_1990_1991.csv" for kind in ("ic", "icp", "fc", "fcp")),
            "rank_changes_ic_1990_1991_to_fc_1990_1991.csv",
            "rank_changes_icp_1990_1991_to_fcp_1990_1991.csv",
        ])

    def test_levene_on_zero_deviation_spread(self, tmp_path):
        # FC {1/2, 0} and {3/2, 0}: each unit's absolute deviations are
        # equal (1/4 and 3/4), so Levene's W is inf with p = 0, as ANOVA's F.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(
                f'{{"id": "{pid}", "side": "cited", "year": 2005, '
                f'"addresses": ["Univ, Dep {pid[0]}"]}}\n'
                for pid in ("A1", "A2", "B1", "B2")
            )
            + '{"id": "X1", "side": "citing", "year": 2006, "nrefs": 2, "cites": ["A1", "B1"]}\n'
            '{"id": "X2", "side": "citing", "year": 2006, "nrefs": 1, "cites": ["B1"]}\n',
            encoding="utf-8",
        )
        units = tmp_path / "units.txt"
        units.write_text("A := ad=(dep a)\nB := ad=(dep b)\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            "evaluate", "--input", str(corpus), "--units", str(units),
            "--window", "2005:2009", "--min-pubs", "2", "--out", str(out),
        )
        assert code == 0
        assert "levene,inf,1:2,0" in (out / "tests.csv").read_text(encoding="utf-8").splitlines()

    def test_evaluate_deterministic(self, data_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        self.evaluate_toy(data_dir, out_a)
        self.evaluate_toy(data_dir, out_b)
        files_a = sorted(p.name for p in out_a.iterdir())
        assert files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestAggregateTableMode:
    def test_report_subcommand(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = run(
            "report", "--input", str(data_dir / "table1.csv"), "--out", str(out),
        )
        assert code == 0
        top = (out / "ranking_fcp5.csv").read_text(encoding="utf-8").splitlines()[1]
        assert top.startswith("1,Dep Chem,")
        changes = (out / "rank_changes_icp5_to_fcp5.csv").read_text(encoding="utf-8")
        assert "Dep Chinese Language & Literature,+17" in changes.replace('"', "")

    def test_table_with_byte_order_mark(self, data_dir, tmp_path):
        # As Excel saves "CSV UTF-8": the mark is not part of the header.
        table = tmp_path / "table1.csv"
        table.write_bytes(b"\xef\xbb\xbf" + (data_dir / "table1.csv").read_bytes())
        trees = []
        for name, path in (("plain", data_dir / "table1.csv"), ("bom", table)):
            out = tmp_path / name
            assert run("report", "--input", str(path), "--out", str(out)) == 0
            trees.append({p.name: p.read_bytes() for p in out.iterdir()
                          if p.name != "manifest.txt"})
        assert trees[0] == trees[1]

    def test_report_constant_column(self, tmp_path, capsys):
        # FC3 is 1 for every unit: no correlations, the rest of the tree.
        table = tmp_path / "table.csv"
        table.write_text(
            "unit,P,IC3,FC3,IC5,FC5\nA,5,1,1,1,1\nB,5,2,1,2,1\nC,6,3,1,3,1\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = run("report", "--input", str(table), "--out", str(out))
        assert code == 0
        assert "correlations skipped: correlation of p and fc3 undefined: fc3 is constant\n" in (
            capsys.readouterr().err
        )
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "aggregates.csv", "manifest.txt", "ranking_p.csv",
            *(f"ranking_{kind}{w}.csv" for w in "35" for kind in ("ic", "icp", "fc", "fcp")),
            "rank_changes_ic5_to_fc5.csv", "rank_changes_icp5_to_fcp5.csv",
        ])
        ranking = (out / "ranking_ic3.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[1] for row in ranking[1:]] == ["C", "B", "A"]

    def test_report_value_beyond_the_bound(self, tmp_path, capsys):
        # IC3 of 1e300: its Pearson r read 0 (p = 1) where it is -0.5. The
        # correlations are skipped, with the reason, and nothing warns.
        table = tmp_path / "table.csv"
        table.write_text(
            "unit,P,IC3,FC3,IC5,FC5\nA,1,1e300,1,4,2\nB,2,2e300,3,5,1\nC,3,5,2,9,7\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("report", "--input", str(table), "--out", str(out)) == 0
        assert capsys.readouterr().err == (
            "correlations skipped: column 'ic3' has the value 1e+300, "
            "the tests need |value| <= 1e+100\n"
        )
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "aggregates.csv", "manifest.txt", "ranking_p.csv",
            *(f"ranking_{kind}{w}.csv" for w in "35" for kind in ("ic", "icp", "fc", "fcp")),
            "rank_changes_ic5_to_fc5.csv", "rank_changes_icp5_to_fcp5.csv",
        ])
        ranking = (out / "ranking_ic3.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[1] for row in ranking[1:]] == ["B", "A", "C"]

    @pytest.mark.parametrize("command", ["evaluate", "count", "assign"])
    def test_corpus_commands_refuse_unit_table(self, command, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        windows = [] if command == "assign" else ["--window", "2005:2009"]
        code = run(
            command, "--input", str(data_dir / "table1.csv"),
            "--units", str(data_dir / "toy_units.txt"), *windows, "--out", str(out),
        )
        assert code == 2
        assert "table1.csv, line 1: invalid JSON: " in capsys.readouterr().err
        assert not out.exists()

    def test_correlations_emitted(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run("report", "--input", str(data_dir / "table1.csv"), "--out", str(out))
        text = (out / "correlations.csv").read_text(encoding="utf-8")
        row = next(
            l for l in text.splitlines()
            if l.startswith("icp5,icp3,pearson")
        )
        assert float(row.split(",")[3]) == pytest.approx(0.967, abs=0.02)


@pytest.mark.parametrize(
    "argv, windows",
    [
        (["report", "--input", "table1.csv"], ["3", "5"]),
        (["evaluate", "--input", "toy_corpus.jsonl", "--units", "toy_units.txt",
          "--window", "2005:2007", "--window", "2005:2009", "--min-pubs", "2"],
         ["_2005_2007", "_2005_2009"]),
    ],
    ids=["report", "evaluate"],
)
def test_unit_reports_named_by_column_key(argv, windows, data_dir, tmp_path):
    # report and evaluate lay out their unit table by one rule: every column
    # but unit is ranked and correlated under its key, and the last window's
    # rank changes are named from its keys.
    out = tmp_path / "out"
    argv = [str(data_dir / a) if a.endswith((".csv", ".jsonl", ".txt")) else a for a in argv]
    assert run(*argv, "--out", str(out)) == 0
    keys = [key for key in unit_columns([], windows) if key != "unit"]
    assert len(keys) == 9
    ranked = sorted(p.name[len("ranking_"):-len(".csv")] for p in out.glob("ranking_*.csv"))
    assert ranked == sorted(keys)
    last = windows[-1]
    changes = {
        p.name: p.read_text(encoding="utf-8").splitlines()[0]
        for p in out.glob("rank_changes_*.csv")
    }
    assert changes == {
        f"rank_changes_{a}{last}_to_{b}{last}.csv": f"unit,delta_{a}{last}_to_{b}{last}"
        for a, b in (("ic", "fc"), ("icp", "fcp"))
    }
    with (out / "correlations.csv").open(encoding="utf-8", newline="") as fh:
        labels = [row["row"] for row in csv.DictReader(fh)]
    assert list(dict.fromkeys(labels)) == keys


class TestStatsSubcommand:
    def test_on_scores_export(self, data_dir, tmp_path):
        scores_out = tmp_path / "count"
        run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--min-pubs", "2", "--out", str(scores_out),
        )
        stats_out = tmp_path / "stats"
        code = run(
            "stats", "--input", str(scores_out / "scores_2005_2009.csv"),
            "--out", str(stats_out),
        )
        assert code == 0
        tests = (stats_out / "tests.csv").read_text(encoding="utf-8").splitlines()
        methods = [l.split(",")[0] for l in tests[1:]]
        assert methods == ["kruskal-wallis", "levene", "anova"]

    def test_unit_name_with_comma_and_quote(self, data_dir, tmp_path):
        units = tmp_path / "units.txt"
        units.write_text(
            (data_dir / "toy_units.txt").read_text(encoding="utf-8")
            .replace("Unit Alpha", 'Unit "Alpha", Sub'),
            encoding="utf-8",
        )
        common = ["--input", str(data_dir / "toy_corpus.jsonl"), "--units", str(units),
                  "--window", "2005:2009", "--min-pubs", "2"]
        assert run("count", *common, "--out", str(tmp_path / "count")) == 0
        scores = tmp_path / "count" / "scores_2005_2009.csv"
        with scores.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {6}
        assert 'Unit "Alpha", Sub' in {row[1] for row in rows}
        assert run("stats", "--input", str(scores), "--out", str(tmp_path / "stats")) == 0
        assert run("evaluate", *common, "--out", str(tmp_path / "evaluate")) == 0

        def pairwise(out):
            with (out / "pairwise.csv").open(encoding="utf-8", newline="") as fh:
                return {(r["unit_i"], r["unit_j"]): float(r["mean_diff"])
                        for r in csv.DictReader(fh)}

        from_stats = pairwise(tmp_path / "stats")
        from_evaluate = pairwise(tmp_path / "evaluate")
        assert ('Unit "Alpha", Sub', "Unit Beta") in from_stats
        assert from_stats.keys() == from_evaluate.keys()
        for pair, diff in from_evaluate.items():
            assert from_stats[pair] == pytest.approx(diff, rel=1e-9), pair
        for out in ("stats", "evaluate"):
            dot = (tmp_path / out / "homogeneity.dot").read_text(encoding="utf-8")
            assert '  "Unit \\"Alpha\\", Sub";' in dot.splitlines()

    def test_scores_export_gives_evaluate_statistics(self, data_dir, tmp_path):
        evaluated, stats_out = tmp_path / "evaluate", tmp_path / "stats"
        code = run(
            "evaluate", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--min-pubs", "2", "--out", str(evaluated),
        )
        assert code == 0
        # The equality needs every unit kept: scores.csv also lists units
        # below --min-pubs, which evaluate leaves out of its statistics.
        scores = evaluated / "scores.csv"
        with scores.open(encoding="utf-8", newline="") as fh:
            scored = {row["unit"] for row in csv.DictReader(fh)}
        with (evaluated / "aggregates.csv").open(encoding="utf-8", newline="") as fh:
            assert scored == {row["unit"] for row in csv.DictReader(fh)}
        assert run("stats", "--input", str(scores), "--out", str(stats_out)) == 0
        for name in ("tests.csv", "pairwise.csv", "homogeneity.dot"):
            assert (stats_out / name).read_bytes() == (evaluated / name).read_bytes(), name

    def test_scores_export_read_exactly(self):
        text = "unit,fc_num,fc_den,fc_decimal\nA,1,3,0.333333333333\n"
        assert load_samples_csv(text) == {"A": [1 / 3]}

    def test_decimal_column_alone_is_no_value_column(self, tmp_path, capsys):
        # Every scores export has fc_num and fc_den beside fc_decimal.
        samples = tmp_path / "samples.csv"
        samples.write_text("unit,fc_decimal\nA,0.5\nA,1\nB,1\nB,0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("stats", "--input", str(samples), "--out", str(out)) == 2
        assert "error: samples.csv, line 1: samples header lacks a value column\n" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("unit,value\nA,1\nA,2\nB,3\n",
             "unit 'B' has 1 paper(s), the tests need at least 2"),
            ("unit,value\nA,1\nA,2\n", "only unit 'A' kept, the tests need at least 2 units"),
            ("unit,value\nA,0\nA,0\nB,0\nB,0\n",
             "every paper has the value 0, the tests need 2 distinct values"),
        ],
        ids=["one_value_unit", "one_unit", "tied_values"],
    )
    def test_too_few_samples_name_the_unit(self, tmp_path, capsys, text, reason):
        samples = tmp_path / "samples.csv"
        samples.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run("stats", "--input", str(samples), "--out", str(out)) == 2
        assert f"error: samples.csv: {reason}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, value",
        [
            ("A,1e308\nA,-1e308\nB,0\nB,1\n", "1e+308"),
            ("A,1e200\nA,-1e200\nB,1e200\nB,-1e200\nC,3\nC,1\n", "1e+200"),
            ("A,1e154\nA,-1e154\nB,1e154\nB,-1e154\nC,1\nC,3\n", "1e+154"),
        ],
        ids=["1e308", "1e200", "1e154"],
    )
    def test_values_beyond_the_bound_name_the_unit(self, tmp_path, capsys, text, value):
        samples = tmp_path / "samples.csv"
        samples.write_text("unit,value\n" + text, encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("stats", "--input", str(samples), "--out", str(out)) == 2
        assert (
            f"error: samples.csv: unit 'A' has the value {value}, "
            "the tests need |value| <= 1e+100\n"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_levene_on_zero_deviation_spread(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("unit,value\nA,0\nA,2\nB,0\nB,4\n", encoding="utf-8")
        assert run("stats", "--input", str(samples), "--out", str(tmp_path / "out")) == 0
        tests = (tmp_path / "out" / "tests.csv").read_text(encoding="utf-8").splitlines()
        assert "levene,inf,1:2,0" in tests

    @pytest.mark.parametrize(
        "row",
        ["A,1.5,3,0.5", "A,1,x,0", "A,1,0,0", "A,1,-3,0", "A,1" + "0" * 400 + ",1,0",
         "A,1_0,3,0", "A,\u0661,3,0", "A,1,1_0,0", "A,1,\u0661,0"],
        ids=["fractional_num", "non_numeric_den", "zero_den", "negative_den", "beyond_float",
             "underscore_num", "non_ascii_num", "underscore_den", "non_ascii_den"],
    )
    def test_bad_exact_scores_usage_exit(self, tmp_path, capsys, row):
        samples = tmp_path / "scores.csv"
        samples.write_text(
            f"unit,fc_num,fc_den,fc_decimal\nA,1,2,0.5\nA,0,1,0\nB,1,1,1\nB,0,1,0\n{row}\n",
            encoding="utf-8",
        )
        code = run("stats", "--input", str(samples), "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert "scores.csv, line 6: fc_num/fc_den" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "row",
        ["A,x", "A,nan", "A,inf", "A", ",5", "A," + "1" * 200_000,
         "A,1_0", "A,\u0661", "A,\u0660.\u0660\u0665"],
        ids=["non_numeric", "nan", "inf", "missing_value", "empty_unit", "field_over_limit",
             "underscore", "non_ascii_digit", "non_ascii_decimal"],
    )
    def test_bad_samples_usage_exit(self, tmp_path, capsys, row):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"unit,value\nA,1\nA,2\nB,3\nB,4\n{row}\n", encoding="utf-8")
        code = run("stats", "--input", str(samples), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "samples.csv, line 6:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_samples_unit_names_lose_surrounding_blanks(self, tmp_path):
        # " A" and "A " name unit A, as a units file's names do.
        trees = []
        for name, rows in [("plain", "A,1\nA,3\nB,2\nB,4\n"),
                           ("blanks", "A,1\n A,3\nB ,2\n B ,4\n")]:
            samples = tmp_path / f"{name}.csv"
            samples.write_text("unit,value\n" + rows, encoding="utf-8")
            out = tmp_path / name
            assert run("stats", "--input", str(samples), "--out", str(out)) == 0
            trees.append({p.name: p.read_text(encoding="utf-8")
                          for p in out.iterdir() if p.name != "manifest.txt"})
        assert trees[0] == trees[1]
        assert trees[1]["pairwise.csv"].count("\n") == 2  # the header and A-B

    @pytest.mark.parametrize(
        "text, message",
        [
            ("value,unit\n1.0,A\n2.0,A\n3.0,B\n4.0,B\n5.0\n", "row has 1 cells, the header 2"),
            ("unit,value\nA,1\nA,2\nB,3\nB,4\nC,5,6\n", "row has 3 cells, the header 2"),
        ],
        ids=["short_row_unit_last", "extra_cell"],
    )
    def test_samples_row_width_usage_exit(self, tmp_path, capsys, text, message):
        samples = tmp_path / "s.csv"
        samples.write_text(text, encoding="utf-8")
        code = run("stats", "--input", str(samples), "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"s.csv, line 6: {message}" in err
        assert "internal error" not in err
        assert not (tmp_path / "out").exists()


class TestFailedRunWritesNothing:
    def test_out_naming_a_file_usage_exit(self, data_dir, tmp_path, capsys):
        out = tmp_path / "results"
        out.write_bytes(b"keep me\n")
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--min-pubs", "2", "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"--out {out} exists and is not a directory" in err
        assert "internal error" not in err
        assert out.read_bytes() == b"keep me\n"


class TestConfigAndValidation:
    def test_config_file_supplies_flags(self, data_dir, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {data_dir / 'toy_corpus.jsonl'}\n"
            f"units = {data_dir / 'toy_units.txt'}\n"
            "window = 2005:2009\n"
            "min-pubs = 3\n"  # dashes accepted in config keys
            f"out = {out}\n",
            encoding="utf-8",
        )
        assert run("count", "--config", str(cfg)) == 0
        assert "min_pubs = 3" in (out / "manifest.txt").read_text(encoding="utf-8")

    def test_flag_overrides_config(self, data_dir, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {data_dir / 'toy_corpus.jsonl'}\n"
            f"units = {data_dir / 'toy_units.txt'}\n"
            "window = 2005:2009\nmin-pubs = 3\n",
            encoding="utf-8",
        )
        assert run("count", "--config", str(cfg), "--min-pubs", "2", "--out", str(out)) == 0
        assert "min_pubs = 2" in (out / "manifest.txt").read_text(encoding="utf-8")

    def test_invalid_alpha(self, data_dir, tmp_path, capsys):
        code = run(
            "stats", "--input", str(data_dir / "table1.csv"),
            "--alpha", "1.5", "--out", str(tmp_path),
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_bad_window_spec(self, data_dir, tmp_path, capsys):
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005-2009", "--out", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "window, message",
        [
            ("2009:2005", "window start 2009 > end 2005"),
            ("-5:2005", "window start must be >= 1, got -5"),
        ],
        ids=["start_after_end", "start_below_one"],
    )
    def test_window_rule_gives_its_reason(self, data_dir, tmp_path, capsys, window, message):
        out = tmp_path / "out"
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            f"--window={window}", "--out", str(out),
        )
        assert code == 2
        assert f"error: invalid --window value {window!r}: {message}\n" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_py_setting_is_gone(self, data_dir, tmp_path, capsys):
        # A unit's papers are picked by year in the units file (py=) alone.
        argv = [
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--out", str(tmp_path / "out"),
        ]
        assert run(*argv, "--py", "2005") == 2
        assert "unrecognized arguments: --py 2005" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min-pubs = 2\npy = 2005\n", encoding="utf-8")
        assert run(*argv, "--config", str(cfg)) == 2
        assert "run.cfg, line 2: unknown setting 'py'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_format_setting_is_gone(self, data_dir, tmp_path, capsys):
        # Each subcommand reads one input format; there is no --format.
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"), "--window", "2005:2009",
            "--format", "canonical", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert "unrecognized arguments: --format canonical" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "rows",
        [
            "Dep X,5,1,1\n",
            "A,5,1,1,1,1\nB,5,2,1,2,1\nA,6,3,1,3,1\n",
            "A,5,1,1,1,1\nB,5,2,1,2,1\nDep Extra,5,1,1,1,1,9\n",
            "A,5,1,1,1,1\nB,5,2,1,2,1\nC,7,3,2,4," + "1" * 140_000 + "\n",
            "A,5,1e400,1,1,1\nB,6,2,1,3,2\nC,7,3,2,4,3\n",
            "A,1" + "0" * 400 + ",1,1,1,1\nB,6,2,1,3,2\nC,7,3,2,4,3\n",
            "A,5,12.5,1,7,2\nB,6,2,1,3,2\nC,7,3,2,4,3\n",
            "A,5,1,1,1,1\n  ,6,2,1,3,2\nC,7,3,2,4,3\n",
            "A,5,1_0,1,1,1\nB,6,2,1,3,2\nC,7,3,2,4,3\n",
            "A,5,1,\u0661,1,1\nB,6,2,1,3,2\nC,7,3,2,4,3\n",
            "A,5,1,1,1,\u0660.\u0660\u0665\nB,6,2,1,3,2\nC,7,3,2,4,3\n",
        ],
        ids=[
            "missing_cells", "duplicate_unit", "extra_cell", "field_over_csv_limit",
            "count_beyond_float", "p_beyond_float", "non_integral_ic", "blank_unit",
            "ic_underscore", "fc_non_ascii_digit", "fc_non_ascii_decimal",
        ],
    )
    def test_bad_aggregate_table_usage_exit(self, tmp_path, capsys, rows):
        table = tmp_path / "table.csv"
        table.write_text("unit,P,IC3,FC3,IC5,FC5\n" + rows, encoding="utf-8")
        code = run("report", "--input", str(table), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "table.csv, line " in capsys.readouterr().err

    def test_unit_names_differing_by_blanks_are_one_unit(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(
            "unit,P,IC3,FC3,IC5,FC5\nDep A,5,1,1,1,1\nDep A ,6,2,1,3,2\nC,7,3,2,4,3\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run("report", "--input", str(table), "--out", str(out)) == 2
        assert "table.csv, line 3: duplicate unit 'Dep A'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["window = 2005:2007", "window = 2005:2009"],
             "run.cfg, line 3: window given twice, first at line 1"),
            (["min-pubs = 3", "min_pubs = 2"],
             "run.cfg, line 3: min_pubs given twice, first at line 1"),
        ],
        ids=["window", "min_pubs_spelt_two_ways"],
    )
    def test_config_key_given_twice_usage_exit(self, data_dir, tmp_path, capsys, lines, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{lines[0]}\n# between\n{lines[1]}\n", encoding="utf-8")
        out = tmp_path / "out"
        windows = [] if lines[0].startswith("window") else ["--window", "2005:2009"]
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"), *windows,
            "--config", str(cfg), "--out", str(out),
        )
        assert code == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_window_usage_exit(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--window", "2005:2009", "--out", str(out),
        )
        assert code == 2
        assert "window 2005-2009 given twice" in capsys.readouterr().err
        assert not (out / "aggregates.csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Good := ad=(x)\nBad := ad=(x and)\n", "line 2, column 17: unexpected ')'"),
            ("Good := ad=(x)\n\nBad ad=(x)\n", "line 3, column 1: missing ':='"),
            ("Good := ad=(x)\n := ad=(y)\n", "line 2, column 1: empty unit name"),
            ("Good := ad=(x)\nGood := ad=(y)\n", "line 2, column 1: duplicate unit 'Good'"),
            ("Good := ad=(x)\nBad := ad=(x) minus\n", "line 2, column 15: minus names no unit"),
            ("Good := ad=(x)\nA := ad=(univ) and py=²\n",
             "line 2, column 23: expected a year, got '²'"),
            ("Good := ad=(x)\nA := py=\u0661\n",
             "line 2, column 9: expected a year, got '\u0661'"),
            ("Good := ad=(tsinghua\u2028univ)  # lab\x0c\nA := ad=(x and)\n",
             "line 2, column 15: unexpected ')'"),
            ("Good := ad=(x)\nA := py=" + "9" * 5000 + "\n",
             "line 2, column 9: expected a year, got '999"),
            ("Good := ad=(x)\nA := " + "(" * 400 + "ad=(univ)" + ")" * 400 + "\n",
             "line 2, column 56: parentheses nested deeper than 50"),
            ("Good := ad=(x)\nA := ad=(" + "(" * 300 + "univ" + ")" * 300 + ")\n",
             "line 2, column 59: parentheses nested deeper than 50"),
            ("Good := ad=(x)\nA := " + " or ".join(["ad=(univ)"] * 3000) + "\n",
             "line 2, column 2616: more than 200 operators nested in one query"),
            ("Good := ad=(x)\nA := ad=(x) minus Ghost\n",
             "line 2, column 13: unit 'A' subtracts undefined unit 'Ghost'"),
            ("A := ad=(x) minus B\nB := ad=(y) minus A\n",
             "line 2, column 13: cyclic minus chain through 'A'"),
            ("A := ad=(x) minus C\nB := ad=(y) minus Ghost\nC := ad=(z) minus Ghost2\n",
             "line 2, column 13: unit 'B' subtracts undefined unit 'Ghost'"),
            ("A := ad=(x) minus B\nB := ad=(y) minus C\nC := ad=(z) minus A\n",
             "line 3, column 13: cyclic minus chain through 'A'"),
            ("U := py=\n", "line 1, column 9: unexpected end of query"),
            ("U := (ad=(x)\n", "line 1, column 6: unbalanced parenthesis"),
            ("U := ad=(and)\n", "line 1, column 10: expected a phrase"),
            ("U := ad=(x) )\n", "line 1, column 13: trailing input ')'"),
        ],
        ids=[
            "query", "missing_assign", "empty_name", "duplicate_name", "bare_minus",
            "superscript_year", "non_ascii_year", "separators_in_a_line",
            "year_beyond_int_digits", "deep_parens",
            "deep_parens_in_ad", "long_or_chain", "undefined_minus", "cyclic_minus",
            "undefined_minus_in_file_order", "cyclic_minus_of_three",
            "year_missing", "unclosed_paren", "operator_as_phrase", "trailing_paren",
        ],
    )
    def test_units_syntax_error_names_line_and_column(
        self, data_dir, tmp_path, capsys, text, message
    ):
        units = tmp_path / "units.txt"
        units.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = run(
            "assign", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(units), "--out", str(out),
        )
        assert code == 2
        assert f"units.txt, {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "record",
        [
            '{"id": "Z", "side": "cited", "year": 0}',
            '{"id": "Z", "side": "cited"}',
            '{"id": "Z", "side": "citing", "year": 2006, "nrefs": "x"}',
            '{"id": "Z", "side": "cited", "year": 2005, "addresses": "Tsinghua Univ"}',
            '{"id": "Z", "side": "citing", "year": 2006, "cites": "AB"}',
            "[1]",
            "3",
            '{"id": "Z", "side": [], "year": 2005}',
            '{"id": 5, "side": "cited", "year": 2005}',
            '{"id": "Z", "side": "cited", "year": 1e400}',
            '{"id": "Z", "side": "cited", "year": 2005.7}',
            '{"id": "Z", "side": "cited", "year": true}',
            '{"id": "Z", "side": "citing", "year": 2006, "nrefs": true}',
            '{"id": "Z", "side": "cited", "year": 2005, "addresses": [3]}',
            '{"id": "Z", "side": "citing", "year": 2006, "cites": [5]}',
            '{"id": "Z", "side": "citing", "year": 2006, "cites": 0}',
            '{"id": "Z", "side": "cited", "year": 2005, "doctype": 5}',
            '{"id": "Z", "side": "cited", "year": 2005, "doi": 5}',
            '{"id": "Z", "side": "cited", "year": 1' + "0" * 5000 + "}",
            "[" * 100_000,
            '{"id": "Z", "side": "citing", "year": 2006, "nrefs": -1}',
            '{"id": "Z", "side": "citing", "year": 2006, "cites": ["A", "A"]}',
            '{"id": "P0\\ud800", "side": "cited", "year": 2005}',
            '{"id": "Z", "side": "cited", "year": 2005, "addresses": ["Tsinghua \\uDC00"]}',
        ],
        ids=[
            "year_zero", "missing_year", "nrefs_not_integer",
            "addresses_string", "cites_string", "array_line", "number_line",
            "side_array", "id_number", "year_overflow", "year_fraction",
            "year_bool", "nrefs_bool", "address_number", "cite_number",
            "cites_zero", "doctype_number", "doi_number", "year_5001_digits",
            "deep_nesting", "nrefs_negative", "cites_repeated",
            "id_lone_surrogate", "address_lone_surrogate",
        ],
    )
    def test_bad_canonical_record_usage_exit(self, data_dir, tmp_path, capsys, record):
        lines = (data_dir / "toy_corpus.jsonl").read_text(encoding="utf-8").splitlines()
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines + [record]) + "\n", encoding="utf-8")
        code = run(
            "count", "--input", str(corpus),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--out", str(tmp_path / "out"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"corpus.jsonl, line {len(lines) + 1}:" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("count", "min_pub = 3", "run.cfg, line 3: unknown setting 'min_pub'"),
            ("count", "min-pubs 3", "run.cfg, line 3: config line without '='"),
            ("ingest", "strict = ture", "run.cfg, line 3: invalid strict value 'ture'"),
            ("count", "min-pubs = x", "run.cfg, line 3: invalid min-pubs value 'x'"),
            ("count", "min-pubs = 0",
             "run.cfg, line 3: invalid min-pubs value '0': must be >= 1, got 0"),
            ("evaluate", "alpha = 2",
             "run.cfg, line 3: invalid alpha value '2': must lie in (0, 1), got 2.0"),
            ("count", "format = canonical", "run.cfg, line 3: unknown setting 'format'"),
            ("count", "min-pubs = 1_0", "run.cfg, line 3: invalid min-pubs value '1_0'"),
            ("count", "min-pubs = \u0661", "run.cfg, line 3: invalid min-pubs value '\u0661'"),
            ("evaluate", "alpha = \u0660.\u0660\u0665",
             "run.cfg, line 3: invalid alpha value '\u0660.\u0660\u0665'"),
            # "\x0c" and U+2028 inside a line do not end it.
            ("count", "# page one\x0c# page two\u2028\nmin-pubs = x\x0c",
             "run.cfg, line 4: invalid min-pubs value 'x'"),
        ],
        ids=[
            "unknown_key", "no_equals", "strict_not_boolean", "min_pubs_not_integer",
            "min_pubs_zero", "alpha_out_of_range", "format_unknown", "min_pubs_underscore",
            "min_pubs_non_ascii_digit", "alpha_non_ascii_decimal", "separators_in_a_line",
        ],
    )
    def test_bad_config_usage_exit(self, data_dir, tmp_path, capsys, command, line, message):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        tagged = command == "ingest"
        cfg.write_text(
            f"input = {data_dir / ('toy_good.tagged' if tagged else 'toy_corpus.jsonl')}\n"
            "# comment lines count toward the line number\n"
            f"{line}\n",
            encoding="utf-8",
        )
        counted = ["--units", str(data_dir / "toy_units.txt"), "--window", "2005:2009"]
        code = run(command, "--config", str(cfg), *([] if tagged else counted), "--out", str(out))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_hash_inside_value(self, data_dir, tmp_path):
        out = tmp_path / "run#1"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"  # indented comment\ninput = {data_dir / 'toy_good.tagged'}\n"
            f"strict = YES\nout = {out}\n",
            encoding="utf-8",
        )
        assert run("ingest", "--config", str(cfg)) == 0
        assert (out / "corpus.jsonl").is_file()
        assert not (tmp_path / "run").exists()

    def test_failed_write_usage_exit_names_path(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "manifest.txt").mkdir(parents=True)
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--min-pubs", "2", "--out", str(out),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {out / 'manifest.txt'}:" in err
        assert "internal error" not in err

    def test_missing_config_file(self, tmp_path):
        assert run("ingest", "--input", "x", "--config", str(tmp_path / "no.cfg")) == 2

    def test_unknown_subcommand_usage_exit(self):
        assert run("frobnicate") == 2


def test_console_entry_point(data_dir, tmp_path):
    # The child must import the same citefrac package, installed or not.
    package_root = str(Path(citefrac.__file__).resolve().parents[1])
    pythonpath = [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run(
        [
            sys.executable, "-m", "citefrac.cli",
            "ingest", "--input", str(data_dir / "toy_good.tagged"),
            "--out", str(tmp_path / "out"),
        ],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "corpus.jsonl").is_file()


# One sample per setting: (a good text, a bad text or None where the parser
# accepts every text). A setting missing here fails the completeness test.
SETTING_SAMPLES = {
    "input": ("{data}/toy_corpus.jsonl", None),
    "units": ("{data}/toy_units.txt", None),
    "window": ("2005:2007,2005:2009", "2005:2007,2005-2009"),
    "min_pubs": ("3", "0"),
    "alpha": ("0.01", "nan"),
    "out": ("results", None),
    "strict": ("true", None),  # a bare switch: no bad flag value to give
}


def test_setting_samples_cover_every_setting():
    assert SETTING_SAMPLES.keys() == _SETTINGS.keys()


class TestSettingsDeclaredOnce:
    """A flag and a config line reach a setting through the same parser.

    Each setting runs on a subcommand that reads it (ingest for --strict,
    evaluate for the rest), with that subcommand's other required settings
    given as flags."""

    def flag_argv(self, key, text):
        flag = "--" + key.replace("_", "-")
        if key == "strict":
            return [flag]
        if key == "window":
            return [arg for window in text.split(",") for arg in (flag, window)]
        return [flag, text]

    def base_argv(self, data_dir, key):
        """The subcommand and its required settings other than `key`."""
        if key == "strict":
            return ["ingest", "--input", str(data_dir / "toy_good.tagged")]
        required = {"input": str(data_dir / "toy_corpus.jsonl"),
                    "units": str(data_dir / "toy_units.txt"), "window": "2005:2009"}
        required.pop(key, None)
        return ["evaluate", *(arg for k, v in required.items() for arg in (f"--{k}", v))]

    def from_flags(self, data_dir, key, text):
        argv = [*self.base_argv(data_dir, key), *self.flag_argv(key, text)]
        return _build_config(build_parser().parse_args(argv))

    def from_config(self, data_dir, tmp_path, key, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# {key}\n{key.replace('_', '-')} = {text}\n", encoding="utf-8")
        argv = [*self.base_argv(data_dir, key), "--config", str(cfg)]
        return _build_config(build_parser().parse_args(argv))

    @pytest.mark.parametrize("key", sorted(SETTING_SAMPLES))
    def test_flag_and_config_give_the_same_value(self, key, data_dir, tmp_path):
        text = SETTING_SAMPLES[key][0].format(data=data_dir)
        field = _SETTINGS[key].field
        from_flags = self.from_flags(data_dir, key, text)
        from_config = self.from_config(data_dir, tmp_path, key, text)
        assert getattr(from_flags, field) == getattr(from_config, field)
        assert from_flags == from_config
        if key not in ("input", "units", "window"):  # each required: no default
            default = _build_config(build_parser().parse_args(self.base_argv(data_dir, key)))
            assert getattr(from_flags, field) != getattr(default, field)

    @pytest.mark.parametrize("key, bad", [
        *(pytest.param(key, bad, id=key) for key, (_, bad) in sorted(SETTING_SAMPLES.items())
          if bad),
        # Numbers that each number type alone would read.
        pytest.param("min_pubs", "1_0", id="min_pubs_underscore"),
        pytest.param("min_pubs", "\u0661", id="min_pubs_non_ascii_digit"),
        pytest.param("alpha", "\u0660.\u0660\u0665", id="alpha_non_ascii_decimal"),
        pytest.param("window", "2005:2_009", id="window_underscore"),
        pytest.param("window", "\u0661:2009", id="window_non_ascii_digit"),
    ])
    def test_flag_and_config_fail_alike(self, key, bad, data_dir, tmp_path):
        with pytest.raises(UsageError) as from_flags:
            self.from_flags(data_dir, key, bad)
        with pytest.raises(UsageError) as from_config:
            self.from_config(data_dir, tmp_path, key, bad)
        flag, config = str(from_flags.value), str(from_config.value)
        name = key.replace("_", "-")
        assert flag.startswith(f"invalid --{name} value {bad!r}: ")
        assert config.startswith(f"run.cfg, line 2: invalid {name} value {bad!r}: ")
        assert flag.split(f"{bad!r}: ", 1)[1] == config.split(f"{bad!r}: ", 1)[1]


# The settings each subcommand reads; no other setting is its flag or config key.
READS = {
    "ingest": ("input", "out", "strict"),
    "assign": ("input", "units", "out"),
    "count": ("input", "units", "window", "min_pubs", "out"),
    "stats": ("input", "alpha", "out"),
    "report": ("input", "out"),
    "evaluate": ("input", "units", "window", "min_pubs", "alpha", "out"),
}
# Its manifest's name of each setting a manifest shows, in manifest order.
MANIFEST_NAMES = {"min_pubs": "min_pubs", "alpha": "alpha", "window": "windows"}
UNREAD = [(command, key) for command, keys in READS.items()
          for key in _SETTINGS if key not in keys]


class TestSettingsPerSubcommand:
    """Each subcommand takes the settings it reads, and only those."""

    def good_argv(self, command, data_dir, tmp_path):
        """A run of `command` that succeeds, with its required settings."""
        samples = tmp_path / "samples.csv"
        samples.write_text("unit,value\nA,1\nA,2\nB,3\nB,5\n", encoding="utf-8")
        corpus = ["--input", str(data_dir / "toy_corpus.jsonl"),
                  "--units", str(data_dir / "toy_units.txt")]
        return [command, *{
            "ingest": ["--input", str(data_dir / "toy_good.tagged")],
            "assign": corpus,
            "count": [*corpus, "--window", "2005:2009"],
            "stats": ["--input", str(samples)],
            "report": ["--input", str(data_dir / "table1.csv")],
            "evaluate": [*corpus, "--window", "2005:2009", "--min-pubs", "2"],
        }[command]]

    def test_table_covers_every_setting(self):
        assert {key for keys in READS.values() for key in keys} == _SETTINGS.keys()
        assert len(UNREAD) == 20

    @pytest.mark.parametrize("command", READS)
    def test_help_lists_its_settings(self, command, capsys):
        assert run(command, "--help") == 0
        flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        assert sorted(flags) == sorted(
            ["--config"] + ["--" + key.replace("_", "-") for key in READS[command]]
        )

    @pytest.mark.parametrize("command, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
    def test_unread_setting_usage_exit(self, command, key, data_dir, tmp_path, capsys):
        argv = self.good_argv(command, data_dir, tmp_path)
        out = tmp_path / "out"
        value = {"units": str(data_dir / "toy_units.txt"), "window": "2005:2009",
                 "min_pubs": "2", "alpha": "0.05", "strict": "true"}[key]
        flag = "--" + key.replace("_", "-")
        flag_argv = [flag] if key == "strict" else [flag, value]
        assert run(*argv, *flag_argv, "--out", str(out)) == 2
        assert f"unrecognized arguments: {' '.join(flag_argv)}" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# {command}\n{key} = {value}\n", encoding="utf-8")
        assert run(*argv, "--config", str(cfg), "--out", str(out)) == 2
        known = ", ".join(READS[command])
        assert f"error: run.cfg, line 2: unknown setting {key!r} (known: {known})\n" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["count", "stats", "report", "evaluate"])
    def test_manifest_lists_the_settings_read(self, command, data_dir, tmp_path):
        out = tmp_path / "out"
        assert run(*self.good_argv(command, data_dir, tmp_path), "--out", str(out)) == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
        names = [line.split(" = ")[0] for line in manifest if not line.startswith("input ")]
        assert names == ["format"] + [
            name for key, name in MANIFEST_NAMES.items() if key in READS[command]
        ]

    @pytest.mark.parametrize("command", ["ingest", "assign"])
    def test_no_manifest(self, command, data_dir, tmp_path):
        out = tmp_path / "out"
        assert run(*self.good_argv(command, data_dir, tmp_path), "--out", str(out)) == 0
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize(
        "command, key",
        [("assign", "units"), ("count", "units"), ("count", "window"), ("evaluate", "window"),
         ("stats", "input"), ("ingest", "input")],
    )
    def test_required_setting(self, command, key, data_dir, tmp_path, capsys):
        argv = self.good_argv(command, data_dir, tmp_path)
        at = argv.index("--" + key)
        out = tmp_path / "out"
        assert run(*argv[:at], *argv[at + 2:], "--out", str(out)) == 2
        assert f"error: --{key} is required\n" in capsys.readouterr().err
        if key != "window":
            missing = tmp_path / "nope.txt"
            argv[at + 1] = str(missing)
            assert run(*argv, "--out", str(out)) == 2
            assert f"error: {key} file not found: {missing}\n" in capsys.readouterr().err
        assert not out.exists()


# Config lines and flag values as a user might mistype them: a good value,
# random text, or a good value with random text spliced in. Every run also
# passes --out, which wins over any config line, so no run writes outside
# its temporary directory.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_GOOD = st.sampled_from(
    ["", "2", "0.5", "2005:2009", "2005:2007,2005:2009", "2005", "yes", "canonical"]
)
_VALUE = st.one_of(
    _GOOD,
    _TEXT,
    st.tuples(_GOOD, _TEXT, st.integers(0, 20)).map(
        lambda t: t[0][: t[2]] + t[1] + t[0][t[2] + 1:]
    ),
)
_KEYS = st.sampled_from(sorted(set(_SETTINGS) - {"out"}) + ["min-pubs", "min_pub"])
_CONFIG_LINE = st.one_of(
    st.tuples(_KEYS, _VALUE).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    _TEXT,
)
_FLAG = st.sampled_from(["--min-pubs", "--alpha", "--window"])


@settings(max_examples=80, deadline=None)
@given(
    lines=st.lists(_CONFIG_LINE, max_size=4),
    flags=st.lists(st.tuples(_FLAG, _VALUE), max_size=3),
)
def test_mutated_settings_never_internal_error(lines, flags):
    data = Path(__file__).parent / "data"
    # A base line gives way to a fuzzed line of its key, which would
    # otherwise stop at the given-twice rule before its value is parsed.
    key = lambda line: line.split("=", 1)[0].strip().replace("-", "_")  # noqa: E731
    base = [f"input = {data / 'toy_corpus.jsonl'}", f"units = {data / 'toy_units.txt'}",
            "window = 2005:2009", "min-pubs = 2"]
    fuzzed = {key(line) for line in lines}
    with tempfile.TemporaryDirectory() as scratch:
        cfg = Path(scratch) / "run.cfg"
        cfg.write_text(
            "\n".join([line for line in base if key(line) not in fuzzed] + lines) + "\n",
            encoding="utf-8",
        )
        out = Path(scratch) / "out"
        argv = ["evaluate", "--config", str(cfg), "--out", str(out)]
        argv += [f"{flag}={text}" for flag, text in flags]
        code = main(argv)
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()


# A tagged export as a user might damage it: lines of the toy fixture
# replaced, inserted, deleted or spliced with random text or marker-like
# lines, and a few random bytes inserted, which may break its UTF-8.
_TAGGED_LINE = st.one_of(
    st.sampled_from([
        "", "   ", "ER", "ER ", "ER x", "EF", "EF x", "PT J", "PY 0", "PY x", "PY2005",
        "NR -1", "UT WOS:000000000001", "DI 10.9/one", "   DOI 10.9/one",
        "CR DOI .", "CR XDOI 10.1/a", "C1 [A, B.; C, D.] Univ X, City", "pt J",
    ]),
    _TEXT,
)
_EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "splice"]),
    st.integers(0, 40),
    _TAGGED_LINE,
)


@settings(max_examples=80, deadline=None)
@given(
    edits=st.lists(_EDIT, max_size=4),
    garbage=st.tuples(st.integers(0, 600), st.binary(max_size=3)),
    strict=st.booleans(),
)
def test_mutated_tagged_export_never_internal_error(edits, garbage, strict):
    data = Path(__file__).parent / "data"
    lines = (data / "toy_good.tagged").read_text(encoding="utf-8").splitlines()
    for op, at, text in edits:
        at %= len(lines) + 1
        if op == "insert" or at == len(lines):
            lines.insert(at, text)
        elif op == "replace":
            lines[at] = text
        elif op == "delete":
            del lines[at]
        else:
            lines[at] = lines[at][: len(text)] + text + lines[at][len(text):]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    at, junk = garbage
    payload = payload[:at] + junk + payload[at:]
    with tempfile.TemporaryDirectory() as scratch:
        export = Path(scratch) / "export.tagged"
        export.write_bytes(payload)
        out = Path(scratch) / "out"
        argv = ["ingest", "--input", str(export), "--out", str(out)]
        code = main(argv + (["--strict"] if strict else []))
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
        else:
            load_canonical((out / "corpus.jsonl").read_text(encoding="utf-8"))


# A canonical corpus as a user might damage it: lines of the toy fixture
# replaced or deleted, a field set to a value of any JSON type or removed,
# and a few random bytes inserted, which may break its UTF-8.
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3000)
    | st.floats(allow_nan=True, allow_infinity=True) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=2),
    max_leaves=4,
)
_CANONICAL_KEY = st.sampled_from(
    ["id", "side", "year", "doctype", "addresses", "nrefs", "cites", "doi"]
)
_CANONICAL_EDIT = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 60), _CANONICAL_KEY, _JSON_VALUE),
    st.tuples(st.just("drop"), st.integers(0, 60), _CANONICAL_KEY, st.none()),
    st.tuples(
        st.just("replace"), st.integers(0, 60), st.none(),
        st.sampled_from(["", "[1]", "3", "{}", "null", '"x"', '{"id": "A00"}']) | _TEXT,
    ),
    st.tuples(st.just("delete"), st.integers(0, 60), st.none(), st.none()),
)


@settings(max_examples=80, deadline=None)
@given(
    edits=st.lists(_CANONICAL_EDIT, max_size=4),
    garbage=st.tuples(st.integers(0, 9000), st.binary(max_size=3)),
)
def test_mutated_canonical_corpus_never_internal_error(edits, garbage):
    data = Path(__file__).parent / "data"
    lines = (data / "toy_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    for op, at, key, value in edits:
        at %= len(lines)
        if op == "replace":
            lines[at] = value
        elif op == "delete":
            del lines[at]
        else:
            try:
                record = json.loads(lines[at])
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if op == "set":
                record[key] = value
            else:
                record.pop(key, None)
            lines[at] = json.dumps(record)
        if not lines:
            break
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    at, junk = garbage
    payload = payload[:at] + junk + payload[at:]
    with tempfile.TemporaryDirectory() as scratch:
        corpus = Path(scratch) / "corpus.jsonl"
        corpus.write_bytes(payload)
        out = Path(scratch) / "out"
        code = main([
            "evaluate", "--input", str(corpus),
            "--units", str(data / "toy_units.txt"),
            "--window", "2005:2009", "--min-pubs", "2", "--out", str(out),
        ])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()


# A samples CSV as a user might damage it: a small table with its unit column
# first or last, its header swapped for another, lines replaced, cut short,
# deleted or repeated, one cell set to any text, and a few random bytes
# inserted.
_SAMPLES_ROWS = [
    ("unit", "value"), ("A", "0.5"), ("A", "1.25"), ("A", "0"), ("B", "2"), ("B", "3.5"),
    ("B", "1"), ("C", "0.25"), ("C", "4"), ("C", "2.5"),
]
_SAMPLES_EDIT = st.one_of(
    st.tuples(
        st.just("replace"), st.just(0),
        st.sampled_from(["value,unit", "unit,fc_decimal", "unit", "unit,value,value", ""]),
    ),
    st.tuples(
        st.just("replace"), st.integers(0, 20),
        st.sampled_from(["", "A", "5.0", "A,1,2", ",", "A,nan", '"A,1', "A,1e400", "D,7"])
        | _TEXT,
    ),
    st.tuples(st.just("cut"), st.integers(0, 20), st.integers(0, 5)),
    st.tuples(st.just("cell"), st.integers(0, 20), st.tuples(st.integers(0, 2), _TEXT)),
    st.tuples(st.just("delete"), st.integers(0, 20), st.none()),
    st.tuples(st.just("repeat"), st.integers(0, 20), st.none()),
)


def _damaged(lines: list[str], edits, garbage, sep: str = ",") -> bytes:
    """The lines after the edits of `_SAMPLES_EDIT`, `_TABLE_EDIT` or
    `_UNITS_EDIT`, with a few bytes inserted. A cell is a part of a line
    between two `sep`."""
    for op, at, arg in edits:
        if op == "head":
            lines = lines[:at]
        if not lines:
            break
        at %= len(lines)
        if op == "replace":
            lines[at] = arg
        elif op == "cut":
            lines[at] = lines[at][:arg]
        elif op == "cell":
            cells = lines[at].split(sep)
            cells[arg[0] % len(cells)] = arg[1]
            lines[at] = sep.join(cells)
        elif op == "delete":
            del lines[at]
        elif op == "repeat":
            lines.insert(at, lines[at])
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    at, junk = garbage
    return payload[:at] + junk + payload[at:]


def _exits_cleanly(command: list[str], flag: str, payload: bytes) -> None:
    """`command` given the payload's file by `flag` exits 0, or 2 with no
    --out."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / flag.lstrip("-")
        path.write_bytes(payload)
        out = Path(scratch) / "out"
        code = main(command + [flag, str(path), "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()


@settings(max_examples=200, deadline=None)
@given(
    unit_last=st.booleans(),
    edits=st.lists(_SAMPLES_EDIT, max_size=4),
    garbage=st.tuples(st.integers(0, 120), st.binary(max_size=3)),
)
def test_mutated_samples_csv_never_internal_error(unit_last, edits, garbage):
    lines = [",".join(row[::-1] if unit_last else row) for row in _SAMPLES_ROWS]
    _exits_cleanly(["stats"], "--input", _damaged(lines, edits, garbage))


# The published aggregate table as a user might damage it: cut to its first
# few lines (so that two or three units, or a constant column, can remain),
# its header swapped, lines replaced, cut short, deleted or repeated, one
# cell set to any text, and a few random bytes inserted.
_TABLE_EDIT = st.one_of(
    st.tuples(st.just("head"), st.integers(0, 6), st.none()),
    st.tuples(
        st.just("replace"), st.just(0),
        st.sampled_from([
            "unit,P,IC3,FC3,IC5", "P,unit,IC3,FC3,IC5,FC5", "unit,P,IC3,FC3,IC5,FC5,X", "",
        ]),
    ),
    st.tuples(
        st.just("replace"), st.integers(0, 40),
        st.sampled_from([
            "", "A", "A,5,1,1,1,1", "A,0,1,1,1,1", "A,-2,1,1,1,1", "A,5,-1,1,1,1",
            "A,5,1e400,1,1,1", "A,5,1e-400,1,1,1", "A,5,1e-999999999,1,1,1",
            "A,5,1/0,1,1,1", "A,5,nan,1,1,1",
            "A,5.5,1,1,1,1", '"A,5', "A,5,1,1,1,1,1", ",5,1,1,1,1",
            "A,1" + "0" * 400 + ",1,1,1,1", "A,5,1,1,1," + "9" * 140_000,
        ]) | _TEXT,
    ),
    st.tuples(st.just("cut"), st.integers(0, 40), st.integers(0, 30)),
    st.tuples(st.just("cell"), st.integers(0, 40), st.tuples(st.integers(0, 5), _TEXT)),
    st.tuples(st.just("delete"), st.integers(0, 40), st.none()),
    st.tuples(st.just("repeat"), st.integers(0, 40), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(
    edits=st.lists(_TABLE_EDIT, max_size=4),
    garbage=st.tuples(st.integers(0, 1200), st.binary(max_size=3)),
)
def test_mutated_aggregate_table_never_internal_error(edits, garbage):
    data = Path(__file__).parent / "data"
    lines = (data / "table1.csv").read_text(encoding="utf-8").splitlines()
    _exits_cleanly(["report"], "--input", _damaged(lines, edits, garbage))


# The Tsinghua units file as a user might damage it: lines replaced by other
# definitions (some past the parser's bounds) or any text, cut short,
# deleted or repeated, one word set to a query token or any text, and a few
# random bytes inserted.
_UNITS_EDIT = st.one_of(
    st.tuples(
        st.just("replace"), st.integers(0, 20),
        st.sampled_from([
            "", "# note", "A := ad=(x)", "A ad=(x)", ":= ad=(x)", "A := ad=(x) minus",
            "A := ad=(x) minus Ghost", "A := ad=(x) minus A", "A := ad=(x", "A := ad=)",
            "A := py=2005 same py=2006", "A := ad=(univ) and py=²", "A := py=" + "9" * 5000,
            "A := " + "(" * 400 + "ad=(univ)" + ")" * 400,
            "A := ad=(" + "(" * 300 + "univ" + ")" * 300 + ")",
            "A := " + " or ".join(["ad=(univ)"] * 3000),
        ]) | _TEXT,
    ),
    st.tuples(st.just("cut"), st.integers(0, 20), st.integers(0, 400)),
    st.tuples(
        st.just("cell"), st.integers(0, 20),
        st.tuples(
            st.integers(0, 80),
            st.sampled_from(["(", ")", "=", "and", "or", "same", "not", "minus", ":=", "²"])
            | _TEXT,
        ),
    ),
    st.tuples(st.just("delete"), st.integers(0, 20), st.none()),
    st.tuples(st.just("repeat"), st.integers(0, 20), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(
    edits=st.lists(_UNITS_EDIT, max_size=4),
    garbage=st.tuples(st.integers(0, 2000), st.binary(max_size=3)),
)
def test_mutated_units_file_never_internal_error(edits, garbage):
    data = Path(__file__).parent / "data"
    lines = (data / "units_tsinghua.txt").read_text(encoding="utf-8").splitlines()
    command = ["assign", "--input", str(data / "toy_corpus.jsonl")]
    _exits_cleanly(command, "--units", _damaged(lines, edits, garbage, sep=" "))
