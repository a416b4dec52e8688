import os
import subprocess
import sys
from pathlib import Path

import pytest

import citefrac
from citefrac.cli import main
from citefrac.corpus import load_canonical


def run(*argv):
    return main(list(argv))


class TestIngest:
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
        assert "error:" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        code = run("ingest", "--input", str(tmp_path / "nope.tagged"), "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize(
        "record, message",
        [
            ("PT J\nPY 0\nUT WOS:2\nER\n", "line 5: year must be positive"),
            ("PT J\nPY 2006\nNR -3\nUT WOS:2\nER\n", "line 5: nrefs must be >= 0"),
            (
                "PT J\nPY 2006\nUT WOS:1\nER\n",
                "line 5: duplicate record id 'WOS:1', first at line 1",
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

    def test_full_pipeline_outputs(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert self.evaluate_toy(data_dir, out) == 0
        expected = [
            "aggregates.csv",
            "ranking_ic_2005_2009.csv",
            "ranking_fc_2005_2009.csv",
            "ranking_icp_2005_2009.csv",
            "ranking_fcp_2005_2009.csv",
            "rank_changes_ic_to_fc_2005-2009.csv",
            "rank_changes_icp_to_fcp_2005-2009.csv",
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

    def test_window_required(self, data_dir, tmp_path, capsys):
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"), "--out", str(tmp_path),
        )
        assert code == 2

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
            "report", "--input", str(data_dir / "table1.csv"),
            "--format", "aggregate", "--out", str(out),
        )
        assert code == 0
        top = (out / "ranking_fcp5.csv").read_text(encoding="utf-8").splitlines()[1]
        assert top.startswith("1,Dep Chem,")

    def test_evaluate_aggregate_table_flag(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = run(
            "evaluate", "--input", str(data_dir / "table1.csv"),
            "--aggregate-table", str(data_dir / "table1.csv"), "--out", str(out),
        )
        assert code == 0
        changes = (out / "rank_changes_icp5_to_fcp5.csv").read_text(encoding="utf-8")
        assert "Dep Chinese Language & Literature,+17" in changes.replace('"', "")

    def test_correlations_emitted(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run("report", "--input", str(data_dir / "table1.csv"), "--format", "aggregate",
            "--out", str(out))
        text = (out / "correlations.csv").read_text(encoding="utf-8")
        row = next(
            l for l in text.splitlines()
            if l.startswith("IC/P (5y),IC/P (3y),pearson")
        )
        assert float(row.split(",")[3]) == pytest.approx(0.967, abs=0.02)


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


    @pytest.mark.parametrize(
        "row", ["A,x", "A,nan", "A,inf", "A", ",5"],
        ids=["non_numeric", "nan", "inf", "missing_value", "empty_unit"],
    )
    def test_bad_samples_usage_exit(self, tmp_path, capsys, row):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"unit,value\nA,1\nA,2\nB,3\nB,4\n{row}\n", encoding="utf-8")
        code = run("stats", "--input", str(samples), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "line 6:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFailedRunWritesNothing:
    def test_report_constant_column(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(
            "unit,P,IC3,FC3,IC5,FC5\nA,5,1,1,1,1\nB,5,2,1,2,1\nC,6,3,1,3,1\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = run("report", "--input", str(table), "--format", "aggregate", "--out", str(out))
        assert code == 2
        assert "constant input" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_window_without_citations(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            "evaluate", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "1990:1991", "--min-pubs", "2", "--out", str(out),
        )
        assert code == 2
        assert "constant input" in capsys.readouterr().err
        assert not out.exists()


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

    def test_bad_py_usage_exit(self, data_dir, tmp_path, capsys):
        code = run(
            "count", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--py", "20x5", "--out", str(tmp_path),
        )
        assert code == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows",
        [
            "Dep X,5,1,1\n",
            "A,5,1,1,1,1\nB,5,2,1,2,1\nA,6,3,1,3,1\n",
            "A,5,1,1,1,1\nB,5,2,1,2,1\nDep Extra,5,1,1,1,1,9\n",
        ],
        ids=["missing_cells", "duplicate_unit", "extra_cell"],
    )
    def test_bad_aggregate_table_usage_exit(self, tmp_path, capsys, rows):
        table = tmp_path / "table.csv"
        table.write_text("unit,P,IC3,FC3,IC5,FC5\n" + rows, encoding="utf-8")
        code = run(
            "report", "--input", str(table), "--format", "aggregate",
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert "line " in capsys.readouterr().err

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
        ],
        ids=["query", "missing_assign", "empty_name", "duplicate_name"],
    )
    def test_units_syntax_error_names_line_and_column(
        self, data_dir, tmp_path, capsys, text, message
    ):
        units = tmp_path / "units.txt"
        units.write_text(text, encoding="utf-8")
        code = run(
            "assign", "--input", str(data_dir / "toy_corpus.jsonl"),
            "--units", str(units), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            '{"id": "Z", "side": "cited", "year": 0}',
            '{"id": "Z", "side": "cited"}',
            '{"id": "Z", "side": "citing", "year": 2006, "nrefs": "x"}',
            '{"id": "Z", "side": "cited", "year": 2005, "addresses": "Tsinghua Univ"}',
            '{"id": "Z", "side": "citing", "year": 2006, "cites": "AB"}',
        ],
        ids=[
            "year_zero", "missing_year", "nrefs_not_integer",
            "addresses_string", "cites_string",
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
        assert f"line {len(lines) + 1}:" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("min_pub = 3", "run.cfg, line 3: unknown setting 'min_pub'"),
            ("min-pubs 3", "run.cfg, line 3: config line without '='"),
            ("strict = ture", "run.cfg, line 3: invalid strict value 'ture'"),
            ("min-pubs = x", "run.cfg, line 3: invalid min-pubs value 'x'"),
        ],
        ids=["unknown_key", "no_equals", "strict_not_boolean", "min_pubs_not_integer"],
    )
    def test_bad_config_usage_exit(self, data_dir, tmp_path, capsys, line, message):
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {data_dir / 'toy_corpus.jsonl'}\n"
            "# comment lines count toward the line number\n"
            f"{line}\n",
            encoding="utf-8",
        )
        code = run(
            "count", "--config", str(cfg), "--units", str(data_dir / "toy_units.txt"),
            "--window", "2005:2009", "--out", str(out),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_hash_inside_value(self, data_dir, tmp_path):
        out = tmp_path / "run#1"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"  # indented comment\ninput = {data_dir / 'toy_corpus.jsonl'}\n"
            f"units = {data_dir / 'toy_units.txt'}\n"
            f"window = 2005:2009\nstrict = YES\nout = {out}\n",
            encoding="utf-8",
        )
        assert run("count", "--config", str(cfg)) == 0
        assert (out / "manifest.txt").is_file()
        assert not (tmp_path / "run").exists()

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
