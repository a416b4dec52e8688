"""Frozen output trees of the counting and report stages.

Each case runs one fixture command and compares the sha256 of every file
those stages write (aggregates, rankings, rank changes, correlations,
scores, skipped units, manifest) with digests frozen from a reference run.
The statistics files (pairwise, tests, homogeneity) are left to the
statistics oracles.
"""
import hashlib

import pytest

from citefrac.cli import main

COVERED = (
    "aggregates", "ranking_", "rank_changes_", "correlations", "scores",
    "skipped_units_", "manifest",
)

TABLE1_REPORTS = {
    "aggregates.csv": "a28fed6c1573fe90a31d57ac329e85bdb2effaa8ee50fe9c6ec0aa0a9847246f",
    "correlations.csv": "c6e716188ab0af62b3454200278cb832346be548389b3aa5888d04147a2958e6",
    "rank_changes_ic5_to_fc5.csv": "78ad5aa84e5323fe8c41c9c63b070c2c14c331e8bf75a2db88152bf214a7e28d",
    "rank_changes_icp5_to_fcp5.csv": "660a156cebf849ab46ee1d79e2732048f3681408aa14eb961c5a3f71d3117a9d",
    "ranking_fc3.csv": "3cef2bb92fb6df519abc3ff02e8365d604d131900630b9de08c86edc17044d2b",
    "ranking_fc5.csv": "bee0cb3735aa3923a1f426df12a97e441f8dccd969d827f34830b03040e272ef",
    "ranking_fcp3.csv": "041597766436d8d49efd6846bf66b8da56eb8dda76f16438097321ef62849478",
    "ranking_fcp5.csv": "9870cee5c1ae8c581145da89a75c7ac182e9dd958c8c76a6862590bb430caa9e",
    "ranking_ic3.csv": "4a7751eb037b746b91955f30030dba4f055afedaa4bfaac7a6b6fe670f0bd411",
    "ranking_ic5.csv": "52fe6f260285eb54c352f74905ebe3c0cfdd5c3d8f8d5a662e1dab082b30c38c",
    "ranking_icp3.csv": "9824775a9d7469e7aa771749cb66a5bda87d4a52919cdbf2d7c7b01dd7dfe0da",
    "ranking_icp5.csv": "6d0f6a3dc4a4b59707e5114aa91118623bd310acddb9036b5981a2564434e5a7",
    "ranking_p.csv": "55424912eff211243df86e32f07fac45d87a246803c76d18322fbbc9a984aa2a",
}

# (argv with fixture names for input files, frozen digests of covered files)
CASES = {
    "evaluate_toy_two_windows": (
        ["evaluate", "--input", "toy_corpus.jsonl", "--units", "toy_units.txt",
         "--window", "2005:2007", "--window", "2005:2009", "--min-pubs", "2"],
        {
            "aggregates.csv": "1dc832d22d25492875c666f56513c7a79a7a0cd845fa5fd535032d8d9ff6236f",
            "correlations.csv": "4aece12cc110630e9bbfb502df53fdee9349cbe448338a96a27768e936fc90a8",
            "manifest.txt": "dd470e038f24fe6faff0bd5be73aaffaa884d2892fadaf4ce477fe44ff9aa058",
            "rank_changes_ic_to_fc_2005-2009.csv": "f6e03fdbf9b28a99df92c8b67d4527b2eaa6a895b318f7c7ed1cf1937de58bfd",
            "rank_changes_icp_to_fcp_2005-2009.csv": "924ddb72f365f2ab3f8b990dbd27391da4a37396c91193d4bdc4585126197f3d",
            "ranking_fc_2005_2009.csv": "f39c8813e222fcaed118a84372e4e96025a59b1c066efd03915501ed711db8b9",
            "ranking_fcp_2005_2009.csv": "952ff3c66a282f303d25d6c378e8c0e3f5c6cc8e1bcc984ce3e208880fcbb798",
            "ranking_ic_2005_2009.csv": "14f036785322831586f195a4bd1be40730c0acadc1a99bd269ba179656347869",
            "ranking_icp_2005_2009.csv": "d95c167a7231181b79a5f69940db1edf26d9d26bd7b33715771aa590f52eaf0a",
            "scores.csv": "73bce53e504b4f410e7157c09f1c06de13c490b4f5dd7b455d8bfcf9506d11ee",
        },
    ),
    "count_toy_skipped_units": (
        ["count", "--input", "toy_corpus.jsonl", "--units", "toy_units.txt",
         "--window", "2005:2007", "--window", "2005:2009", "--min-pubs", "5"],
        {
            "aggregates.csv": "1172c6719c4efbaac92d5e22abb28fd456b6332cb4e733463eca109f6aadf9c2",
            "manifest.txt": "d37f13adb5f638003c463749bba720d1f1d42556cce4866ef0809873a8258c02",
            "scores_2005_2007.csv": "78e2032ea41573fa5e5f8036f13ad2ad67f5988ed1ee406c0b637481e1e5d881",
            "scores_2005_2009.csv": "73bce53e504b4f410e7157c09f1c06de13c490b4f5dd7b455d8bfcf9506d11ee",
            "skipped_units_2005_2007.csv": "c5e62e29256801e4927c4a92bdb46c6a9145dd291e9dc330178e556c99cc1cfc",
            "skipped_units_2005_2009.csv": "c5e62e29256801e4927c4a92bdb46c6a9145dd291e9dc330178e556c99cc1cfc",
        },
    ),
    "report_table1": (
        ["report", "--input", "table1.csv"],
        {
            **TABLE1_REPORTS,
            "manifest.txt": "d95cc7f652264e31df365b28a42cfb33569849439a38c78728c7c1639675e417",
        },
    ),
}

FIXTURES = {"toy_corpus.jsonl", "toy_units.txt", "table1.csv"}


def covered_digests(out):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if p.name.startswith(COVERED)
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_tree_matches_frozen_digests(case, data_dir, tmp_path):
    argv, expected = CASES[case]
    out = tmp_path / "out"
    argv = [str(data_dir / a) if a in FIXTURES else a for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    assert covered_digests(out) == expected


def test_report_on_two_units_skips_correlations(tmp_path):
    table = tmp_path / "two.csv"
    table.write_text(
        "unit,P,IC3,FC3,IC5,FC5\nDep A,10,5,1.5,9,2.25\nDep B,4,3,0.5,6,1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["report", "--input", str(table), "--out", str(out)]) == 0
    ranked = ["ic3", "icp3", "fc3", "fcp3", "ic5", "icp5", "fc5", "fcp5", "p"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["aggregates.csv", "manifest.txt",
         "rank_changes_ic5_to_fc5.csv", "rank_changes_icp5_to_fcp5.csv"]
        + [f"ranking_{key}.csv" for key in ranked]
    )
