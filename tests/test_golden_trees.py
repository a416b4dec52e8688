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
    "correlations.csv": "477cd001f1e07fdf969619810bfc7bf9e046b688acd151a5c7e30baa989021ba",
    "rank_changes_ic5_to_fc5.csv": "78ad5aa84e5323fe8c41c9c63b070c2c14c331e8bf75a2db88152bf214a7e28d",
    "rank_changes_icp5_to_fcp5.csv": "660a156cebf849ab46ee1d79e2732048f3681408aa14eb961c5a3f71d3117a9d",
    "ranking_fc3.csv": "3cef2bb92fb6df519abc3ff02e8365d604d131900630b9de08c86edc17044d2b",
    "ranking_fc5.csv": "bee0cb3735aa3923a1f426df12a97e441f8dccd969d827f34830b03040e272ef",
    "ranking_fcp3.csv": "041597766436d8d49efd6846bf66b8da56eb8dda76f16438097321ef62849478",
    "ranking_fcp5.csv": "9870cee5c1ae8c581145da89a75c7ac182e9dd958c8c76a6862590bb430caa9e",
    "ranking_ic3.csv": "cc41a064204bd15d4c27cc222545f75b6a951ce8699721ce6b37dd089cfda097",
    "ranking_ic5.csv": "2c32c905d5a53f3ec28518699fe38e7341246c56bed7d0555631de9b6ac70f83",
    "ranking_icp3.csv": "9824775a9d7469e7aa771749cb66a5bda87d4a52919cdbf2d7c7b01dd7dfe0da",
    "ranking_icp5.csv": "6d0f6a3dc4a4b59707e5114aa91118623bd310acddb9036b5981a2564434e5a7",
    "ranking_p.csv": "a57a63908b24a7c92143504c7defc7721881fd017a4b687479744e4e5fcb93aa",
}

# (argv with fixture names for input files, frozen digests of covered files)
CASES = {
    "evaluate_toy_two_windows": (
        ["evaluate", "--input", "toy_corpus.jsonl", "--units", "toy_units.txt",
         "--window", "2005:2007", "--window", "2005:2009", "--min-pubs", "2"],
        {
            "aggregates.csv": "1dc832d22d25492875c666f56513c7a79a7a0cd845fa5fd535032d8d9ff6236f",
            "correlations.csv": "9ab5d42e2bdca7a3822078f8f09cd58d2cd0c18803341396e589dd47a082a227",
            "manifest.txt": "dd470e038f24fe6faff0bd5be73aaffaa884d2892fadaf4ce477fe44ff9aa058",
            "rank_changes_ic_2005_2009_to_fc_2005_2009.csv": "c7ffc110094e25eb9a668cea7835c62442112392d8d680964007440b65e72475",
            "rank_changes_icp_2005_2009_to_fcp_2005_2009.csv": "404648d7cf500b6ac41ab40595f1997acfc9e21d1a77a0f7c77a7e2cc379ed50",
            "ranking_fc_2005_2007.csv": "457a7764df3261fad086f8e24eb140520b4c7236e3eea6860919dda3631b1f85",
            "ranking_fc_2005_2009.csv": "f39c8813e222fcaed118a84372e4e96025a59b1c066efd03915501ed711db8b9",
            "ranking_fcp_2005_2007.csv": "a4f3d71940994d5ac39d06575a08d57eb3699016d07c3e77defa986bda1d2229",
            "ranking_fcp_2005_2009.csv": "952ff3c66a282f303d25d6c378e8c0e3f5c6cc8e1bcc984ce3e208880fcbb798",
            "ranking_ic_2005_2007.csv": "c8565a7cf9b781d20d9991a0f868a1850c4609afe0d6f59c8646a252e13a8272",
            "ranking_ic_2005_2009.csv": "48c73053dfb934a29122d5e9191b207083b49f6f242f1e76fcf91939e8bd5312",
            "ranking_icp_2005_2007.csv": "3147e39fe4330f5ac7e39fb69442db427f566a929ed904c451060394e3a268f0",
            "ranking_icp_2005_2009.csv": "d95c167a7231181b79a5f69940db1edf26d9d26bd7b33715771aa590f52eaf0a",
            "ranking_p.csv": "9b6dce4e8ea4c8c8ce681a5a08b55269b279544f68e791b6412a3692710295e8",
            "scores.csv": "73bce53e504b4f410e7157c09f1c06de13c490b4f5dd7b455d8bfcf9506d11ee",
        },
    ),
    "count_toy_skipped_units": (
        ["count", "--input", "toy_corpus.jsonl", "--units", "toy_units.txt",
         "--window", "2005:2007", "--window", "2005:2009", "--min-pubs", "5"],
        {
            "aggregates.csv": "1172c6719c4efbaac92d5e22abb28fd456b6332cb4e733463eca109f6aadf9c2",
            "manifest.txt": "fb0a5509608d2b119c43861499ebfd662d840550a47b05d6bbfdf9bab88c52f2",
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
            "manifest.txt": "74d1e9b60a330c3f198d45ee18a1d1147e9526e8e62fda697c1b0828af55368a",
        },
    ),
}

FIXTURES = {"toy_corpus.jsonl", "toy_units.txt", "table1.csv"}

# The frozen manifests as text: each lists its inputs' digests, its input
# format and only the settings its subcommand reads (count no alpha, report
# none of min_pubs, alpha and windows).
CORPUS_SHA = "a062e8e3a8358f6cf346896d015f6b87002776d0589ad72badc58d083f0b30b4"
UNITS_SHA = "3f5f0f54594f1d76e2c2c2c5253fdd1f7a0f30062fecf0781219bc135f39b7f0"
MANIFESTS = {
    "evaluate_toy_two_windows": (
        f"input toy_corpus.jsonl sha256={CORPUS_SHA}\ninput toy_units.txt sha256={UNITS_SHA}\n"
        "format = canonical\nmin_pubs = 2\nalpha = 0.05\nwindows = 2005-2007,2005-2009\n"
    ),
    "count_toy_skipped_units": (
        f"input toy_corpus.jsonl sha256={CORPUS_SHA}\ninput toy_units.txt sha256={UNITS_SHA}\n"
        "format = canonical\nmin_pubs = 5\nwindows = 2005-2007,2005-2009\n"
    ),
    "report_table1": (
        "input table1.csv sha256=b96d99f15b93e74d284861643ea70740d621851ded87dc72c3c9b4b4ed7b2141\n"
        "format = aggregate\n"
    ),
}


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
    assert (out / "manifest.txt").read_text(encoding="utf-8") == MANIFESTS[case]


def test_report_on_two_units_skips_correlations(tmp_path, capsys):
    table = tmp_path / "two.csv"
    table.write_text(
        "unit,P,IC3,FC3,IC5,FC5\nDep A,10,5,1.5,9,2.25\nDep B,4,3,0.5,6,1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["report", "--input", str(table), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "correlations skipped: need at least 3 observations, got 2\n"
    ranked = ["ic3", "icp3", "fc3", "fcp3", "ic5", "icp5", "fc5", "fcp5", "p"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["aggregates.csv", "manifest.txt",
         "rank_changes_ic5_to_fc5.csv", "rank_changes_icp5_to_fcp5.csv"]
        + [f"ranking_{key}.csv" for key in ranked]
    )
