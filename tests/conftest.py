import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def table1_rows():
    from citefrac.corpus import load_aggregate_table

    return load_aggregate_table((DATA / "table1.csv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def table1_columns(table1_rows):
    from citefrac.report import unit_columns

    return unit_columns(table1_rows, ["3", "5"])
