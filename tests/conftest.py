import os
import pathlib
import sys

import pytest

import tradetopo

sys.path.insert(0, str(pathlib.Path(__file__).parent))

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def trade_csv():
    return FIXTURES / "trade.csv"


@pytest.fixture(scope="session")
def gdp_csv():
    return FIXTURES / "gdp.csv"


@pytest.fixture(scope="session")
def recessions_csv():
    return FIXTURES / "recessions.csv"


@pytest.fixture(scope="session")
def package_env():
    """Environment for a child Python that must import the same tradetopo
    as this process from any working directory: its parent directory goes
    first on PYTHONPATH and inherited entries are made absolute."""
    package_root = pathlib.Path(tradetopo.__file__).resolve().parents[1]
    inherited = [os.path.abspath(entry) for entry in
                 os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([str(package_root), *inherited])}
