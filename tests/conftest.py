import os
from pathlib import Path

import numpy as np
import pytest

from sdpsketch.instances import four_double_zero_polynomial
from sdpsketch.polynomial import Polynomial

# pyproject.toml's `pythonpath = ["src"]` puts this checkout on sys.path;
# processes the tests start (python -m sdpsketch.cli) must import it too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def product_poly() -> Polynomial:
    return four_double_zero_polynomial()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
