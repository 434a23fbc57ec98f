from pathlib import Path

import numpy as np
import pytest

from torsorcheck import AHDatum, ComplexTorus, VerificationConfig, trivial_datum


@pytest.fixture
def square_torus():
    return ComplexTorus([[1.0, 1.0j]])


@pytest.fixture
def g2_torus():
    periods = np.hstack([np.eye(2), 1j * np.diag([1.0, 2.0])])
    return ComplexTorus(periods)


@pytest.fixture
def principal_datum(square_torus):
    return AHDatum(square_torus, [[1.0]], [1.0, 1.0])


@pytest.fixture
def g2_datum(g2_torus):
    return AHDatum(g2_torus, np.diag([1.0, 0.5]), np.ones(4))


@pytest.fixture
def g3_datum():
    """The genus-3 datum of ``g3_n6.json``: periods [I | i diag(1, 1.5, 2)]."""
    return VerificationConfig.from_file(Path(__file__).with_name("g3_n6.json")).datum


@pytest.fixture
def flat_datum(square_torus):
    return trivial_datum(square_torus)


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
