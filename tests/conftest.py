import numpy as np
import pytest

from torusvar.geometry import FlatTorus


@pytest.fixture(scope="session")
def torus64() -> FlatTorus:
    return FlatTorus(64)


@pytest.fixture(scope="session")
def torus32() -> FlatTorus:
    return FlatTorus(32)


def _aniso_pair(torus: FlatTorus):
    x1, x2 = torus.grids()
    h1 = torus.field(1.0 + 0.3 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))
    h2 = torus.field(1.0 + 0.2 * np.cos(2 * np.pi * x1) + 0.1 * np.sin(4 * np.pi * x2))
    return h1, h2


@pytest.fixture(scope="session")
def aniso_weights(torus64):
    """A smooth positive weight pair with no special symmetry."""
    return _aniso_pair(torus64)


@pytest.fixture(scope="session")
def aniso_on():
    """`aniso_weights` on any grid: a function of the torus."""
    return _aniso_pair
