import numpy as np
import pytest

from pdegreedy import PRESETS, generate_synthetic, get_pde_spec


@pytest.fixture(scope="session")
def small_snapshot():
    """Cheap random smooth field for sampler and IO tests."""
    spec = get_pde_spec("burgers")
    return generate_synthetic(spec, 48, 25, (-8.0, 8.0, 2.0),
                              init="random-fourier", seed=11)


def _preset_snapshot(name):
    p = PRESETS[name]
    return generate_synthetic(p.spec, p.n, p.m, p.domain, init=p.init)


@pytest.fixture(scope="session")
def allen_cahn_snapshot():
    return _preset_snapshot("allen-cahn")


@pytest.fixture(scope="session")
def burgers_snapshot():
    return _preset_snapshot("burgers")


@pytest.fixture(scope="session")
def kdv_snapshot():
    return _preset_snapshot("kdv")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
