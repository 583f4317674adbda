import numpy as np
import pytest

from uavris.channel import assemble_channels
from uavris.metrics import dbm_to_watts
from uavris.scene import build_geometry, default_config

# acceptance criteria that train DDPG agents: nearly all of the suite's run time
SLOW_CRITERIA = tuple(f"test_criterion_{k}_" for k in (5, 6, 7, 8))


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name.startswith(SLOW_CRITERIA):
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def config():
    return default_config(p_max=dbm_to_watts(45.0))


@pytest.fixture
def geometry(config):
    return build_geometry(config)


@pytest.fixture
def channels(config, geometry):
    return assemble_channels(config, geometry, np.random.default_rng(7))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_cmatrix(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)
