import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from diagpair.systems import BUILTIN_SYSTEMS, DiagonalSystem

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny2():
    return BUILTIN_SYSTEMS["tiny2"]


@pytest.fixture(scope="session")
def sample5():
    return BUILTIN_SYSTEMS["sample5"]


@pytest.fixture(scope="session")
def ladder6():
    return BUILTIN_SYSTEMS["ladder6"]


@pytest.fixture(scope="session")
def ladder4():
    # separable: the two equation factors split into disjoint variable pairs,
    # so the box density has a closed form (see test_archimedean)
    return DiagonalSystem(a=(), b=(), c=(1, -1), d=(1, -1))


@pytest.fixture(scope="session")
def balanced11():
    return BUILTIN_SYSTEMS["balanced11"]
