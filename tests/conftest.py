import numpy as np
import pytest

from rblab.cliffords import generate_clifford_group
from rblab.noise import NoiseModel, build_noisy_gateset
from rblab.twirl import build_twirl, dominant_spectrum


@pytest.fixture(scope="session")
def group24():
    return generate_clifford_group(2)


@pytest.fixture(scope="session")
def ztilt_noisy(group24):
    return build_noisy_gateset(NoiseModel.z_tilt(0.1), group24)


@pytest.fixture(scope="session")
def ztilt_spectrum(group24, ztilt_noisy):
    return dominant_spectrum(build_twirl(group24, ztilt_noisy))


@pytest.fixture(scope="session")
def overrot_noisy(group24):
    return build_noisy_gateset(NoiseModel.over_rotation(0.1), group24)


@pytest.fixture(scope="session")
def overrot_spectrum(group24, overrot_noisy):
    return dominant_spectrum(build_twirl(group24, overrot_noisy))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def group11520():
    return generate_clifford_group(4)
