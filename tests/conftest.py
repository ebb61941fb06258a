import numpy as np
import pytest
from hypothesis import settings

import resonet as rn

# Property tests draw the same examples on every run, so a tier-1 result
# does not depend on the run.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def xband4():
    return rn.FilterSpec(order=4, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)


@pytest.fixture(scope="session")
def xband8():
    return rn.FilterSpec(order=8, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)


@pytest.fixture(scope="session")
def yband4():
    return rn.FilterSpec(order=4, f0_hz=300e9, bandwidth_hz=6e9, ripple_db=0.04321)


@pytest.fixture(scope="session")
def xband4_design(xband4):
    return rn.synthesize_design(xband4)


@pytest.fixture
def random_lossless():
    """Factory for random lossless (real symmetric m, resistive ports) matrices."""

    def make(rng, n=None):
        n = int(n if n is not None else rng.integers(2, 9))
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2.0
        qe1, qen = rng.uniform(0.2, 5.0, size=2)
        return rn.CouplingMatrix(m=m, qe1=float(qe1), qen=float(qen))

    return make
