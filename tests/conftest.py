import os

# One BLAS thread, as the benchmark runs.  OpenBLAS threads the 2 MiB products
# of C and the hull radial, and on a busy host its threads make them crawl.
# The variables are read when the BLAS loads, so they are set before numpy is
# imported; a value set by the caller wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from flowerlab.errors import FlowerlabError  # noqa: E402
from flowerlab.spherecore import uniform_angle_grid  # noqa: E402


@pytest.fixture(scope="session")
def grid720():
    return uniform_angle_grid(720)


@pytest.fixture(scope="session")
def grid4096():
    return uniform_angle_grid(4096)


@pytest.fixture(scope="session")
def grid256():
    return uniform_angle_grid(256)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def assert_refusal():
    """assert_refusal(call, error, message): call() raises exactly the FlowerlabError subclass error, with that message."""

    def check(call, error, message):
        with pytest.raises(FlowerlabError) as e:
            call()
        assert (type(e.value), str(e.value)) == (error, message)

    return check
