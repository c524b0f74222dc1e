"""Shared fixtures: reference measures and a random-measure helper, and a
per-test time limit."""

import faulthandler

import numpy as np
import pytest

import mfng

# A test that runs this long is stuck: its stack is printed and the run ends,
# instead of hanging.  The slowest test takes well under a minute.
_TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def _fail_instead_of_hanging():
    faulthandler.dump_traceback_later(_TEST_TIME_LIMIT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


# Two-category block measure used throughout the sampling and fitting tests.
BLOCK_LENGTHS = (0.25, 0.75)
BLOCK_PROBS = ((0.59, 0.43), (0.43, 0.78))


@pytest.fixture
def block_measure():
    return mfng.make_measure(BLOCK_LENGTHS, BLOCK_PROBS, k=10)


@pytest.fixture
def block_measure_k4():
    return mfng.make_measure(BLOCK_LENGTHS, BLOCK_PROBS, k=4)


@pytest.fixture
def uniform_measure():
    """m=2 measure whose matrix is constant, so it collapses to G(n, p^k)."""
    return mfng.make_measure([0.5, 0.5], [[0.73, 0.73], [0.73, 0.73]], k=12)


@pytest.fixture
def three_cat_measure():
    return mfng.make_measure(
        [0.2, 0.3, 0.5],
        [[0.9, 0.5, 0.2], [0.5, 0.7, 0.4], [0.2, 0.4, 0.6]],
        k=3,
    )


@pytest.fixture
def random_measure():
    """Factory drawing a valid measure with bounded m and k from an rng."""

    def make(rng, max_m=3, max_k=3):
        m = int(rng.integers(1, max_m + 1))
        k = int(rng.integers(1, max_k + 1))
        lengths = rng.dirichlet(2.0 * np.ones(m))
        probs = rng.uniform(0.05, 0.95, size=(m, m))
        probs = (probs + probs.T) / 2.0
        return mfng.make_measure(lengths, probs, k=k)

    return make
