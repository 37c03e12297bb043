import numpy as np
import pytest
from hypothesis import strategies as st

from youngflow import run_scenario


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


_RUN_CACHE = {}


@pytest.fixture(scope="session")
def scenario_run():
    """Memoised scenario solves shared across test modules."""

    def get(name, seed=None):
        key = (name, seed)
        if key not in _RUN_CACHE:
            _RUN_CACHE[key] = run_scenario(name, seed=seed)
        return _RUN_CACHE[key]

    return get


def random_path(rng, n, dim=1, scale=1.0):
    from youngflow import SampledPath

    times = np.sort(rng.uniform(0.0, 1.0, n))
    times += np.arange(n) * 1e-6  # enforce strict increase
    values = scale * np.cumsum(rng.standard_normal((n, dim)), axis=0)
    return SampledPath(times, values)


@st.composite
def turning_walks(draw, max_n, dim=1):
    """Sample values, shape (n,) or (n, dim), n <= max_n, of walks with
    plateaus, long monotone runs and, with integer steps, repeated values."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer_steps = draw(st.booleans())
    cols = []
    for _ in range(dim):
        # runs of 1 to 12 steps that go up, down or stay flat
        signs = np.repeat(rng.choice([-1.0, 0.0, 1.0], n - 1), rng.integers(1, 13, n - 1))
        sizes = rng.integers(1, 4, n - 1) if integer_steps else rng.uniform(0.0, 2.0, n - 1)
        cols.append(np.concatenate([[0.0], np.cumsum(signs[: n - 1] * sizes)]))
    return cols[0] if dim == 1 else np.stack(cols, axis=1)
