import tracemalloc

import numpy as np
import pytest

from youngflow import (
    FbmSpec,
    ParameterError,
    SampledPath,
    analytic_driver,
    fbm_covariance_defect,
    fbm_sample,
    p_variation,
    rs_sum,
)


def test_spec_validation():
    with pytest.raises(ParameterError):
        FbmSpec(hurst=0.3, horizon=1.0, samples=64, seed=0)
    with pytest.raises(ParameterError):
        FbmSpec(hurst=0.75, horizon=-1.0, samples=64, seed=0)
    with pytest.raises(ParameterError):
        FbmSpec(hurst=0.75, horizon=1.0, samples=1, seed=0)


@pytest.mark.parametrize("samples", [65.0, 64.5, "65"])
def test_spec_rejects_non_integer_samples(samples):
    with pytest.raises(ParameterError, match="integer"):
        FbmSpec(hurst=0.75, horizon=1.0, samples=samples, seed=0)


def test_negative_seed_is_a_parameter_error():
    with pytest.raises(ParameterError, match="seed"):
        FbmSpec(hurst=0.75, horizon=1.0, samples=64, seed=-1)
    with pytest.raises(ParameterError, match="seed"):
        analytic_driver("brownian_like", {"seed": -1}, np.linspace(0.0, 1.0, 11))


@pytest.mark.parametrize("seed", [1.5, -0.5, True, "1"])
def test_brownian_like_rejects_a_seed_that_is_no_integer(seed):
    # int() would truncate 1.5 to seed 1's path
    with pytest.raises(ParameterError, match="seed"):
        analytic_driver("brownian_like", {"seed": seed}, np.linspace(0.0, 1.0, 11))


def test_seed_determinism():
    a = fbm_sample(FbmSpec(hurst=0.7, horizon=2.0, samples=257, seed=123))
    b = fbm_sample(FbmSpec(hurst=0.7, horizon=2.0, samples=257, seed=123))
    assert np.array_equal(a.values, b.values)
    c = fbm_sample(FbmSpec(hurst=0.7, horizon=2.0, samples=257, seed=124))
    assert not np.array_equal(a.values, c.values)


def test_starts_at_zero():
    for seed in range(3):
        path = fbm_sample(FbmSpec(hurst=0.8, horizon=1.0, samples=65, seed=seed))
        assert path.values[0, 0] == 0.0


def test_exact_covariance_reproduction():
    for hurst, n in ((0.75, 512), (0.6, 256), (0.9, 128)):
        defect = fbm_covariance_defect(FbmSpec(hurst=hurst, horizon=1.0, samples=n, seed=0))
        assert defect <= 1e-10, (hurst, n, defect)


@pytest.mark.parametrize("hurst", [0.5, 0.75, 0.9])
def test_increment_autocovariance_of_the_draws(hurst):
    # the defect above is computed from the sampler's spectrum, not its draws:
    # over 2,000 seeds the sample autocovariance of the increments at lags 0-3
    # must match fGn's within 5 standard errors
    n, lags, seeds = 33, 4, 2000
    dt = 1.0 / (n - 1)
    k = np.arange(lags, dtype=float)
    gamma = 0.5 * dt ** (2 * hurst) * (
        (k + 1) ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst) - 2 * k ** (2 * hurst)
    )
    stats = np.empty((seeds, lags))
    for seed in range(seeds):
        path = fbm_sample(FbmSpec(hurst=hurst, horizon=1.0, samples=n, seed=seed))
        inc = np.diff(path.values[:, 0])
        stats[seed] = [np.mean(inc[: len(inc) - lag] * inc[lag:]) for lag in range(lags)]
    stderr = stats.std(axis=0, ddof=1) / np.sqrt(seeds)
    gap = np.abs(stats.mean(axis=0) - gamma)
    assert np.all(gap <= 5.0 * stderr), (gap / stderr, gamma)


def test_sample_memory_is_linear():
    # a dense n x n covariance at n = 8193 alone is 537 MB
    tracemalloc.start()
    try:
        fbm_sample(FbmSpec(hurst=0.75, horizon=1.0, samples=8193, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak


def test_half_hurst_is_brownian():
    # H = 1/2: increments are independent; lag-1 autocorrelation within 3/sqrt(n)
    n = 2 ** 14
    path = fbm_sample(FbmSpec(hurst=0.5, horizon=1.0, samples=n, seed=3))
    inc = np.diff(path.values[:, 0])
    r1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
    assert abs(r1) <= 3.0 / np.sqrt(len(inc))


def test_pvar_refinement_trends():
    # p > 1/H: stable under refinement; p < 1/H: growing
    big = fbm_sample(FbmSpec(hurst=0.75, horizon=1.0, samples=4097, seed=42))

    def values(p):
        return [
            p_variation(SampledPath(big.times[::stride], big.values[::stride]), p)
            for stride in (4, 2, 1)
        ]

    stable = values(1.5)
    ratios = [b / a for a, b in zip(stable, stable[1:])]
    assert all(r <= 1.02 for r in ratios), stable
    growing = values(1.2)
    ratios = [b / a for a, b in zip(growing, growing[1:])]
    assert all(r >= 1.03 for r in ratios), growing


def test_analytic_linear():
    path = analytic_driver("linear", {}, np.linspace(0, 1, 11))
    np.testing.assert_allclose(path.values[:, 0], np.linspace(0, 1, 11), atol=1e-15)


def test_analytic_sine_total_variation():
    path = analytic_driver("sine", {"amp": 1.0, "freq": 1.0}, np.linspace(0, np.pi, 10001))
    assert p_variation(path, 1.0) == pytest.approx(2.0, abs=1e-3)


def test_analytic_power_feeds_integral_oracle():
    grid = np.linspace(0.0, 1.0, 10001)
    w = analytic_driver("power", {"exponent": 2.0}, grid)
    x = analytic_driver("linear", {}, grid)
    assert rs_sum(x, w)[0] == pytest.approx(2.0 / 3.0, abs=2e-4)


def test_analytic_brownian_like_deterministic():
    grid = np.linspace(0.0, 1.0, 101)
    a = analytic_driver("brownian_like", {"seed": 9}, grid)
    b = analytic_driver("brownian_like", {"seed": 9}, grid)
    assert np.array_equal(a.values, b.values)
    assert a.values[0, 0] == 0.0


def test_unknown_kind():
    with pytest.raises(ParameterError):
        analytic_driver("sawtooth", {}, np.linspace(0, 1, 5))


def test_bad_grid():
    with pytest.raises(ParameterError):
        analytic_driver("linear", {}, [0.0, 0.0, 1.0])
