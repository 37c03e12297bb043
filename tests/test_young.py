import math

import numpy as np
import pytest

from youngflow import (
    ParameterError,
    RegularityError,
    SampledPath,
    ShapeError,
    YoungConstants,
    analytic_driver,
    reverse_integral,
    rs_sum,
    young_integral,
    young_loeve_check,
)
from youngflow.young import partial_sums_path


def _uniform(n, t1=1.0):
    return np.linspace(0.0, t1, n)


def test_constants_formula():
    yc = YoungConstants(4.0 / 3.0, 4.0 / 3.0)
    assert yc.theta == pytest.approx(1.5)
    assert yc.K == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-12)
    with pytest.raises(RegularityError):
        YoungConstants(2.0, 2.0)
    with pytest.raises(ParameterError):
        YoungConstants(0.5, 1.0)


def test_rs_sum_telescopes_exactly(rng):
    ts = _uniform(10_001)
    driver = SampledPath(ts, np.cumsum(rng.standard_normal(len(ts))) * 0.01)
    ones = SampledPath(ts, np.ones(len(ts)))
    v = rs_sum(ones, driver)
    expected = driver.values[-1] - driver.values[0]
    assert abs(v[0] - expected[0]) <= 1e-13


def test_rs_sum_zero_driver():
    ts = _uniform(101)
    x = SampledPath(ts, np.sin(ts))
    zero = SampledPath(ts, np.zeros(len(ts)))
    assert rs_sum(x, zero)[0] == 0.0


def test_rs_sum_closed_form_t_dt2():
    ts = _uniform(10_001)
    x = SampledPath(ts, ts)
    w = SampledPath(ts, ts ** 2)
    v = rs_sum(x, w, rule="left")
    assert abs(v[0] - 2.0 / 3.0) < 2e-4


def test_rs_sum_shape_mismatch():
    ts = _uniform(11)
    mat = SampledPath(ts, np.ones((11, 2, 3)))
    drv = SampledPath(ts, np.ones((11, 2)))
    with pytest.raises(ShapeError):
        rs_sum(mat, drv)


def test_matrix_integrand_pairing():
    ts = _uniform(501)
    mat = np.zeros((len(ts), 2, 2))
    mat[:, 0, 0] = ts
    mat[:, 1, 1] = 1.0
    integrand = SampledPath(ts, mat)
    driver = SampledPath(ts, np.stack([ts ** 2, ts], axis=1))
    v = rs_sum(integrand, driver)
    assert v[0] == pytest.approx(2.0 / 3.0, abs=2e-3)
    assert v[1] == pytest.approx(1.0, abs=1e-12)


def test_reverse_integral_negates_exactly(rng):
    ts = _uniform(2001)
    x = SampledPath(ts, np.sin(3 * ts))
    w = SampledPath(ts, np.cumsum(rng.standard_normal(len(ts))) * 0.02)
    fwd = rs_sum(x, w)
    rev = reverse_integral(x, w)
    assert abs(fwd[0] + rev[0]) <= 1e-14
    # zero-width window
    assert reverse_integral(x, w, (0.5, 0.5))[0] == 0.0


def test_reverse_closed_form():
    ts = _uniform(10_001)
    x = SampledPath(ts, ts)
    w = SampledPath(ts, ts ** 2)
    assert abs(reverse_integral(x, w)[0] + 2.0 / 3.0) < 2e-4


def test_young_integral_constant_integrand_exact(rng):
    ts = _uniform(513)
    w = SampledPath(ts, np.cumsum(rng.standard_normal(len(ts))) * 0.05)
    c = 2.5
    x = SampledPath(ts, np.full(len(ts), c))
    res = young_integral(x, w, refine_tol=1e-12, constants=YoungConstants(1.5, 1.5))
    expected = c * (w.values[-1, 0] - w.values[0, 0])
    assert res.value[0] == pytest.approx(expected, abs=1e-12)
    assert res.converged
    # every coarsening agrees for a constant integrand
    assert all(gap <= 1e-12 for _, gap in res.coarse_values)
    assert res.defect_bound >= 0.0


def test_young_integral_x_equals_t():
    ts = _uniform(20_001)
    x = SampledPath(ts, ts)
    res = young_integral(x, x, refine_tol=1e-3, constants=YoungConstants(1.2, 1.2))
    assert res.value[0] == pytest.approx(0.5, abs=1e-4)
    assert res.converged


def test_young_integral_quadrature_oracle():
    # int_0^1 sin(t) d(t^3) = int_0^1 3 t^2 sin t dt, oracle at 1e6 points
    ts = _uniform(10_001)
    x = SampledPath(ts, np.sin(ts))
    w = SampledPath(ts, ts ** 3)
    fine = np.linspace(0.0, 1.0, 1_000_001)
    oracle = np.trapezoid(3.0 * fine ** 2 * np.sin(fine), fine)
    res = young_integral(x, w, refine_tol=1e-3, constants=YoungConstants(1.5, 1.5))
    assert res.value[0] == pytest.approx(oracle, abs=5e-4)


def test_young_integral_warning_flag(rng):
    ts = _uniform(257)
    x = SampledPath(ts, np.cumsum(rng.standard_normal(len(ts))) * 0.2)
    w = SampledPath(ts, np.cumsum(rng.standard_normal(len(ts))) * 0.2)
    res = young_integral(x, w, refine_tol=1e-14, constants=YoungConstants(1.8, 1.8))
    assert not res.converged  # rough pair cannot meet 1e-14 between resolutions


def test_additivity_on_common_grid(rng):
    ts = _uniform(801)
    x = SampledPath(ts, np.cos(2 * ts))
    w = SampledPath(ts, np.cumsum(rng.standard_normal(len(ts))) * 0.03)
    mid = ts[400]
    whole = rs_sum(x, w, (0.0, 1.0))
    left = rs_sum(x, w, (0.0, mid))
    right = rs_sum(x, w, (mid, 1.0))
    assert abs(whole[0] - left[0] - right[0]) <= 1e-13


def test_bilinearity(rng):
    ts = _uniform(301)
    x1 = SampledPath(ts, np.sin(ts))
    x2 = SampledPath(ts, np.cos(3 * ts))
    w = SampledPath(ts, np.cumsum(rng.standard_normal(len(ts))) * 0.05)
    a, b = 1.7, -0.4
    combo = SampledPath(ts, a * x1.values + b * x2.values)
    lhs = rs_sum(combo, w)
    rhs = a * rs_sum(x1, w) + b * rs_sum(x2, w)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)
    w2 = SampledPath(ts, np.cumsum(rng.standard_normal(len(ts))) * 0.05)
    wc = SampledPath(ts, a * w.values + b * w2.values)
    lhs2 = rs_sum(x1, wc)
    rhs2 = a * rs_sum(x1, w) + b * rs_sum(x1, w2)
    assert np.allclose(lhs2, rhs2, rtol=1e-12, atol=1e-13)


def test_rules_converge_together():
    gaps = []
    for n in (129, 257, 513, 1025, 2049):
        ts = _uniform(n)
        x = SampledPath(ts, np.sin(2 * ts))
        w = SampledPath(ts, np.cos(ts) + 0.5 * ts)
        vals = [rs_sum(x, w, rule=r)[0] for r in ("left", "right", "midpoint")]
        gaps.append(max(vals) - min(vals))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_young_loeve_certificate(rng):
    ok_count = 0
    for _ in range(12):
        n = 257
        ts = _uniform(n, 1.5)
        coeffs = rng.standard_normal(4) * 0.5
        x_vals = sum(c * np.sin((k + 1) * ts + rng.uniform(0, 6)) for k, c in enumerate(coeffs))
        w_vals = sum(c * np.cos((k + 1) * ts) for k, c in enumerate(rng.standard_normal(4) * 0.5))
        cert = young_loeve_check(
            SampledPath(ts, x_vals), SampledPath(ts, w_vals),
            constants=YoungConstants(4 / 3, 4 / 3),
        )
        assert cert.ok
        assert cert.extra["yl1_ok"]
        ok_count += 1
    assert ok_count == 12


def test_young_loeve_check_needs_explicit_constants():
    ts = _uniform(11)
    x = SampledPath(ts, np.ones(len(ts)))
    with pytest.raises(ParameterError, match="needs explicit YoungConstants"):
        young_loeve_check(x, x)


def test_young_loeve_constant_integrand(rng):
    ts = _uniform(101)
    x = SampledPath(ts, np.full(len(ts), 3.0))
    w = SampledPath(ts, np.cumsum(rng.standard_normal(len(ts))) * 0.1)
    cert = young_loeve_check(x, w, constants=YoungConstants(1.5, 1.5))
    assert cert.lhs == pytest.approx(0.0, abs=1e-13)
    assert cert.ok


def test_partial_sums_path_matches_total(rng):
    ts = _uniform(301)
    x = SampledPath(ts, np.sin(ts))
    w = SampledPath(ts, np.cumsum(rng.standard_normal(len(ts))) * 0.02)
    for rule in ("left", "right", "midpoint"):
        sums = partial_sums_path(x, w, rule=rule)
        assert sums.values[-1, 0] == pytest.approx(rs_sum(x, w, rule=rule)[0], abs=1e-14)
        assert sums.values[0, 0] == 0.0


@pytest.mark.parametrize("fn", [rs_sum, partial_sums_path, reverse_integral])
def test_unknown_rule_raises(fn):
    ts = _uniform(11)
    x = SampledPath(ts, ts)
    with pytest.raises(ParameterError, match="unknown rule"):
        fn(x, x, rule="bogus")


def test_driver_sine_total_variation():
    grid = np.linspace(0.0, np.pi, 10_001)
    w = analytic_driver("sine", {}, grid)
    from youngflow import p_variation

    assert p_variation(w, 1.0) == pytest.approx(2.0, abs=1e-3)
