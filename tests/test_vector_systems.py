"""Vector states and multi-channel drivers (d = 2, m = 2)."""

import numpy as np
import pytest

from youngflow import (
    CoefficientField,
    ControlFunction,
    GronwallData,
    SampledPath,
    SolveOptions,
    apply_F,
    composed_path,
    flow_axiom_check,
    linear_field,
    path_from_csv,
    path_to_csv,
    select_exponents,
    solve_backward,
    solve_forward,
)
from youngflow.young import partial_sums_path

EXPS = select_exponents(4.0 / 3.0, 0.75, 0.75, 1.0)

_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def _rotation_field(rate=0.5):
    """dx = rate * J x dw with the 90-degree rotation generator J."""
    A = rate * _ROT

    def f(ts, xs):
        return np.zeros_like(xs)

    def g(ts, xs):
        return (xs @ A.T)[:, :, None]  # (n, d, m=1)

    def g_x(ts, xs):
        n = len(np.atleast_1d(ts))
        out = np.zeros((n, 2, 1, 2))
        out[:, :, 0, :] = A
        return out

    return CoefficientField(
        f=f,
        g=g,
        g_x=g_x,
        dim_d=2,
        dim_m=1,
        L_g=rate,
        M_N=lambda N: 0.0,
        delta=1.0,
        beta=0.75,
        h=ControlFunction.zero(),
        L_N=lambda N: 0.0,
        a=0.0,
        b=lambda ts: np.zeros_like(np.asarray(ts, float)),
        b_norm=lambda t0, t1: 0.0,
        alpha=0.75,
        name="rotation",
        gronwall=GronwallData(mode="linear", a1=0.0, a2=rate),
    )


def _sine_driver(n=3001, t1=2.0, amp=0.4):
    ts = np.linspace(0.0, t1, n)
    return SampledPath(ts, amp * np.sin(ts))


def _rotation_closed_form(rate, omega_vals, x0):
    theta = rate * (omega_vals - omega_vals[0])
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    out = np.empty((len(theta), 2))
    out[:, 0] = cos_t * x0[0] - sin_t * x0[1]
    out[:, 1] = sin_t * x0[0] + cos_t * x0[1]
    return out


def test_rotation_system_matches_matrix_exponential():
    rate = 0.5
    field = _rotation_field(rate)
    driver = _sine_driver()
    x0 = np.array([1.0, 0.25])
    rep = solve_forward(field, driver, 0.0, x0, 2.0, exponents=EXPS)
    target = _rotation_closed_form(rate, driver.at(rep.solution.times)[:, 0], x0)
    assert np.max(np.abs(rep.solution.values - target)) < 1e-5
    assert rep.ball_ok
    for cert in rep.certificates:
        assert cert.ok, cert.name
    # rotations preserve the norm: |x_t| is (numerically) constant
    norms = np.linalg.norm(rep.solution.values, axis=1)
    assert np.max(np.abs(norms - norms[0])) < 1e-4


def test_rotation_round_trip():
    field = _rotation_field()
    driver = _sine_driver()
    opts = SolveOptions(oversample=40)
    x0 = np.array([0.8, -0.3])
    fwd = solve_forward(field, driver, 0.0, x0, 2.0, opts=opts, exponents=EXPS,
                        certify=False)
    back = solve_backward(field, driver, 2.0, fwd.solution.values[-1], 0.0,
                          opts=opts, exponents=EXPS, certify=False)
    assert np.linalg.norm(back.solution.values[0] - x0) < 1e-6


def test_rotation_flow_composition():
    field = _rotation_field()
    driver = _sine_driver(2001)
    probes = [np.array([1.0, 0.0]), np.array([-0.4, 0.7])]
    rep = flow_axiom_check(field, driver, (0.2, 0.9, 1.7), probes, tol=1e-5,
                           opts=SolveOptions(oversample=10), exponents=EXPS)
    assert rep.ok, rep.to_json()


def _additive_two_channel_field(c1=0.7, c2=-0.3):
    """dx = c1 dw1 + c2 dw2 for a scalar state: exact at any resolution."""
    row = np.array([c1, c2])

    def g(ts, xs):
        n = len(np.atleast_1d(ts))
        return np.broadcast_to(row, (n, 1, 2)).copy()

    return CoefficientField(
        f=lambda ts, xs: np.zeros_like(xs),
        g=g,
        g_x=lambda ts, xs: np.zeros((len(np.atleast_1d(ts)), 1, 2, 1)),
        dim_d=1,
        dim_m=2,
        L_g=0.0,
        M_N=lambda N: 0.0,
        delta=1.0,
        beta=0.75,
        h=ControlFunction.zero(),
        L_N=lambda N: 0.0,
        a=0.0,
        b=lambda ts: np.zeros_like(np.asarray(ts, float)),
        b_norm=lambda t0, t1: 0.0,
        alpha=0.75,
        name="two-channel",
    )


def test_two_channel_additive_exact():
    ts = np.linspace(0.0, 1.5, 1501)
    w = SampledPath(ts, np.stack([np.sin(ts), np.cos(2 * ts) - 1.0], axis=1))
    field = _additive_two_channel_field()
    rep = solve_forward(field, w, 0.0, [0.2], 1.5, exponents=EXPS, certify=False)
    target = 0.2 + 0.7 * np.sin(rep.solution.times) - 0.3 * (np.cos(2 * rep.solution.times) - 1.0)
    assert np.max(np.abs(rep.solution.values[:, 0] - target)) < 1e-12
    assert rep.max_residual <= 1e-12


@pytest.mark.parametrize("case", ["scalar-linear", "rotation", "two-channel"])
def test_solution_map_is_the_young_sum(case):
    """The drift and noise parts of F are young's midpoint-rule running sums
    against the clock and against w, bit for bit."""
    ts = np.linspace(0.0, 1.0, 401)
    if case == "scalar-linear":
        field, w, x0 = linear_field(), SampledPath(ts, 0.5 * np.sin(3 * ts)), [0.7]
    elif case == "rotation":
        field, w, x0 = _rotation_field(), _sine_driver(401, 1.0), [1.0, 0.25]
    else:
        w = SampledPath(ts, np.stack([np.sin(ts), np.cos(2 * ts) - 1.0], axis=1))
        field, x0 = _additive_two_channel_field(), [0.2]
    x = solve_forward(field, w, 0.0, x0, 1.0, exponents=EXPS, certify=False).solution
    fx = apply_F(field, w, x)
    noise = partial_sums_path(composed_path(field, x), w, rule="midpoint")
    clock = SampledPath(x.times, x.times)
    drift = partial_sums_path(SampledPath(x.times, field.eval_f(x.times, x.values)), clock,
                              rule="midpoint")
    np.testing.assert_array_equal(noise.times, x.times)
    np.testing.assert_array_equal(fx.young_part.values, noise.values)
    np.testing.assert_array_equal(fx.drift_part.values, drift.values)


def test_vector_csv_round_trip(tmp_path):
    ts = np.linspace(0.0, 1.0, 9)
    path = SampledPath(ts, np.stack([np.sin(ts), np.cos(ts)], axis=1))
    dest = tmp_path / "vec.csv"
    path_to_csv(path, dest)
    header = dest.read_text().splitlines()[0]
    assert header == "t,x1,x2"
    back = path_from_csv(dest)
    np.testing.assert_array_equal(back.times, path.times)
    np.testing.assert_array_equal(back.values, path.values)


def test_output_grid_option_inserts_times():
    field = _rotation_field()
    driver = _sine_driver(501, 1.0)
    extra = np.array([0.1234567, 0.7654321])
    rep = solve_forward(field, driver, 0.0, [1.0, 0.0], 1.0,
                        opts=SolveOptions(grid=extra), exponents=EXPS,
                        certify=False)
    for t in extra:
        assert np.min(np.abs(rep.solution.times - t)) < 1e-12
