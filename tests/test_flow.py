import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from youngflow import (
    SCENARIOS,
    SampledPath,
    SolveOptions,
    analytic_driver,
    cauchy_operator,
    flow_axiom_check,
    linear_field,
    non_intersection_check,
    select_exponents,
)
from youngflow.errors import ParameterError, PreconditionError
from test_vector_systems import _rotation_field, _sine_driver

EXPS = select_exponents(4.0 / 3.0, 0.75, 0.75, 1.0)


def _zero_field():
    return linear_field(0.0, 0.0, 0.0, 0.0)


def _mult_setup(n=2001, t1=1.0):
    field = linear_field(0.0, 0.0, 1.0, 0.0)
    driver = analytic_driver("sine", {}, np.linspace(0.0, t1, n))
    return field, driver, SolveOptions(oversample=30)


def test_identity_no_solve():
    field, driver, opts = _mult_setup()
    x = np.array([1.23])
    out = cauchy_operator(field, driver, 0.4, 0.4, x, opts=opts, exponents=EXPS)
    assert np.array_equal(out, x)


def test_zero_field_transport_is_identity():
    field = _zero_field()
    driver = analytic_driver("sine", {}, np.linspace(0.0, 1.0, 301))
    for t1, t2 in ((0.0, 1.0), (0.8, 0.2), (0.3, 0.9)):
        out = cauchy_operator(field, driver, t1, t2, [0.42], exponents=EXPS)
        assert out[0] == pytest.approx(0.42, abs=1e-12)


def test_scalar_linear_closed_form_both_directions():
    field, driver, opts = _mult_setup(4001)
    x0 = 0.8
    fwd = cauchy_operator(field, driver, 0.0, 1.0, [x0], opts=opts, exponents=EXPS)
    assert fwd[0] == pytest.approx(x0 * np.exp(np.sin(1.0)), abs=1e-5)
    back = cauchy_operator(field, driver, 1.0, 0.0, [fwd[0]], opts=opts, exponents=EXPS)
    assert back[0] == pytest.approx(x0, abs=1e-5)
    # backward against the closed form directly
    back2 = cauchy_operator(field, driver, 1.0, 0.3, [x0], opts=opts, exponents=EXPS)
    assert back2[0] == pytest.approx(x0 * np.exp(np.sin(0.3) - np.sin(1.0)), abs=1e-5)


def test_flow_axioms_zero_field():
    field = _zero_field()
    driver = analytic_driver("sine", {}, np.linspace(0.0, 1.0, 301))
    probes = [[-1.0], [0.0], [2.5]]
    rep = flow_axiom_check(field, driver, (0.2, 0.5, 0.8), probes, tol=1e-12,
                           exponents=EXPS)
    assert rep.identity_residual == 0.0
    assert rep.inversion_residual == 0.0
    assert rep.composition_residual == 0.0
    assert rep.ok


def test_flow_axioms_linear(rng):
    field, driver, opts = _mult_setup(2001)
    probes = rng.uniform(-1.0, 1.0, (4, 1))
    rep = flow_axiom_check(field, driver, (0.1, 0.45, 0.9), probes, tol=1e-4,
                           opts=opts, exponents=EXPS,
                           continuity_sizes=[1e-3, 1e-2, 1e-1])
    assert rep.ok, rep.to_json()
    sizes = [r for _, r in rep.continuity_table]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_flow_axiom_check_rejects_an_empty_probe_set():
    field, driver, opts = _mult_setup(201)
    with pytest.raises(ParameterError, match="probe"):
        flow_axiom_check(field, driver, (0.2, 0.5, 0.8), np.empty((0, 1)),
                         opts=opts, exponents=EXPS)


def test_composition_residual_tracks_picard_tol():
    field, driver, _ = _mult_setup(1001, 1.0)
    probes = [[0.9]]
    res = {}
    for tol in (1e-4, 1e-10):
        opts = SolveOptions(picard_tol=tol, oversample=4)
        rep = flow_axiom_check(field, driver, (0.1, 0.5, 0.9), probes, tol=1.0,
                               opts=opts, exponents=EXPS)
        res[tol] = rep.composition_residual
    assert res[1e-10] <= res[1e-4]
    assert res[1e-10] < 1e-10


def test_non_intersection_zero_field():
    field = _zero_field()
    driver = analytic_driver("sine", {}, np.linspace(0.0, 1.0, 301))
    cert = non_intersection_check(field, driver, 0.0, [0.2], [0.9], (0.0, 1.0),
                                  exponents=EXPS)
    assert cert.ok
    assert cert.extra["min_separation"] == pytest.approx(0.7, abs=1e-12)


def test_non_intersection_linear_closed_form():
    field, driver, opts = _mult_setup(2001)
    x0, x0p = 1.0, 1.5
    cert = non_intersection_check(field, driver, 0.0, [x0], [x0p], (0.0, 1.0),
                                  opts=opts, exponents=EXPS)
    assert cert.ok
    # separation of dx = x dw trajectories: |x0-x0'| e^{sin t}
    expected = 0.5 * np.exp(np.min(np.sin(driver.times)))
    assert cert.extra["min_separation"] == pytest.approx(expected, rel=1e-4)


def test_non_intersection_random_probes(rng):
    field, driver, opts = _mult_setup(1001)
    for _ in range(5):
        a, b = rng.uniform(-1.0, 1.0, 2)
        if abs(a - b) < 1e-3:
            b += 0.1
        cert = non_intersection_check(field, driver, 0.0, [a], [b], (0.0, 1.0),
                                      opts=opts, exponents=EXPS)
        assert cert.ok
        assert cert.extra["min_separation"] > 0


def test_non_intersection_reports_a_violated_floor(monkeypatch):
    # log_C = -1 puts the floor at e |x0 - x0'|, above the separation at t0
    from youngflow import flow

    monkeypatch.setattr(flow, "difference_growth_log_constant", lambda *args: -1.0)
    field, driver, opts = _mult_setup(501)
    cert = non_intersection_check(field, driver, 0.0, [1.0], [1.5], (0.0, 1.0),
                                  opts=opts, exponents=EXPS)
    assert cert.extra["min_separation"] > 0.0
    assert not cert.ok
    assert cert.lhs > cert.rhs
    assert cert.lhs == pytest.approx(0.5 * np.e, rel=1e-12)


def test_non_intersection_requires_distinct_points():
    field, driver, opts = _mult_setup(501)
    with pytest.raises(PreconditionError):
        non_intersection_check(field, driver, 0.0, [1.0], [1.0], (0.0, 1.0),
                               opts=opts, exponents=EXPS)


def test_non_intersection_rejects_start_inside_window():
    # the trajectories and the floor both start at window.lo, so another t0
    # would certify a window the caller did not ask about
    field, driver, opts = _mult_setup(501)
    with pytest.raises(ParameterError):
        non_intersection_check(field, driver, 0.5, [0.2], [0.9], (0.0, 1.0),
                               opts=opts, exponents=EXPS)


def test_flow_report_json():
    field = _zero_field()
    driver = analytic_driver("sine", {}, np.linspace(0.0, 1.0, 301))
    rep = flow_axiom_check(field, driver, (0.2, 0.5, 0.8), [[1.0]], tol=1e-9,
                           exponents=EXPS)
    payload = rep.to_json()
    assert payload["ok"] is True
    assert payload["times"] == [0.2, 0.5, 0.8]


_FLOW_LINEAR = SCENARIOS["flow-linear"]
_SYSTEMS = {
    "flow-linear": (_FLOW_LINEAR.make_field(), _FLOW_LINEAR.make_driver(None),
                    _FLOW_LINEAR.exponents()),
    "rotation": (_rotation_field(), _sine_driver(), EXPS),
}
_BATCH_OPTS = SolveOptions(oversample=2)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(
    system=st.sampled_from(sorted(_SYSTEMS)),
    window=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).filter(
        lambda w: abs(w[0] - w[1]) > 0.05),
    size=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_transport_equals_one_state_transports(system, window, size, seed):
    # states over four decades need different Picard iteration counts
    field, driver, exps = _SYSTEMS[system]
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1.0, 1.0, (size, field.dim_d)) * 10.0 ** rng.uniform(-2, 2, (size, 1))
    t1, t2 = window
    moved = cauchy_operator(field, driver, t1, t2, states, opts=_BATCH_OPTS, exponents=exps)
    assert moved.shape == states.shape
    for x, y in zip(states, moved):
        alone = cauchy_operator(field, driver, t1, t2, x, opts=_BATCH_OPTS, exponents=exps)
        assert alone.shape == x.shape
        assert np.array_equal(alone, y)


def test_cauchy_operator_rejects_wrong_state_dimension():
    field, driver, exps = _SYSTEMS["rotation"]
    for states in ([1.0], np.ones((3, 1)), np.ones((2, 3)), np.ones((2, 2, 2))):
        with pytest.raises(ParameterError):
            cauchy_operator(field, driver, 0.2, 0.8, states, exponents=exps)
