import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from youngflow import (
    SCENARIOS,
    ControlFunction,
    SampledPath,
    SolveOptions,
    analytic_driver,
    cauchy_operator,
    flow_axiom_check,
    linear_field,
    non_intersection_check,
    scalar_field,
    select_exponents,
)
from youngflow import cli, solver
from youngflow.errors import DataError, ParameterError, PreconditionError, SolveError
from youngflow.flow import _transport_lanes, lockstep_transport
from youngflow.solver import solve_forward_batch
from test_solver import _two_channel_field
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
_TWO_CHANNEL_TIMES = np.linspace(0.0, 2.0, 1001)
_SYSTEMS = {
    "flow-linear": (_FLOW_LINEAR.make_field(), _FLOW_LINEAR.make_driver(None),
                    _FLOW_LINEAR.exponents()),
    "rotation": (_rotation_field(), _sine_driver(), EXPS),
    "two-channel": (_two_channel_field(), SampledPath(_TWO_CHANNEL_TIMES, 0.4 * np.stack(
        [np.sin(_TWO_CHANNEL_TIMES), np.cos(3.0 * _TWO_CHANNEL_TIMES)], axis=1)), EXPS),
}
_BATCH_OPTS = SolveOptions(oversample=2)


def _states(rng, size, d):
    """size states over four decades, which need different Picard iteration counts."""
    return rng.uniform(-1.0, 1.0, (size, d)) * 10.0 ** rng.uniform(-2, 2, (size, 1))


@settings(max_examples=16, deadline=None, derandomize=True)
@given(
    system=st.sampled_from(["flow-linear", "rotation"]),
    window=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).filter(
        lambda w: abs(w[0] - w[1]) > 0.05),
    size=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_transport_equals_one_state_transports(system, window, size, seed):
    field, driver, exps = _SYSTEMS[system]
    states = _states(np.random.default_rng(seed), size, field.dim_d)
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


@pytest.mark.parametrize("system", sorted(_SYSTEMS))
def test_empty_stack_transports_to_an_empty_stack(system):
    # a (0, d) stack makes no Picard pass: forward, backward and as a lane
    # beside a stack of one state, whose end it leaves as alone
    field, driver, exps = _SYSTEMS[system]
    empty, x = np.empty((0, field.dim_d)), np.full((1, field.dim_d), 0.5)
    for t1, t2 in ((0.2, 0.8), (0.8, 0.2)):
        assert cauchy_operator(field, driver, t1, t2, empty, exponents=exps).shape == empty.shape
    got = lockstep_transport(field, driver, [(empty, (0.2, 0.8)), (x, (0.2, 0.8))], exponents=exps)
    assert got[0].shape == empty.shape
    assert got[1].tobytes() == cauchy_operator(field, driver, 0.2, 0.8, x, exponents=exps).tobytes()


_LANE_OPTS = {"oversample": SolveOptions(oversample=2),
              "tight": SolveOptions(picard_max_iters=6, mu_override=2.0)}


@st.composite
def _lane_plans(draw, min_lanes=1, max_lanes=3):
    """min_lanes to max_lanes lanes, each 1-3 windows of at least 0.05 in
    [0, 2], either way."""
    plans = []
    for _ in range(draw(st.integers(min_lanes, max_lanes))):
        times = [draw(st.floats(0.0, 2.0))]
        for _ in range(draw(st.integers(1, 3))):
            times.append(draw(st.floats(0.0, 2.0).filter(lambda t, s=times[-1]: abs(t - s) > 0.05)))
        plans.append((times, draw(st.integers(1, 3))))
    return plans


@settings(max_examples=40, deadline=None, derandomize=True)
@given(system=st.sampled_from(sorted(_SYSTEMS)), opts=st.sampled_from(sorted(_LANE_OPTS)),
       plans=_lane_plans(), seed=st.integers(0, 2**32 - 1))
def test_lockstep_lanes_equal_their_separate_transports(system, opts, plans, seed):
    # lanes of unequal chunk lengths pad their shorter chunks in a step, and
    # each lane's end stack equals its chain of cauchy_operator calls bit for
    # bit: forward and backward windows, the rotation (d = 2) and the
    # two-channel (m = 2) systems.  The tight budget fails the large states
    # of one lane and makes them shrink while the other lanes go on; states
    # span four decades and the first lane holds a zero state.  Mutation
    # this fails on: padded rows given the real increment
    field, driver, exps = _SYSTEMS[system]
    opts = _LANE_OPTS[opts]
    rng = np.random.default_rng(seed)
    lanes = [(_states(rng, size, field.dim_d), times) for times, size in plans]
    lanes[0][0][0] = 0.0
    want = []
    for x, times in lanes:
        for a, b in zip(times[:-1], times[1:]):
            x = cauchy_operator(field, driver, a, b, x, opts=opts, exponents=exps)
        want.append(x)
    got = lockstep_transport(field, driver, lanes, opts=opts, exponents=exps)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


_STACK_OPTS = {"default": SolveOptions(), "tight": _LANE_OPTS["tight"]}


def _solve_beside(field, driver, t0, x0, T, opts, exps, lanes):
    """A solve from t0 to T with transport lanes beside it in one lockstep
    run: its BatchSolve and the transports' ends."""
    leg = solver._leg(field, driver, t0, T, opts, exps)
    (_, (batch, *ends)), = solver._lockstep([[(x0, [leg]), *lanes]], opts, True)
    return batch, ends


@pytest.mark.parametrize("system", sorted(_SYSTEMS))
@pytest.mark.parametrize("opts", sorted(_STACK_OPTS))
@pytest.mark.parametrize("lanes", [0, 1, 2])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(window=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).filter(
           lambda w: w[1] - w[0] > 0.05),
       size=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_solve_lane_beside_transport_lanes_equals_its_separate_solve_and_transports(
        system, opts, lanes, window, size, data, seed):
    # a solve and 0-2 transport lanes in one Picard stack: the solve's values,
    # iterations, residuals and ball flags are those of its own
    # solve_forward_batch, and the transports' end stacks those of their own
    # lockstep_transport, byte for byte.  Longer transport chunks pad the
    # solve's rows, and under the tight budget members shrink.  Mutation this
    # fails on: a lane's residuals read across the stack's columns
    field, driver, exps = _SYSTEMS[system]
    opts = _STACK_OPTS[opts]
    rng = np.random.default_rng(seed)
    x0 = _states(rng, size, field.dim_d)
    plans = data.draw(_lane_plans(lanes, lanes))
    lanes = [(_states(rng, n, field.dim_d), times) for times, n in plans]
    (t0, T), want = window, lockstep_transport(field, driver, lanes, opts=opts, exponents=exps)
    got, ends = _solve_beside(field, driver, t0, x0, T, opts, exps,
                              _transport_lanes(field, driver, lanes, opts, exps))
    alone = solve_forward_batch(field, driver, t0, x0, T, opts, exps)
    for name in ("times", "values", "iters", "residuals", "ball_ok"):
        assert getattr(got, name).tobytes() == getattr(alone, name).tobytes(), name
    assert [e.tobytes() for e in ends] == [w.tobytes() for w in want]


_MIXED = {name: (SCENARIOS[name].make_field(), SCENARIOS[name].make_driver(0),
                 SCENARIOS[name].exponents())
          for name in ("flow-linear", "bounded-smooth", "time-varying", "zero", "fbm-linear")}


@pytest.mark.parametrize("opts", sorted(_STACK_OPTS))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(names=st.lists(st.sampled_from(sorted(_MIXED)), min_size=2, max_size=4, unique=True),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_runs_of_different_fields_equal_their_own_solves_and_transports(opts, names, data, seed):
    # runs of 2-4 fields, each with its own ball exponent q (fbm-linear's
    # p = 1.5 against the others' 4/3), advance in one lockstep: a solve lane
    # and 0-2 transport lanes each, zero's window one chunk of up to 501 rows
    # (mu = inf) under the default options.  Each run's values, iterations,
    # residuals, ball flags and transport ends are those of its own
    # solve_forward_batch and lockstep_transport, byte for byte.  Mutation
    # this fails on: a column group's f and g read with the first group's
    # field
    opts = _STACK_OPTS[opts]
    rng = np.random.default_rng(seed)
    runs, want = [], []
    for name in names:
        field, driver, exps = _MIXED[name]
        lo, span = driver.times[0], driver.times[-1] - driver.times[0]
        at = lambda u: lo + span * u / 2.0  # _lane_plans' [0, 2] onto the domain
        t0, T = sorted(at(u) for u in data.draw(st.tuples(st.floats(0.0, 2.0), st.floats(
            0.0, 2.0)).filter(lambda w: abs(w[1] - w[0]) > 0.2)))
        x0 = _states(rng, data.draw(st.integers(1, 2)), field.dim_d)
        lanes = [(_states(rng, n, field.dim_d), [at(u) for u in times])
                 for times, n in data.draw(_lane_plans(0, 2))]
        runs.append([(x0, [solver._leg(field, driver, t0, T, opts, exps)]),
                     *_transport_lanes(field, driver, lanes, opts, exps)])
        want.append((solve_forward_batch(field, driver, t0, x0, T, opts, exps),
                     lockstep_transport(field, driver, lanes, opts, exps)))
    got = dict(solver._lockstep(runs, opts, True))
    for r, (alone, ends) in enumerate(want):
        batch, *moved = got[r]
        for name in ("times", "values", "iters", "residuals", "ball_ok"):
            assert getattr(batch, name).tobytes() == getattr(alone, name).tobytes(), (r, name)
        assert [m.tobytes() for m in moved] == [e.tobytes() for e in ends], r


def test_solve_lane_that_fails_the_ball_screen_in_a_padded_step_reports_as_alone(monkeypatch):
    # x' = x dw against sin(5t) on [0.5, 1.5] in one chunk: from x0 = 100 the
    # iterates' 1-variation exceeds the invariant ball's radius, so the DP
    # runs and finds the ball left (ball_ok False), while the member from 0.01
    # stays inside.  A transport over [0, 2], one chunk of 2,001 points, pads
    # the solve's 1,001 rows, so its screen and DP read 2,001 rows; the DP
    # runs for it on the same passes, and the solve reports the flags and
    # residuals of its own solve, and the transport the end of its own
    field = linear_field(0.0, 0.0, 1.0, 0.0)
    driver = analytic_driver("sine", {"freq": 5.0}, np.linspace(0.0, 2.0, 2001))
    opts = SolveOptions(mu_override=float("inf"))
    x0, lane = np.array([[100.0], [0.01]]), (np.array([[0.3]]), (0.0, 2.0))
    real_variation, calls = solver._variation, []

    def variation(flat, q):
        calls.append((len(flat), flat[0, 0]))
        return real_variation(flat, q)

    monkeypatch.setattr(solver, "_variation", variation)
    alone = solve_forward_batch(field, driver, 0.5, x0, 1.5, opts, EXPS)
    alone_calls = calls[:]
    calls.clear()
    got, ends = _solve_beside(field, driver, 0.5, x0, 1.5, opts, EXPS,
                              _transport_lanes(field, driver, [lane], opts, EXPS))
    assert alone_calls and set(alone_calls) == {(1001, 100.0)}
    assert [c for c in calls if c[1] == 100.0] == [(2001, 100.0)] * len(alone_calls)
    assert alone.ball_ok.tolist() == [False, True]
    for name in ("values", "iters", "residuals", "ball_ok"):
        assert getattr(got, name).tobytes() == getattr(alone, name).tobytes(), name
    want = lockstep_transport(field, driver, [lane], opts=opts, exponents=EXPS)
    assert ends[0].tobytes() == want[0].tobytes()


def test_failing_transport_lane_ends_the_transports_and_leaves_the_solve_as_alone():
    # the transport lanes run past the short solve; the first fails in its
    # first chunk (its driver, and so its dw, grown by 1e6, so no slice
    # contracts): every transport ends in that step, the solve goes on to its
    # end as alone, and the failed lane's end is the SolveError its own
    # lockstep raises, so the lockstep stops once the solve is done
    field, driver, exps = _SYSTEMS["flow-linear"]
    x0, x = np.array([[1.0]]), np.array([[0.5]])
    lanes = _transport_lanes(field, driver, [(x, (0.2, 1.9)), (x, (0.1, 1.8))], None, exps)
    grown = SampledPath(driver.times, driver.values * 1e6)
    lanes[0][1][0] = lanes[0][1][0]._replace(driver=grown)
    with pytest.raises(SolveError) as alone:
        list(solver._lockstep([lanes[:1]], None))
    steps = []
    real_slice = solver._picard_slice

    def picard_slice(sums, n, x0, *args):
        steps.append(len(x0))
        return real_slice(sums, n, x0, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_picard_slice", picard_slice)
        got, ends = _solve_beside(field, driver, 0.0, x0, 0.3, None, exps, lanes)
    want = solve_forward_batch(field, driver, 0.0, x0, 0.3, None, exps)
    for name in ("values", "iters", "residuals", "ball_ok"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert isinstance(ends[0], SolveError) and str(ends[0]) == str(alone.value)
    # three members in the first step, then one-member slices: the failed
    # member's shrinks and the solve alone to its last chunk
    assert steps[0] == 3 and set(steps[1:]) == {1}


def test_lockstep_lane_with_an_overflowing_f_raises_the_transports_data_error():
    # f = exp(x) overflows from 800: that lane's own transport raises
    # DataError, and so does the lockstep run beside a lane that is fine
    field = scalar_field(
        f=lambda t, x: np.exp(x), g=lambda t, x: np.zeros_like(x),
        g_x=lambda t, x: np.zeros_like(x), L_g=0.0, M_N=0.0, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=0.0, a=0.0, name="exp",
    )
    driver = analytic_driver("sine", {}, np.linspace(0.0, 1.0, 201))
    with pytest.raises(DataError, match="non-finite") as alone:
        cauchy_operator(field, driver, 0.0, 1.0, [800.0], exponents=EXPS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite") as together:
            lockstep_transport(field, driver, [(np.array([[0.1]]), (0.0, 0.4, 1.0)),
                                               (np.array([[800.0]]), (0.0, 1.0))], exponents=EXPS)
    assert str(together.value) == str(alone.value)


@pytest.mark.parametrize("system", ["flow-linear", "rotation"])
def test_flow_axiom_check_is_byte_equal_to_its_chain_of_transports(system):
    # X(s,t) with the continuity table's perturbed states and the chain
    # X(s,u) -> X(u,t) run as two lockstep lanes; every residual and table
    # entry equals the one made from separate cauchy_operator calls
    field, driver, exps = _SYSTEMS[system]
    opts = _FLOW_LINEAR.opts
    s, u, t = 0.3, 1.1, 1.7
    P = np.random.default_rng(5).uniform(-1.5, 1.5, (4, field.dim_d))
    sizes = [1e-3, 1e-2, 1e-1]
    rep = flow_axiom_check(field, driver, (s, u, t), P, opts=opts, exponents=exps,
                           continuity_sizes=sizes)
    X = lambda a, b, x: cauchy_operator(field, driver, a, b, x, opts=opts, exponents=exps)
    norms = lambda diff: np.array([np.linalg.norm(row) for row in diff])
    x_st = X(s, t, P)
    e1 = np.eye(1, field.dim_d)[0]
    moved = X(s, t, np.stack([P[0] + eps * e1 for eps in sizes]))
    assert rep.inversion_residuals.tobytes() == norms(X(t, s, x_st) - P).tobytes()
    assert rep.composition_residuals.tobytes() == norms(X(u, t, X(s, u, P)) - x_st).tobytes()
    assert rep.continuity_table == list(zip(sizes, norms(moved - x_st[0]).tolist()))


def test_verify_composition_residual_is_byte_equal_to_its_chain_of_transports(tmp_path):
    scenario = SCENARIOS["flow-linear"]
    assert cli.run_config({"scenario": "flow-linear", "seeds": [0]}, tmp_path)
    header, row = (tmp_path / "summary.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    field, driver, exps = scenario.make_field(), scenario.make_driver(0), scenario.exponents()
    X = lambda a, b, x: cauchy_operator(field, driver, a, b, x, opts=scenario.opts, exponents=exps)
    s, u, t = scenario.flow_triple
    x = np.atleast_1d(scenario.x0)
    want = float(np.linalg.norm(X(u, t, X(s, u, x)) - X(s, t, x)))
    assert np.float64(float(row["flow_composition_residual"])).tobytes() == np.float64(want).tobytes()
