import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from youngflow import (
    DETERMINISTIC_BUNDLE,
    CoefficientField,
    ControlFunction,
    GronwallData,
    GronwallInput,
    SampledPath,
    SolveOptions,
    analytic_driver,
    apply_F,
    apply_F_certificate,
    build_gronwall_input,
    euler_solve,
    gronwall_certificate,
    growth_certificate,
    linear_field,
    path_to_csv,
    run_scenario,
    scalar_field,
    select_exponents,
    solve_backward,
    solve_forward,
    time_varying_field,
)
from test_vector_systems import _rotation_field, _sine_driver
from youngflow.errors import DataError, ParameterError, ShapeError, SolveError
from youngflow.paths import _variation, thin_indices
from youngflow.scenarios import SCENARIOS
from youngflow.flow import cauchy_operator
from youngflow.solver import (
    _anchor_integrals,
    _chunk_boundaries,
    _grid_data,
    _picard_slice,
    _solution_map,
    _start_norms,
    reversed_problem,
    solve_forward_batch,
)
from youngflow.young import _RULES, _pair_terms, _running_sum


def _sine(n=2001, t1=2.0, amp=1.0, freq=1.0):
    return analytic_driver("sine", {"amp": amp, "freq": freq}, np.linspace(0.0, t1, n))


def _mult_field():
    return linear_field(0.0, 0.0, 1.0, 0.0, name="mult")


EXPS = select_exponents(4.0 / 3.0, 0.75, 0.75, 1.0)


def _slice(field, ts, ws, x0, opts, q, diagnostics=True):
    """_picard_slice for the stack x0 on the map of the grid ts and the driver ws there."""
    sums = _solution_map(field, *_grid_data(field, ts, ws, len(x0)))(0, len(ts) - 1)
    return _picard_slice(sums, len(ts), x0, opts, q, diagnostics)


def test_apply_f_zero_field_constant():
    field = linear_field(0.0, 0.0, 0.0, 0.0)
    drv = _sine(301, 1.0)
    x = SampledPath(np.linspace(0, 1, 301), np.full(301, 0.7))
    fa = apply_F(field, drv, x)
    assert np.all(fa.path.values == 0.7)
    assert np.all(fa.drift_part.values == 0.0)
    assert np.all(fa.young_part.values == 0.0)


def test_apply_f_unit_drift():
    field = linear_field(0.0, 1.0, 0.0, 0.0)  # f == 1
    drv = _sine(301, 1.0)
    ts = np.linspace(0, 1, 301)
    x = SampledPath(ts, np.full(301, 0.25))
    fa = apply_F(field, drv, x)
    np.testing.assert_allclose(fa.path.values[:, 0], 0.25 + ts, atol=1e-13)


def test_apply_f_certificate_random(rng):
    field = linear_field()
    drv = _sine(501, 1.0)
    for _ in range(5):
        ts = np.linspace(0, 1, 301)
        x = SampledPath(ts, 0.4 * np.cumsum(rng.standard_normal(301)) * 0.05 + 0.3)
        cert = apply_F_certificate(field, drv, x, EXPS)
        assert cert.ok, (cert.lhs, cert.rhs)


def test_solve_zero_field_one_iteration():
    field = linear_field(0.0, 0.0, 0.0, 0.0)
    rep = solve_forward(field, _sine(), 0.0, [0.7], 2.0, exponents=EXPS)
    assert np.all(rep.solution.values == 0.7)
    assert rep.max_residual == 0.0
    assert rep.max_iters <= 2
    assert rep.ball_ok


def test_drift_closed_form():
    field = linear_field(-1.0, 0.0, 0.0, 0.0)
    rep = solve_forward(field, _sine(4001), 0.0, [1.0], 2.0, exponents=EXPS)
    target = np.exp(-rep.solution.times)
    assert np.max(np.abs(rep.solution.values[:, 0] - target)) < 1e-6


def test_short_interval_matches_exponential():
    # dx = x dw on a short window with a smooth driver: x = x0 exp(w_t - w_0),
    # solved as one chunk (an unbounded greedy budget)
    field = _mult_field()
    drv = _sine(4001, 0.5)
    opts = SolveOptions(oversample=80, mu_override=math.inf)
    rep = solve_forward(field, drv, 0.0, [1.0], 0.5, opts, EXPS, certify=False)
    assert len(rep.iters_per_interval) == 1
    target = np.exp(np.sin(rep.solution.times))
    assert np.max(np.abs(rep.solution.values[:, 0] - target)) < 1e-6
    assert rep.max_residual < 1e-10


def test_shrinking_to_a_two_point_slice_that_never_converges_raises_solve_error():
    # the trapezoid step is implicit: on a two-point slice with |g_x dw| ~ 0.25
    # Picard contracts by about 0.125 per iteration, so 3 iterations cannot
    # reach the tolerance and shrinking the one chunk stops at the first grid step
    field = _mult_field()
    drv = analytic_driver("sine", {"amp": 50.0}, np.linspace(0.0, 1.0, 201))
    opts = SolveOptions(picard_max_iters=3, mu_override=math.inf)
    with pytest.raises(SolveError) as err:
        solve_forward(field, drv, 0.0, [1.0], 1.0, opts, EXPS, certify=False)
    assert err.value.window == (0.0, 0.005)


def test_solution_map_is_second_order_in_the_step():
    # along the driver's piecewise-linear interpolant dx = x dw is solved by
    # x0 exp(w_t - w_0) exactly, so the error is the quadrature's alone, and
    # halving the step quarters it
    field = _mult_field()
    drv = analytic_driver("sine", {"amp": 1.0}, np.linspace(0.0, 2.0, 201))
    errors = []
    for k in (1, 2, 4):
        sol = solve_forward(field, drv, 0.0, [1.0], 2.0, opts=SolveOptions(oversample=k),
                            exponents=EXPS, certify=False).solution
        exact = np.exp(drv.at(sol.times)[:, 0] - drv.values[0, 0])
        errors.append(np.max(np.abs(sol.values[:, 0] - exact)))
    assert errors[0] / errors[1] >= 3.5 and errors[1] / errors[2] >= 3.5, errors


def test_picard_slice_reports_non_convergence_in_failed():
    # one iteration cannot reach the tolerance: the slice comes back with its
    # only member marked failed and no residual evaluated
    field = linear_field()
    drv = _sine(201, 1.0)
    ts = drv.times
    out = _slice(field, ts, drv.at(ts), np.array([[1.0]]), SolveOptions(picard_max_iters=1),
                 EXPS.q)
    assert out.failed.tolist() == [True]
    assert out.iters == 0
    assert out.residuals.tolist() == [0.0]


@pytest.mark.parametrize("q", [0.5, float("nan")])
def test_picard_slice_rejects_a_ball_norm_below_one(q):
    drv = _sine(21, 1.0)
    with pytest.raises(ParameterError, match="the ball norm needs q >= 1"):
        _slice(linear_field(), drv.times, drv.values, np.array([[1.0]]), SolveOptions(), q)


def test_concatenation_consistency(scenario_run):
    run = scenario_run("time-varying")
    rep = run.report
    ts = rep.solution.times
    mid_idx = np.searchsorted(ts, 0.5 * (rep.t0 + rep.T))
    t_mid = float(run.driver.times[np.searchsorted(run.driver.times, ts[mid_idx])])
    first = solve_forward(run.field, run.driver, rep.t0, [run.scenario.x0], t_mid,
                          opts=run.scenario.opts, exponents=run.exponents, certify=False)
    second = solve_forward(run.field, run.driver, t_mid, first.solution.values[-1], rep.T,
                           opts=run.scenario.opts, exponents=run.exponents, certify=False)
    # compare on the shared grid points
    joined_times = np.concatenate([first.solution.times, second.solution.times[1:]])
    joined_vals = np.concatenate([first.solution.values, second.solution.values[1:]])
    ref = rep.solution.at(joined_times)
    assert np.max(np.abs(joined_vals - ref)) <= 2e-10


@pytest.mark.parametrize(
    "name, seed",
    [(name, None) for name in DETERMINISTIC_BUNDLE] + [("fbm-linear", 0), ("fbm-linear", 1)],
)
def test_picard_chunks_are_the_greedy_intervals(name, seed):
    rep = run_scenario(name, seed=seed, certify=False).report
    assert len(rep.iters_per_interval) == rep.greedy.n_intervals


def test_euler_agreement_improves_with_refinement():
    field = _mult_field()
    errs = []
    for n in (251, 501, 1001, 2001):
        grid = np.linspace(0.0, 2.0, n)
        drv = _sine(n)
        eul = euler_solve(field, drv, 0.0, [1.0], 2.0, grid)
        target = np.exp(np.sin(grid))
        errs.append(np.max(np.abs(eul.values[:, 0] - target)))
    assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("grid", [[0.1, 1.0, 2.0], [0.0, 1.0, 1.5], [0.0, 1.2, 1.2, 2.0],
                                  [0.0, 1.5, 1.0, 2.0]])
def test_euler_rejects_a_grid_that_does_not_increase_from_t0_to_T(grid):
    with pytest.raises(ParameterError, match="grid must increase from t0 to T"):
        euler_solve(_mult_field(), _sine(), 0.0, [1.0], 2.0, grid)


def test_euler_vs_picard_agreement(scenario_run):
    run = scenario_run("flow-linear")
    grid = run.driver.times
    eul = euler_solve(run.field, run.driver, run.report.t0, [run.scenario.x0],
                      run.report.T, grid)
    sol = run.report.solution.at(grid)
    gap_coarse = np.max(np.abs(eul.values - sol))
    # refine the Euler grid: gap to the converged solution shrinks
    fine = np.linspace(run.report.t0, run.report.T, 4 * (len(grid) - 1) + 1)
    eul_f = euler_solve(run.field, run.driver, run.report.t0, [run.scenario.x0],
                        run.report.T, fine)
    gap_fine = np.max(np.abs(eul_f.values - run.report.solution.at(fine)))
    assert gap_fine < gap_coarse


def test_backward_zero_field_constant():
    field = linear_field(0.0, 0.0, 0.0, 0.0)
    rep = solve_backward(field, _sine(), 2.0, [0.3], 0.0, exponents=EXPS)
    assert np.all(rep.solution.values == 0.3)
    assert rep.direction == "backward"
    assert rep.solution.times[0] == 0.0 and rep.solution.times[-1] == 2.0


def test_backward_linear_closed_form():
    # terminal condition propagated backwards for dx = x dw, w = sin t
    field = _mult_field()
    drv = _sine(4001, 1.0)
    xT = float(np.exp(np.sin(1.0)))
    rep = solve_backward(field, drv, 1.0, [xT], 0.0,
                         opts=SolveOptions(oversample=40), exponents=EXPS)
    target = np.exp(np.sin(rep.solution.times))
    assert np.max(np.abs(rep.solution.values[:, 0] - target)) < 1e-5


def test_backward_output_grid_is_reflected():
    # an extra output time keeps its place on the original clock
    field = _mult_field()
    drv = _sine(201, 1.0)  # samples every 0.005: neither 0.3001 nor 0.6999
    rep = solve_backward(field, drv, 1.0, [1.0], 0.0, opts=SolveOptions(grid=[0.3001]),
                         exponents=EXPS, certify=False)
    assert np.min(np.abs(rep.solution.times - 0.3001)) < 1e-12
    assert np.min(np.abs(rep.solution.times - 0.6999)) > 1e-6


def test_round_trip_small():
    field = linear_field(-0.4, 0.05, 0.3, 0.0)
    drv = _sine(2001, 1.0, amp=0.5)
    opts = SolveOptions(oversample=30)
    fwd = solve_forward(field, drv, 0.0, [0.9], 1.0, opts=opts, exponents=EXPS,
                        certify=False)
    back = solve_backward(field, drv, 1.0, fwd.solution.values[-1], 0.0, opts=opts,
                          exponents=EXPS, certify=False)
    assert abs(back.solution.values[0, 0] - 0.9) < 1e-6


def test_shrink_loop_recovers_from_oversized_chunks():
    # an oversized budget breaks per-chunk contraction; shrinking restores it
    field = _mult_field()
    drv = _sine(2001, 2.0)
    opts = SolveOptions(mu_override=3.0, oversample=2)
    rep = solve_forward(field, drv, 0.0, [1.0], 2.0, opts=opts, exponents=EXPS,
                        certify=False)
    target = np.exp(np.sin(rep.solution.times))
    # accuracy here is limited by the coarse quadrature, not the shrinking
    assert np.max(np.abs(rep.solution.values[:, 0] - target)) < 1e-3
    assert rep.max_residual <= opts.picard_tol


def test_invariant_ball_failure_is_reported():
    # with mu* the iterates stay in the ball ||x||_q <= 2|x0| + 1; an oversized
    # budget on a stronger driver lets one leave it, past the sum-of-steps screen
    field, drv = _mult_field(), _sine(2001, 2.0, amp=2.0)

    def ball_ok(opts):
        rep = solve_forward(field, drv, 0.0, [1.0], 2.0, opts=opts, exponents=EXPS,
                            certify=False)
        return rep.ball_ok

    assert ball_ok(SolveOptions(oversample=2))
    assert not ball_ok(SolveOptions(mu_override=3.0, oversample=2))


def test_batch_members_shrink_on_their_own():
    # on a tight budget the large state fails on the first chunk and is re-solved
    # on its halves, while the small one converges there; each member keeps
    # the values, counts, residuals and ball flag of its one-state solve
    field, drv = _mult_field(), _sine(501, 1.0)
    opts = SolveOptions(picard_max_iters=8, mu_override=0.3)
    x0 = np.array([[1e-3], [1e3]])
    batch = solve_forward_batch(field, drv, 0.0, x0, 1.0, opts, EXPS)
    ends = _chunk_boundaries(batch.times, batch.greedy.times)
    ts = batch.times[: ends[1] + 1]
    first = _slice(field, ts, drv.at(ts), x0, opts, EXPS.q)
    assert first.failed.tolist() == [False, True]
    for b, x in enumerate(x0):
        single = solve_forward(field, drv, 0.0, x, 1.0, opts=opts, exponents=EXPS,
                               certify=False)
        assert np.array_equal(batch.values[:, b], single.solution.values)
        assert batch.iters[:, b].tolist() == single.iters_per_interval
        assert batch.residuals[:, b].tolist() == single.fixed_point_residuals
        assert bool(batch.ball_ok[b]) == single.ball_ok
    assert batch.iters[0, 1] > batch.iters[0, 0]


def test_batch_members_keep_their_own_ball_flags():
    # on an oversized budget the iterates from 1.0 and -0.3 leave their balls on
    # the first chunk while those from 0.2, 1e-3 and 0.0 stay inside: one stack
    # screen sets each flag as the member's one-state solve does
    field, drv = _mult_field(), _sine(2001, 2.0, amp=2.0)
    opts = SolveOptions(mu_override=3.0, oversample=2)
    x0 = np.array([[0.2], [1.0], [1e-3], [-0.3], [0.0]])
    flags = [True, False, True, False, True]
    batch = solve_forward_batch(field, drv, 0.0, x0, 2.0, opts, EXPS)
    ends = _chunk_boundaries(batch.times, batch.greedy.times)
    ts = batch.times[: ends[1] + 1]
    assert _slice(field, ts, drv.at(ts), x0, opts, EXPS.q).ball_ok.tolist() == flags
    for b, x in enumerate(x0):
        single = solve_forward(field, drv, 0.0, x, 2.0, opts=opts, exponents=EXPS,
                               certify=False)
        assert np.array_equal(batch.values[:, b], single.solution.values)
        assert batch.iters[:, b].tolist() == single.iters_per_interval
        assert batch.residuals[:, b].tolist() == single.fixed_point_residuals
        assert bool(batch.ball_ok[b]) == single.ball_ok
    assert batch.ball_ok.tolist() == flags


def test_batch_member_with_non_finite_iterate_raises_data_error():
    # the drift is +inf above 5, so the first iterate from 10 is infinite while
    # the member from 0.1 stays finite; no overflow warning is involved
    zero = lambda t, x: np.zeros_like(x)
    field = scalar_field(
        f=lambda t, x: np.where(x > 5.0, np.inf, 0.0), g=zero, g_x=zero,
        L_g=0.0, M_N=0.0, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=0.0, a=0.0, name="blow-up",
    )
    drv = _sine(201, 1.0)
    solve_forward(field, drv, 0.0, [0.1], 1.0, exponents=EXPS, certify=False)
    with pytest.raises(DataError, match="non-finite"):
        solve_forward_batch(field, drv, 0.0, np.array([[0.1], [10.0]]), 1.0, None, EXPS)


def test_batch_member_that_never_converges_names_its_window():
    # dx = x^2 dt: from 1e5 the trapezoid step has no fixed point on any grid
    # step, so shrinking ends at a two-point slice; the small member converges
    zero = lambda t, x: np.zeros_like(x)
    field = scalar_field(
        f=lambda t, x: x * x, g=zero, g_x=zero,
        L_g=0.0, M_N=0.0, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=0.0, a=0.0, name="square",
    )
    drv = _sine(201, 1.0)
    with pytest.raises(SolveError) as single:
        solve_forward(field, drv, 0.0, [1e5], 1.0, exponents=EXPS, certify=False)
    solve_forward(field, drv, 0.0, [0.1], 1.0, exponents=EXPS, certify=False)
    with pytest.raises(SolveError) as batch:
        solve_forward_batch(field, drv, 0.0, np.array([[0.1], [1e5]]), 1.0, None, EXPS)
    assert batch.value.window == single.value.window
    lo, hi = batch.value.window
    assert 0.0 <= lo < hi <= 1.0
    assert f"[{lo}, {hi}]" in str(batch.value)


def test_fixed_point_residuals_within_tol(scenario_run):
    for name in ("zero", "time-varying", "flow-linear"):
        rep = scenario_run(name).report
        assert all(r <= 1e-10 for r in rep.fixed_point_residuals)
        assert rep.ball_ok


def test_gronwall_anchor_integrals_blockwise_equal_one_cumsum():
    rng = np.random.default_rng(11)
    n = 60
    ts = np.cumsum(rng.uniform(0.01, 0.1, n))
    y = SampledPath(ts, np.cumsum(rng.standard_normal((n, 2)), axis=0))
    w_times = np.linspace(ts[0], ts[-1], 45)
    w = SampledPath(w_times, np.cumsum(rng.standard_normal((45, 3)), axis=0))
    anchor_idx = np.unique(np.concatenate([thin_indices(n, 10), [6, 7, 8, 14, 15, 57]]))
    cum_du, cum_dw = _anchor_integrals(y, w, anchor_idx)
    du = _running_sum(_RULES["midpoint"](y.values) * np.diff(ts)[:, None])[anchor_idx]
    dwy = np.diff(w.at(ts), axis=0)
    dw = _running_sum(_RULES["midpoint"](y.values)[:, :, None] * dwy[:, None, :])[anchor_idx]
    assert cum_du.shape == du.shape and cum_du.tobytes() == du.tobytes()
    assert cum_dw.shape == dw.shape and cum_dw.tobytes() == dw.tobytes()


def test_gronwall_certificate_trivial_constant():
    ts = np.linspace(0.0, 1.0, 101)
    y = SampledPath(ts, np.full(101, 0.6))
    drv = _sine(101, 1.0)
    gin = GronwallInput(y=y, A=ControlFunction.zero(), a1=0.0, a2=0.0)
    cert = gronwall_certificate(gin, drv, 1.5, 1.8)
    assert cert.ok
    assert cert.extra["greedy_count"] == 0


def test_gronwall_certificate_reports_violation():
    # a jump that no zero-control hypothesis can explain
    ts = np.linspace(0.0, 1.0, 101)
    vals = np.zeros(101)
    vals[50:] = 1.0
    y = SampledPath(ts, vals)
    drv = _sine(101, 1.0)
    gin = GronwallInput(y=y, A=ControlFunction.zero(), a1=0.0, a2=0.0)
    cert = gronwall_certificate(gin, drv, 1.5, 1.8)
    assert not cert.ok
    assert not cert.extra["hypothesis_ok"]
    assert cert.extra["hypothesis_pair"] is not None
    # the conclusion is not claimed under a failed hypothesis
    assert cert.extra["conclusion_ok"] is True
    assert cert.extra["log_margin"] == 0.0


def test_gronwall_induction_fails_where_the_path_more_than_doubles():
    # a constant driver's greedy steps at c = 1 are 0.5 long: y grows from 1
    # to 10 over the first and fails the doubling recursion; growth to 1.9 passes
    ts = np.linspace(0.0, 1.0, 101)
    drv = analytic_driver("linear", {"slope": 0.0}, ts)
    for top, doubles in ((10.0, True), (1.9, False)):
        y = SampledPath(ts, np.minimum(1.0 + 2.0 * (top - 1.0) * ts, top))
        gin = GronwallInput(y=y, A=ControlFunction.zero(), a1=1.0, a2=0.0)
        cert = gronwall_certificate(gin, drv, 1.5, 1.8)
        assert cert.extra["greedy_count"] == 2
        assert cert.extra["induction_ok"] is not doubles


def test_gronwall_variation_variant(scenario_run):
    # the pointwise hypothesis implies the q-variation form with
    # coefficient c = max(a1, a2 (K+1)); the variation-form conclusion holds
    from youngflow.young import YoungConstants

    run = scenario_run("time-varying")
    gin = build_gronwall_input(run.field, run.report, run.driver)
    K = YoungConstants(run.exponents.p, run.exponents.q).K
    gin_var = GronwallInput(y=gin.y, A=gin.A, a1=gin.c(K), a2=0.0)
    cert = gronwall_certificate(gin_var, run.driver, run.exponents.p,
                                run.exponents.q, variant="variation")
    assert cert.ok, cert.extra
    assert cert.extra["variant"] == "variation"
    assert cert.extra["hypothesis_ok"]


def test_gronwall_rejects_an_unknown_variant(scenario_run):
    run = scenario_run("time-varying")
    gin = build_gronwall_input(run.field, run.report, run.driver)
    with pytest.raises(ParameterError, match="unknown gronwall variant 'sup'"):
        gronwall_certificate(gin, run.driver, run.exponents.p, run.exponents.q, variant="sup")


def test_solution_dominated_by_budget_controls(scenario_run):
    # |x_t - x_s| <= c* (1 + ||x||) ((t-s)^alpha + |||w|||_{p,[s,t]}) turns
    # into domination by the controls (t-s)^{q alpha} and |||w|||^q
    from youngflow import dominated_variation_bound, p_variation, p_variation_norm

    run = scenario_run("flow-linear")
    rep = run.report
    exps = run.exponents
    idx = np.linspace(0, len(rep.solution.times) - 1, 160).astype(int)
    coarse = SampledPath(rep.solution.times[idx], rep.solution.values[idx])
    c_star = rep.constants.M * (exps.K0 + 2.0)
    coef = c_star * (1.0 + p_variation_norm(coarse, exps.q))
    driver_pow_q = ControlFunction(
        lambda s, t: p_variation(run.driver, exps.p, (s, t)) ** exps.q if t - s > 1e-12 else 0.0,
        "driver-pvar^q",
    )
    controls = [
        (coef, ControlFunction.power(exps.q * exps.alpha)),
        (coef, driver_pow_q),
    ]
    assert dominated_variation_bound(coarse, exps.q, controls, max_anchors=12)


def test_gronwall_certificate_solver_outputs(scenario_run):
    for name in ("linear-sine", "time-varying", "bounded-smooth"):
        run = scenario_run(name)
        cert = run.report.certificate("gronwall")
        assert cert is not None and cert.ok, (name, cert.extra if cert else None)
        assert cert.extra["hypothesis_ok"]
        assert cert.extra["induction_ok"]
        assert cert.extra["supnorm_ok"]


def test_growth_certificate_zero_field():
    field = linear_field(0.0, 0.0, 0.0, 0.0)
    rep = solve_forward(field, _sine(301, 1.0), 0.0, [0.7], 1.0, exponents=EXPS)
    cert = rep.certificate("growth")
    assert cert.ok
    assert cert.lhs == pytest.approx(0.7, abs=1e-12)


def test_growth_certificate_reports_violation():
    # a solution scaled far past the bound's right-hand side, about e^270 here
    rep = solve_forward(_mult_field(), _sine(301, 1.0), 0.0, [0.7], 1.0, exponents=EXPS)
    scaled = SampledPath(rep.solution.times, 1e150 * rep.solution.values)
    cert = growth_certificate(replace(rep, solution=scaled), _mult_field(), _sine(301, 1.0))
    assert not cert.ok
    assert cert.lhs > cert.rhs
    assert cert.extra["log_margin"] < 0.0
    assert rep.certificate("growth").ok


def test_certificates_read_the_computed_path(scenario_run):
    # growth and the sewing check read the solution as computed and the
    # driver on its own samples, not paths thinned to a few hundred points
    from youngflow import composed_path, p_variation

    run = scenario_run("fbm-linear", 0)
    rep, exps = run.report, run.exponents
    sol, window = rep.solution, (rep.t0, rep.T)
    growth = rep.certificate("growth")
    x0n = float(np.linalg.norm(rep.x0))
    assert growth.extra["rows"][-1]["lhs"] == x0n + p_variation(sol, exps.q)
    bound = (exps.young0.K * p_variation(composed_path(run.field, sol), exps.q0)
             * p_variation(run.driver, exps.p, window))
    assert rep.certificate("young_loeve").extra["bound"] == bound


def test_closed_form_error_needs_a_closed_form(scenario_run):
    from youngflow.errors import ParameterError
    from youngflow.scenarios import closed_form_error

    with pytest.raises(ParameterError, match="no closed form"):
        closed_form_error(scenario_run("fbm-linear", 0))


def test_growth_certificate_monotone_rows(scenario_run):
    run = scenario_run("flow-linear")
    cert = run.report.certificate("growth")
    assert cert.ok
    assert cert.extra["monotone_in_window"]


def test_continuity_in_initial_condition(scenario_run):
    # |X(t0,t,w,x0') - X(t0,t,w,x0)| <= C |x0-x0'| with C from the
    # difference self-bound machinery
    from youngflow.flow import difference_growth_log_constant
    from youngflow.paths import p_variation_norm

    run = scenario_run("flow-linear")
    base = run.report.solution
    perturbs = [1e-3, 1e-2, 1e-1]
    idx = np.linspace(0, len(base.times) - 1, 200).astype(int)
    n0 = p_variation_norm(SampledPath(base.times[idx], base.values[idx]), run.exponents.q)
    responses = []
    for eps in perturbs:
        rep = solve_forward(run.field, run.driver, run.report.t0,
                            [run.scenario.x0 + eps], run.report.T,
                            opts=run.scenario.opts, exponents=run.exponents,
                            certify=False)
        gap = float(np.max(np.abs(rep.solution.values - base.values)))
        responses.append(gap)
        log_C = difference_growth_log_constant(
            run.field, run.driver, run.exponents,
            (run.report.t0, run.report.T), max(n0, 1.0) + eps)
        assert np.log(gap) <= np.log(eps) + log_C
    assert all(b >= a for a, b in zip(responses, responses[1:]))


def test_continuity_in_driver(scenario_run):
    run = scenario_run("flow-linear")
    base = run.report.solution
    ts = run.driver.times
    from youngflow.paths import difference_pvar_norm

    for eps in (1e-3, 1e-2):
        bumped = SampledPath(ts, run.driver.values + eps * np.sin(3 * ts)[:, None])
        rep = solve_forward(run.field, bumped, run.report.t0, [run.scenario.x0],
                            run.report.T, opts=run.scenario.opts,
                            exponents=run.exponents, certify=False)
        gap = float(np.max(np.abs(rep.solution.values - base.values)))
        drv_gap = difference_pvar_norm(run.driver, bumped, run.exponents.p,
                                       (run.report.t0, run.report.T))
        # response is controlled by the driver perturbation size
        assert gap <= 10.0 * drv_gap


def test_report_json_serialisable(scenario_run):
    import json

    rep = scenario_run("time-varying").report
    payload = json.dumps(rep.to_json())
    assert "gronwall" in payload and "growth" in payload


def test_solve_window_outside_domain():
    from youngflow.errors import DomainError

    field = linear_field()
    drv = _sine(201, 1.0)
    with pytest.raises(DomainError):
        solve_forward(field, drv, 0.0, [1.0], 2.0, exponents=EXPS)
    with pytest.raises(DomainError):
        solve_backward(field, drv, 0.5, [1.0], 0.5, exponents=EXPS)
    with pytest.raises(DomainError):
        reversed_problem(field, drv, 0.5, 0.5)
    # a reversed window is no forward solve (transports reverse the clock)
    with pytest.raises(DomainError):
        solve_forward(field, drv, 1.0, [1.0], 0.5, exponents=EXPS)
    with pytest.raises(DomainError):
        solve_forward_batch(field, drv, 1.0, np.ones((2, 1)), 0.5, exponents=EXPS)


def _count_spans(monkeypatch):
    """The lengths of the slices _solve_span is called on, one a call."""
    from youngflow import solver

    real_span, spans = solver._solve_span, []
    monkeypatch.setattr(solver, "_solve_span",
                        lambda f, ts, *a, **k: spans.append(len(ts)) or real_span(f, ts, *a, **k))
    return spans


@pytest.mark.parametrize("name", ["bounded-smooth", "flow-linear", "time-varying"])
@pytest.mark.parametrize("max_iters, mu", [(6, 2.0), (4, 5.0)])
def test_shrinking_solve_is_a_fixed_point_of_the_window_map(name, max_iters, mu, monkeypatch):
    # a tight budget makes chunks fail and shrink; the solution must still be
    # a fixed point of F over the whole window, which apply_F builds on its
    # own from the full grid, so the test does not share the shrink path's
    # member arrays.  Mutations this fails on: the right half reading the
    # span's first rows, or its coefficients from row 0
    sc = SCENARIOS[name]
    field, driver, exps = sc.make_field(), sc.make_driver(0), sc.exponents()
    opts = replace(sc.opts, picard_max_iters=max_iters, mu_override=mu)
    spans, chunks = _count_spans(monkeypatch), 0
    for x0 in (np.atleast_1d(sc.x0), np.full(field.dim_d, 8.0)):
        rep = solve_forward(field, driver, sc.t0, x0, sc.T, opts, exps, certify=False)
        chunks += len(rep.iters_per_interval)
        fx = apply_F(field, driver, rep.solution).path
        assert np.max(np.abs(fx.values - rep.solution.values)) <= 1e-12
    assert len(spans) > chunks  # a chunk shrinks


def test_shrinking_backward_solve_is_a_fixed_point_of_the_reversed_window_map(monkeypatch):
    # the backward solve is the forward one of reversed_problem, whose map
    # apply_F builds on the reflected grid
    sc = SCENARIOS["flow-linear"]
    field, driver, exps = sc.make_field(), sc.make_driver(0), sc.exponents()
    opts = replace(sc.opts, picard_max_iters=6, mu_override=2.0)
    spans = _count_spans(monkeypatch)
    back = solve_backward(field, driver, sc.T, [8.0], sc.t0, opts, exps, certify=False)
    assert len(spans) > len(back.iters_per_interval)  # a chunk shrinks
    rev_field, rev_driver, _ = reversed_problem(field, driver, sc.t0, sc.T, opts)
    path = SampledPath((sc.t0 + sc.T) - back.solution.times[::-1], back.solution.values[::-1])
    fx = apply_F(rev_field, rev_driver, path).path
    assert np.max(np.abs(fx.values - path.values)) <= 1e-12


def test_picard_shrinking_stops_at_depth_cap():
    # one Picard iteration never converges, so every slice is halved; with
    # 2^21 grid steps in the one chunk the slice at depth 20 still has 3
    # points, so the depth cap, not the slice length, ends the recursion
    opts = SolveOptions(picard_max_iters=1, oversample=1024, mu_override=math.inf)
    with pytest.raises(SolveError, match=r"at depth 20$") as err:
        solve_forward(linear_field(), _sine(2049, 1.0), 0.0, [1.0], 1.0, opts, EXPS,
                      certify=False)
    assert err.value.window == (0.0, pytest.approx(2.0 / 2**21, rel=1e-12))


def test_solve_options_validation():
    from youngflow.errors import ParameterError

    with pytest.raises(ParameterError):
        SolveOptions(oversample=0)
    with pytest.raises(ParameterError):
        SolveOptions(picard_tol=-1.0)
    # every comparison with NaN is false, so a `v < 1` rejection lets it in;
    # int() of NaN or inf raises its own error
    for key in ("oversample", "picard_max_iters"):
        for value in (math.inf, math.nan, 2.5):
            with pytest.raises(ParameterError):
                SolveOptions(**{key: value})
    with pytest.raises(ParameterError):
        SolveOptions(picard_tol=math.nan)


def test_misspelled_gronwall_mode_is_rejected():
    # an unknown mode would otherwise reach the solve, which skips Gronwall
    # only for a field that declares no structure
    from youngflow.errors import ParameterError

    with pytest.raises(ParameterError, match="lineer"):
        GronwallData(mode="lineer")
    for mode in ("linear", "bounded"):
        assert GronwallData(mode=mode).mode == mode


def test_solve_report_build_gronwall_requires_structure():
    field = scalar_field(
        f=lambda t, x: np.zeros_like(x),
        g=lambda t, x: np.zeros_like(x),
        g_x=lambda t, x: np.zeros_like(x),
        L_g=0.0, M_N=0.0, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=0.0, a=0.0, name="anon",
    )
    drv = _sine(101, 1.0)
    rep = solve_forward(field, drv, 0.0, [0.0], 1.0, exponents=EXPS)
    # the solve skips the Gronwall certificate and keeps the others
    assert [c.name for c in rep.certificates] == ["growth", "young_loeve"]
    assert all(c.ok for c in rep.certificates)
    from youngflow.errors import ParameterError

    with pytest.raises(ParameterError):
        build_gronwall_input(field, rep, drv)


# ----------------------------------------------------------------------
# the fused Picard kernel against the per-iteration loop it replaced


def _reference_solution_map_parts(field, ts, dt, dw, x):
    """Drift and Young parts of F(x) - x_{t0} for the stack x (n, B, d), with ts
    and dw repeated B-fold: f and g each through young's midpoint rule, the
    noise through _pair_terms (einsum), each part its own np.cumsum."""
    n, B, d = x.shape
    flat = x.reshape(n * B, d)
    f_vals = field.eval_f(ts, flat).reshape(n, B, d)
    drift = _running_sum(_RULES["midpoint"](f_vals) * dt[:, None, None])
    g_vals = field.eval_g(ts, flat)
    shape = g_vals.shape[1:]
    g_mid = _RULES["midpoint"](g_vals.reshape((n, B) + shape)).reshape(((n - 1) * B,) + shape)
    young = _running_sum(_pair_terms(g_mid, dw).reshape(n - 1, B, d))
    return drift, young


def _reference_picard_slice(field, ts, ws, x0, opts, q):
    """The per-iteration Picard loop of _picard_slice before the fused kernel:
    (values, iters, residuals, ball_ok, member_iters, failed)."""
    n, B = len(ts), len(x0)
    dt = np.diff(ts)
    dw = np.diff(ws, axis=0)
    x = np.repeat(x0[None], n, axis=0)
    x0_norm = [float(np.linalg.norm(v)) for v in x0]
    scale = [max(1.0, v) for v in x0_norm]
    floor = [max(64.0 * np.finfo(float).eps * v, 1e-5 * opts.picard_tol) for v in scale]
    ball_cap = [2.0 * v + 1.0 for v in x0_norm]
    ball_ok, reached_tol, failed = [True] * B, [False] * B, [False] * B
    member_iters, prev_change = [0] * B, [math.inf] * B

    def apply_f(x, members):
        b = len(members)
        drift, young = _reference_solution_map_parts(field, np.repeat(ts, b), dt,
                                                     np.repeat(dw, b, axis=0), x)
        return x0[members][None] + drift + young

    live, iters = list(range(B)), 0
    while live and iters < opts.picard_max_iters + 40:
        xl = x[:, live]
        fx = apply_f(xl, live)
        changes = np.abs(fx - xl).max(axis=(0, 2)).tolist()
        x[:, live] = fx
        iters += 1
        if not np.isfinite(fx).all():
            raise DataError("Picard iterate contains non-finite entries")
        steps = np.linalg.norm(np.diff(fx, axis=0), axis=2)
        var1 = np.ascontiguousarray(steps.T).sum(axis=1).tolist()
        still = []
        for j, b in enumerate(live):
            if (x0_norm[b] + var1[j]) * (1.0 + 1e-12) > ball_cap[b] + 1e-9:
                if x0_norm[b] + _variation(fx[:, j], q) > ball_cap[b] + 1e-9:
                    ball_ok[b] = False
            change = changes[j]
            member_iters[b] = iters
            if change > 1e8 * scale[b]:
                failed[b] = True
            elif change <= floor[b]:
                reached_tol[b] = True
            elif change < opts.picard_tol:
                reached_tol[b] = True
                if not change >= 0.9999 * prev_change[b]:
                    still.append(b)
            elif iters >= opts.picard_max_iters:
                failed[b] = True
            else:
                still.append(b)
            prev_change[b] = change
        live = still
    done = [b for b in range(B) if reached_tol[b] and not failed[b]]
    residuals = np.zeros(B)
    if done:
        residuals[done] = np.abs(apply_f(x[:, done], done) - x[:, done]).max(axis=(0, 2))
    unconverged = np.ones(B, dtype=bool)
    unconverged[done] = False
    return (x, sum(member_iters[b] for b in done), residuals, np.array(ball_ok),
            np.array(member_iters), unconverged)


def _two_channel_field():
    """dx = -0.4 x dt + 0.5 x dw1 + 0.3 sin(x) dw2: a state-dependent m = 2 noise."""
    return CoefficientField(
        f=lambda ts, xs: -0.4 * xs,
        g=lambda ts, xs: np.stack([0.5 * xs, 0.3 * np.sin(xs)], axis=2),
        g_x=lambda ts, xs: np.stack([np.full_like(xs, 0.5), 0.3 * np.cos(xs)], axis=2)[..., None],
        dim_d=1, dim_m=2, L_g=0.5, M_N=lambda N: 0.3, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=lambda N: 0.4, a=0.4,
        b=lambda ts: np.zeros_like(np.asarray(ts, float)), b_norm=lambda t0, t1: 0.0,
        alpha=0.75, name="two-channel-multiplicative",
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(["scalar", "scalar-stack", "rotation", "two-channel"]),
    n=st.integers(2, 60),
    span=st.floats(0.02, 0.8),
    seed=st.integers(0, 2**32 - 1),
    max_iters=st.sampled_from([2, 6, 50]),
)
def test_picard_slice_is_bit_equal_to_the_per_iteration_loop(case, n, span, seed, max_iters):
    # mutations this fails on: a running sum without its zero row, each
    # partial sum one row early (kept in place, it loses only the sign of
    # zero, which the zero-field test below catches); dt and dw swapped in
    # the coefficient stack; the live mask dropped, frozen members updated
    # anyway (the stack case, whose members stop at different iterations);
    # a failed member's last iterate not put back after its reset
    rng = np.random.default_rng(seed)
    m = 2 if case == "two-channel" else 1
    ts = np.linspace(0.0, span, n)
    ws = 0.5 * np.cumsum(rng.standard_normal((n, m)), axis=0) * math.sqrt(span / n)
    if case == "rotation":
        field, x0 = _rotation_field(rng.uniform(0.2, 2.0)), rng.uniform(-2.0, 2.0, (1, 2))
    elif case == "two-channel":
        field, x0 = _two_channel_field(), rng.uniform(-2.0, 2.0, (1, 1))
    else:
        field = linear_field(*rng.uniform(-1.5, 1.5, 4))
        x0 = (rng.uniform(-2.0, 2.0, (1, 1)) if case == "scalar"
              else np.array([[1e-6], [-0.01], [0.7], [-25.0]]))
    opts = SolveOptions(picard_max_iters=max_iters)
    got = _slice(field, ts, ws, x0, opts, EXPS.q)
    want = _reference_picard_slice(field, ts, ws, x0, opts, EXPS.q)
    assert got.iters == want[1]
    for name, ref in zip(("values", "residuals", "ball_ok", "member_iters", "failed"),
                         (want[0], want[2], want[3], want[4], want[5])):
        value = getattr(got, name)
        assert value.shape == ref.shape and value.tobytes() == ref.tobytes(), name


def test_stack_members_stop_at_different_iterations_bit_equal_to_the_loop():
    # the stack case of the property above on a slice where every member
    # converges: they stop after 5, 7, 8 and 8 iterations, so 4, 3 and 2
    # members are live as the stack iterates in place
    field, drv = linear_field(-0.5, 0.0, 0.4, 0.0), _sine(41, 0.4)
    x0 = np.array([[1e-6], [-0.01], [0.7], [-25.0]])
    got = _slice(field, drv.times, drv.values, x0, SolveOptions(), EXPS.q)
    want = _reference_picard_slice(field, drv.times, drv.values, x0, SolveOptions(), EXPS.q)
    assert want[4].tolist() == [5, 7, 8, 8] and not want[5].any()
    assert got.values.tobytes() == want[0].tobytes()
    assert got.member_iters.tolist() == want[4].tolist()
    assert got.residuals.tobytes() == want[2].tobytes()


def test_member_that_stalls_below_picard_tol_stops_as_in_the_loop():
    # dx = 5 x dt grows e^5-fold on the slice, so rounding keeps the change of
    # the member from 3.0 above its floor (64 eps) but below picard_tol: it
    # stalls and stops after 34 iterations, in a pass where its mates go on.
    # Mutation this fails on: picard_tol dropped from the go-on test, which
    # lets that pass skip the stop rules
    field, drv = linear_field(5.0, 0.0, 0.0, 0.0), _sine(1001, 1.0)
    x0, opts = np.array([[1.0], [0.5], [3.0], [1e-3]]), SolveOptions(picard_max_iters=200)
    got = _slice(field, drv.times, drv.values, x0, opts, EXPS.q)
    want = _reference_picard_slice(field, drv.times, drv.values, x0, opts, EXPS.q)
    assert want[4].tolist() == [33, 33, 34, 30] and not want[5].any()
    assert got.values.tobytes() == want[0].tobytes()
    assert got.member_iters.tolist() == want[4].tolist()


def test_member_past_the_divergence_cap_fails_while_its_mates_go_on():
    # dx = x^3 dt + 0.3 x dw from 1e3: the second iterate's change passes 1e8
    # times the start while the member from 0.1 still contracts, so that
    # pass goes through the stop rules and the member fails before its
    # iterate overflows.  Mutation this fails on: the divergence cap dropped
    # from the go-on test (the iterate reaches inf: DataError)
    field = scalar_field(
        f=lambda t, x: x ** 3, g=lambda t, x: 0.3 * x, g_x=lambda t, x: np.full_like(x, 0.3),
        L_g=0.3, M_N=0.0, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=0.0, a=0.0, name="cube",
    )
    drv = _sine(41, 0.4)
    x0 = np.array([[0.1], [1e3]])
    got = _slice(field, drv.times, drv.values, x0, SolveOptions(), EXPS.q)
    want = _reference_picard_slice(field, drv.times, drv.values, x0, SolveOptions(), EXPS.q)
    assert got.failed.tolist() == [False, True] and got.member_iters.tolist() == [9, 2]
    assert got.values.tobytes() == want[0].tobytes()
    assert got.member_iters.tolist() == want[4].tolist()


@pytest.mark.parametrize("keeps_sign", [False, True])
def test_zero_field_from_negative_zero_prints_positive_zero(tmp_path, keeps_sign):
    # einsum sums the noise term from +0.0 where a product keeps -0.0; with f
    # and g = 0 * x, both -0.0 at x = -0.0, the path is x0 + drift + noise,
    # which the noise sum's +0.0 makes +0.0 on every row, as solution.csv shows
    zero = lambda t, x: 0.0 * x
    field = (linear_field(0.0, 0.0, 0.0, 0.0) if not keeps_sign else scalar_field(
        f=zero, g=zero, g_x=zero, L_g=0.0, M_N=0.0, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=0.0, a=0.0, name="signed-zero"))
    rep = solve_forward(field, _sine(201, 1.0), 0.0, [-0.0], 1.0, exponents=EXPS, certify=False)
    assert not np.signbit(rep.solution.values).any()
    path_to_csv(rep.solution, tmp_path / "solution.csv")
    rows = (tmp_path / "solution.csv").read_text().splitlines()[1:]
    assert rows and all("-" not in row.split(",")[1] for row in rows)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("part", ["drift", "noise"])
def test_non_finite_iterate_raises_data_error_without_a_warning(bad, part):
    # every grid point's f or g is non-finite from 10, so the iterate's steps
    # are inf - inf or nan there; the check comes before any such difference.
    # The driver is flat on [0, 0.5], where the noise term is inf * 0, which
    # einsum once computed without a warning
    zero = lambda t, x: np.zeros_like(x)
    blow_up = lambda t, x: np.where(x > 5.0, bad, 0.0)
    field = scalar_field(
        f=blow_up if part == "drift" else zero, g=blow_up if part == "noise" else zero,
        g_x=zero, L_g=0.0, M_N=0.0, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=0.0, a=0.0, name="blow-up",
    )
    ts = np.linspace(0.0, 1.0, 201)
    drv = SampledPath(ts, np.maximum(ts - 0.5, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite"):
            solve_forward(field, drv, 0.0, [10.0], 1.0, exponents=EXPS, certify=False)


def test_scalar_noise_against_a_two_column_driver_raises_shape_error():
    # g has one column, so a driver with two cannot be paired with it; the
    # solve and apply_F raise rather than integrate against the first column
    ts = np.linspace(0.0, 1.0, 101)
    drv = SampledPath(ts, np.stack([np.sin(ts), np.cos(ts)], axis=1))
    field = linear_field(-0.5, 0.0, 0.4, 0.0)
    with pytest.raises(ShapeError, match="driver dimension 2"):
        solve_forward(field, drv, 0.0, [1.0], 1.0, exponents=EXPS, certify=False)
    with pytest.raises(ShapeError, match="driver dimension 2"):
        apply_F(field, drv, SampledPath(ts, np.ones(101)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(["scalar-stack", "time-varying-stack", "rotation-stack",
                          "two-channel-stack"]),
    n=st.integers(2, 40),
    lo=st.integers(0, 30),
    span=st.floats(0.02, 0.8),
    seed=st.integers(0, 2**32 - 1),
    max_iters=st.sampled_from([2, 6, 50]),
)
def test_transport_slice_on_the_solve_map_is_bit_equal_to_the_loop(case, n, lo, span, seed,
                                                                    max_iters):
    # a transport's slice: the rows lo .. lo+n-1 of a longer grid, on the map
    # built for that grid, without diagnostics.  Mutations this fails on: the
    # live mask dropped (frozen members updated anyway, as the members stop at
    # different iterations); the map's coefficients or times (which the
    # time-varying field reads) not sliced per chunk, read from row 0 rather
    # than row lo
    rng = np.random.default_rng(seed)
    m = 2 if case == "two-channel-stack" else 1
    total = lo + n + 5
    grid = np.linspace(0.0, span, total)
    wgrid = 0.5 * np.cumsum(rng.standard_normal((total, m)), axis=0) * math.sqrt(span / total)
    sizes = 10.0 ** rng.uniform(-2.0, 1.0, (3, 1))
    if case == "rotation-stack":
        field, x0 = _rotation_field(rng.uniform(0.2, 2.0)), rng.uniform(-2.0, 2.0, (3, 2)) * sizes
    elif case == "two-channel-stack":
        field, x0 = _two_channel_field(), rng.uniform(-2.0, 2.0, (3, 1)) * sizes
    elif case == "time-varying-stack":
        coef = rng.uniform(-1.5, 1.5, 6) * np.array([1.0, 1.0, 8.0, 1.0, 1.0, 8.0])
        field, x0 = time_varying_field(*coef), rng.uniform(-2.0, 2.0, (3, 1)) * sizes
    else:
        field, x0 = linear_field(*rng.uniform(-1.5, 1.5, 4)), np.array([[1e-6], [-0.01], [0.7],
                                                                         [-25.0]])
    opts = SolveOptions(picard_max_iters=max_iters)
    ts, ws = grid[lo:lo + n], wgrid[lo:lo + n]
    chunk = _solution_map(field, *_grid_data(field, grid, wgrid, len(x0)), rows=n + 3)
    sums = chunk(lo, lo + n - 1)
    got = _picard_slice(sums, n, x0, opts, EXPS.q, diagnostics=False)
    want = _reference_picard_slice(field, ts, ws, x0, opts, EXPS.q)
    assert got.residuals is None and got.ball_ok is None
    assert got.iters == want[1]
    for name, ref in zip(("values", "member_iters", "failed"), (want[0], want[4], want[5])):
        value = getattr(got, name)
        assert value.shape == ref.shape and value.tobytes() == ref.tobytes(), name


def test_diverging_member_leaves_its_stack_mates_bit_equal():
    # dx = x^3 dt + 0.3 x dw: from 1e40 the first iterate is 4e119, far past
    # 1e8 times the start, so that member fails while those from 0.1, -0.3
    # and 0.02 iterate on.  Its start stands in for it from then on: f never
    # sees a diverging iterate and returns nothing non-finite, no
    # RuntimeWarning is raised, the survivors equal their one-state slices
    # bit for bit, and the failed member's rows are its last iterate, as in
    # the per-iteration loop.  Mutations this fails on: the reset dropped
    # (the next pass cubes 4e119 past the float range); the last iterate not
    # put back.  A non-finite check over all members, not the live ones,
    # changes nothing while the reset is in place, as no frozen member then
    # holds an iterate whose F is not finite; with the reset dropped too, it
    # raises DataError here
    outputs = []

    def cube(t, x):
        out = x ** 3
        outputs.append(bool(np.isfinite(out).all()))
        return out

    field = scalar_field(
        f=cube, g=lambda t, x: 0.3 * x, g_x=lambda t, x: np.full_like(x, 0.3),
        L_g=0.3, M_N=0.0, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=0.0, a=0.0, name="cube",
    )
    drv = _sine(41, 0.4)
    x0 = np.array([[0.1], [-0.3], [1e40], [0.02]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for diagnostics in (True, False):
            outputs.clear()
            got = _slice(field, drv.times, drv.values, x0, SolveOptions(), EXPS.q,
                         diagnostics=diagnostics)
            assert all(outputs)
            assert got.failed.tolist() == [False, False, True, False]
            assert got.member_iters[2] == 1 and len(set(got.member_iters.tolist())) > 2
            for b in (0, 1, 3):
                alone = _slice(field, drv.times, drv.values, x0[[b]], SolveOptions(), EXPS.q)
                assert got.values[:, b].tobytes() == alone.values[:, 0].tobytes()
                assert got.member_iters[b] == alone.member_iters[0]
    want = _reference_picard_slice(field, drv.times, drv.values, x0, SolveOptions(), EXPS.q)
    assert got.values.tobytes() == want[0].tobytes()


def test_non_finite_iterate_after_a_member_stops_raises_data_error():
    # the member from 0.1 sees no drift and stops after one iteration; the one
    # from 4.5 drifts past 5, where f is infinite, in its second, so the check
    # that reads the live members only raises DataError
    zero = lambda t, x: np.zeros_like(x)
    field = scalar_field(
        f=lambda t, x: np.where(x > 5.0, np.inf, np.where(x > 1.0, 1.0, 0.0)), g=zero,
        g_x=zero, L_g=0.0, M_N=0.0, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=0.0, a=0.0, name="step-blow-up",
    )
    drv = _sine(101, 1.0)
    first = _slice(field, drv.times, drv.values, np.array([[0.1]]), SolveOptions(), EXPS.q)
    assert first.member_iters.tolist() == [1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite"):
            _slice(field, drv.times, drv.values, np.array([[0.1], [4.5]]), SolveOptions(),
                   EXPS.q, diagnostics=False)


_TRANSPORT_SYSTEMS = {
    "flow-linear": (SCENARIOS["flow-linear"].make_field(),
                    SCENARIOS["flow-linear"].make_driver(None),
                    SCENARIOS["flow-linear"].exponents()),
    "rotation": (_rotation_field(), _sine_driver(), EXPS),
}


@pytest.mark.parametrize("system", sorted(_TRANSPORT_SYSTEMS))
@pytest.mark.parametrize("opts", [SolveOptions(oversample=2),
                                  SolveOptions(picard_max_iters=6, mu_override=2.0)])
def test_transport_end_states_are_the_last_row_of_the_kept_path(system, opts):
    # forward and reversed, the end states a transport computes without the
    # path equal the last row of the solve that keeps it; the tight budget
    # makes the large states fail their first chunks and be re-solved on the
    # halves.  Mutation this fails on: a transport's chunk taking its end
    # states before the re-solved halves are written back
    field, driver, exps = _TRANSPORT_SYSTEMS[system]
    d = field.dim_d
    states = np.random.default_rng(3).uniform(-1.0, 1.0, (5, d)) * np.array(
        [[1e-2], [0.3], [1.0], [8.0], [30.0]])
    t1, t2 = 0.2, 1.6
    for moved, (f, w, o) in (
            (cauchy_operator(field, driver, t1, t2, states, opts, exps), (field, driver, opts)),
            (cauchy_operator(field, driver, t2, t1, states, opts, exps),
             reversed_problem(field, driver, t1, t2, opts))):
        kept = solve_forward_batch(f, w, t1, states, t2, o, exps)
        assert moved.tobytes() == kept.values[-1].tobytes()


@pytest.mark.parametrize("system", sorted(_TRANSPORT_SYSTEMS))
def test_backward_solve_equals_the_forward_solve_of_its_reversed_problem(system, monkeypatch):
    # solve_backward's Picard reads the field at the reflected times; its
    # report equals solve_forward's on reversed_problem's time_reversed field
    # bit for bit, with an extra output time, the tight budget's shrinking
    # and the certificates
    import json

    field, driver, exps = _TRANSPORT_SYSTEMS[system]
    opts = SolveOptions(picard_max_iters=6, mu_override=2.0, grid=[0.9001])
    xT = np.full(field.dim_d, 8.0)
    spans = _count_spans(monkeypatch)
    back = solve_backward(field, driver, 1.6, xT, 0.2, opts, exps)
    assert len(spans) > len(back.iters_per_interval)  # a chunk shrinks
    rev_field, rev_driver, rev_opts = reversed_problem(field, driver, 0.2, 1.6, opts)
    fwd = solve_forward(rev_field, rev_driver, 0.2, xT, 1.6, rev_opts, exps)
    assert back.solution.values.tobytes() == fwd.solution.values[::-1].tobytes()
    assert back.solution.times.tobytes() == ((0.2 + 1.6) - fwd.solution.times[::-1]).tobytes()
    assert back.direction == "backward"
    assert json.dumps(back.to_json()) == json.dumps(replace(fwd, direction="backward").to_json())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_start_norms_equal_np_linalg_norm_bit_for_bit(d):
    # at d = 1 one call makes sqrt(v * v) for the stack: it underflows at
    # 1e-200 and overflows at 1e200 as np.linalg.norm does, and -0.0 reads
    # +0.0; for d > 1 each state takes np.linalg.norm
    rng = np.random.default_rng(d)
    x0 = rng.standard_normal((200, d)) * 10.0 ** rng.uniform(-8.0, 8.0, (200, 1))
    if d == 1:
        x0 = np.concatenate([x0, [[1e-200], [-1e-200], [1e200], [-0.0], [0.0], [3.0], [5e-324]]])
    with np.errstate(over="ignore", under="ignore"):
        want = [float(np.linalg.norm(v)) for v in x0]
        got = _start_norms(x0)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_solve_forward_batch_names_the_stack_shape_it_expects():
    field = SCENARIOS["flow-linear"].make_field()
    drv = SCENARIOS["flow-linear"].make_driver(None)
    exps = SCENARIOS["flow-linear"].exponents()
    # a one-state vector of the right size is not a (B, d) stack
    with pytest.raises(ParameterError, match=r"x0 has shape \(1,\), expected \(B, d\) with d = 1"):
        solve_forward_batch(field, drv, 0.2, np.array([1.0]), 1.0, exponents=exps)
    with pytest.raises(ParameterError, match=r"shape \(2, 2\)"):
        solve_forward_batch(field, drv, 0.2, np.ones((2, 2)), 1.0, exponents=exps)
    with pytest.raises(ParameterError, match="needs an ExponentSet"):
        solve_forward_batch(field, drv, 0.2, np.ones((2, 1)), 1.0)


def test_picard_scope_silences_f_overflow_into_data_error():
    # the slice runs under one np.errstate that covers f and g as well: exp
    # overflows at 800 with a RuntimeWarning outside the solver, and inside it
    # the infinite iterate raises DataError instead
    field = scalar_field(
        f=lambda t, x: np.exp(x), g=lambda t, x: np.zeros_like(x),
        g_x=lambda t, x: np.zeros_like(x), L_g=0.0, M_N=0.0, delta=1.0, beta=0.75,
        h=ControlFunction.zero(), L_N=0.0, a=0.0, name="exp",
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.exp(np.array([800.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite"):
            solve_forward(field, _sine(201, 1.0), 0.0, [800.0], 1.0, exponents=EXPS,
                          certify=False)


def test_lockstep_lane_that_shrinks_in_a_padded_step_equals_its_own_transports(monkeypatch):
    # with mu_override=2.0 every window is one chunk: the lane from 0.2 reaches
    # 1.0 in 1,201 grid points while the lane from 0.25 spans 2,176, so the
    # first lane's rows are padded in the first step.  Its large states fail
    # the 6-iteration budget, so the lane is re-solved alone on its own slice
    # and shrinks, and its end at 1.0 starts its second window.  Mutations this
    # fails on: the lane's end read at the step's last row (a padded row,
    # which holds the failed iterate); a failed member re-solved on the
    # step's longest slice; the lane's slice run again before it shrinks
    from youngflow import solver
    from youngflow.flow import lockstep_transport

    field, driver, exps = _TRANSPORT_SYSTEMS["flow-linear"]
    opts = SolveOptions(picard_max_iters=6, mu_override=2.0)
    big, small = np.array([[8.0], [-30.0]]), np.array([[1e-2]])
    real_slice, real_span, shrinks, step = solver._picard_slice, solver._solve_span, [], [0]

    def picard_slice(sums, n, *args, **kwargs):
        step[0] = n
        return real_slice(sums, n, *args, **kwargs)

    def solve_span(field, ts, *args, **kwargs):
        shrinks.append((len(ts), step[0]))
        return real_span(field, ts, *args, **kwargs)

    monkeypatch.setattr(solver, "_picard_slice", picard_slice)
    monkeypatch.setattr(solver, "_solve_span", solve_span)
    got = lockstep_transport(field, driver, [(big, (0.2, 1.0, 1.6)), (small, (0.25, 1.7))],
                             opts=opts, exponents=exps)
    # the failed members shrink straight from the step's result: the left half
    # of the lane's 1,201 points follows the 2,176-point step, with no slice of
    # the whole lane in between (mutation: the lane's slice run again)
    assert (1201, 2176) in shrinks and (601, 2176) in shrinks
    X = lambda a, b, x: cauchy_operator(field, driver, a, b, x, opts, exps)
    assert got[0].tobytes() == X(1.0, 1.6, X(0.2, 1.0, big)).tobytes()
    assert got[1].tobytes() == X(0.25, 1.7, small).tobytes()
