import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from youngflow import (
    FbmSpec,
    GreedyExhausted,
    ParameterError,
    SampledPath,
    analytic_driver,
    count_bound,
    fbm_sample,
    greedy_sequence,
    next_greedy_time,
    p_variation,
    p_variation_bruteforce,
)
from conftest import turning_walks
from youngflow import greedy
from youngflow.coefficients import derived_constants
from youngflow.greedy import counting_bound
from youngflow.scenarios import SCENARIOS
from youngflow.solver import SolveOptions, _build_grid, _chunk_boundaries


def _linear_driver(n=201, t1=1.0):
    return analytic_driver("linear", {}, np.linspace(0.0, t1, n))


def test_closed_form_linear_driver():
    # |||w|||_{p-var,[s,t]} = t-s for the unit ramp, so each step solves 2*step = mu
    drv = _linear_driver()
    seq = greedy_sequence(drv, 0.0, 1.0, lam=1.0, mu=0.5, p=1.5)
    np.testing.assert_allclose(seq.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-10)
    assert np.all(np.abs(seq.residuals) <= 1e-8)
    assert not seq.clamped
    assert seq.n_full() == 4


def test_constant_driver_steps():
    drv = SampledPath(np.linspace(0, 2, 41), np.zeros(41))
    t = next_greedy_time(drv, 0.0, lam=1.0, mu=0.5, p=1.5)
    assert t == pytest.approx(0.5, abs=1e-10)
    t2 = next_greedy_time(drv, 0.3, lam=1.0, mu=0.5, p=1.5)
    assert t2 == pytest.approx(0.8, abs=1e-10)


def test_budget_never_reached_clamps():
    drv = _linear_driver()
    seq = greedy_sequence(drv, 0.0, 1.0, lam=1.0, mu=5.0, p=1.5)
    assert list(seq.times) == [0.0, 1.0]
    assert seq.clamped
    assert seq.residuals[0] < 0


def test_exhausted_at_domain_end():
    drv = _linear_driver()
    with pytest.raises(GreedyExhausted):
        next_greedy_time(drv, 1.0, lam=1.0, mu=0.5, p=1.5)


def test_start_just_outside_domain_is_clamped():
    drv = SampledPath(np.linspace(10.0, 11.0, 50), np.linspace(0.0, 1.0, 50))
    at_lo = next_greedy_time(drv, 10.0, 0.6, 0.3, 1.7)
    assert next_greedy_time(drv, 10.0 - 5e-12, 0.6, 0.3, 1.7) == at_lo
    with pytest.raises(GreedyExhausted):
        next_greedy_time(drv, 11.0 + 5e-12, 0.6, 0.3, 1.7)


def test_residuals_small_for_fbm_drivers():
    for seed in range(5):
        drv = fbm_sample(FbmSpec(hurst=0.75, horizon=1.0, samples=513, seed=seed))
        seq = greedy_sequence(drv, 0.0, 1.0, lam=0.75, mu=0.35, p=1.5)
        interior = seq.residuals[:-1] if seq.clamped else seq.residuals
        assert np.all(np.abs(interior) <= 1e-8)
        # tiling: consecutive, no gaps
        assert np.all(np.diff(seq.times) > 0)
        assert seq.times[0] == 0.0 and seq.times[-1] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "lam, mu, p",
    [(0.0, 0.5, 1.5), (-0.75, 0.5, 1.5), (0.75, 0.0, 1.5), (0.75, -0.5, 1.5),
     (0.75, 0.5, 0.5), (0.75, 0.5, 0.999)],
)
def test_greedy_rejects_parameters_outside_its_range(lam, mu, p):
    # the budget is a p-variation, defined for p >= 1 only
    drv = fbm_sample(FbmSpec(hurst=0.75, horizon=1.0, samples=129, seed=0))
    with pytest.raises(ParameterError):
        greedy_sequence(drv, 0.0, 1.0, lam=lam, mu=mu, p=p)


@pytest.mark.parametrize("lam, mu, p", [(math.nan, 0.5, 1.5), (0.75, math.nan, 1.5),
                                        (0.75, 0.5, math.nan)])
def test_greedy_rejects_nan_parameters_before_any_step(monkeypatch, lam, mu, p):
    # every comparison with NaN is false, so a NaN parameter slips past a
    # `mu <= 0` rejection; its step cap is NaN too and the sequence would
    # crawl on for ever
    def step(*args, **kwargs):
        raise AssertionError("greedy_sequence stepped with a NaN parameter")

    monkeypatch.setattr(greedy, "_next_greedy", step)
    with pytest.raises(ParameterError):
        greedy_sequence(_linear_driver(), 0.0, 1.0, lam, mu, p)


def test_greedy_sequence_gives_up_at_its_counting_bound(monkeypatch):
    # a step that barely moves stands for a wrong budget: the sequence stops
    # after the counting bound on the unit ramp's 1-variation, plus two steps.
    # The ramp never turns, so the walk model is turned off here, and the
    # one-step engine crawls
    lam, mu, p = 0.75, 0.5, 1.5
    cap = math.ceil(counting_bound(1.0, 1.0, lam, mu, max(p, 1.0 / lam))) + 2
    calls = []

    def crawl(driver, start, lam, mu, p, end=None, w_start=None):
        calls.append(start)
        assert len(calls) <= cap, "greedy_sequence stepped past its counting bound"
        return start + 1e-9, 0.0, False, None

    monkeypatch.setattr(greedy._Walk, "step", lambda self, t0, w0: None)
    monkeypatch.setattr(greedy, "_next_greedy", crawl)
    with pytest.raises(ParameterError, match="counting bound"):
        greedy_sequence(_linear_driver(), 0.0, 1.0, lam, mu, p)


def test_greedy_counting_bound_stops_predicted_runs(monkeypatch):
    # the walk model predicts the ramp's steps; a counting bound of one step,
    # plus two, must stop its runs after three steps
    taken, real_check = [], greedy._Walk.check

    def check(self, run, w):
        steps = real_check(self, run, w)
        taken.extend(steps)
        return steps

    monkeypatch.setattr(greedy, "counting_bound", lambda *args: 1.0)
    monkeypatch.setattr(greedy._Walk, "check", check)
    with pytest.raises(ParameterError, match="counting bound"):
        greedy_sequence(_linear_driver(), 0.0, 1.0, 0.75, 0.5, 1.5)
    assert len(taken) == 3


def test_count_bound_closed_form():
    drv = _linear_driver()
    cb = count_bound(drv, (0.0, 1.0), lam=1.0, mu=0.5, p=1.5, p_prime=1.5)
    assert cb.actual == 4
    assert cb.bound == pytest.approx(8.0, abs=1e-12)
    assert cb.satisfied


def test_count_bound_constant_driver():
    drv = SampledPath(np.linspace(0, 1, 11), np.zeros(11))
    mu, lam = 0.21, 1.0
    cb = count_bound(drv, (0.0, 1.0), lam=lam, mu=mu, p=1.5, p_prime=1.5)
    assert cb.actual == int(np.floor(1.0 / mu ** (1.0 / lam)))
    assert cb.satisfied


def test_count_bound_empty_window():
    drv = _linear_driver()
    cb = count_bound(drv, (0.4, 0.4), lam=1.0, mu=0.5, p=1.5, p_prime=1.5)
    assert cb.actual == 0 and cb.bound == 0.0


def test_count_bound_p_prime_validation():
    drv = _linear_driver()
    with pytest.raises(ParameterError):
        count_bound(drv, (0.0, 1.0), lam=0.5, mu=0.5, p=1.5, p_prime=1.6)


def test_count_bound_on_fbm():
    for seed in (0, 1, 2):
        drv = fbm_sample(FbmSpec(hurst=0.75, horizon=1.0, samples=513, seed=seed))
        cb = count_bound(drv, (0.0, 1.0), lam=0.75, mu=0.3, p=1.5, p_prime=1.5)
        assert cb.satisfied


def test_halving_mu_never_decreases_count():
    drv = fbm_sample(FbmSpec(hurst=0.75, horizon=1.0, samples=513, seed=11))
    counts = []
    mu = 0.8
    for _ in range(4):
        seq = greedy_sequence(drv, 0.0, 1.0, lam=0.75, mu=mu, p=1.5)
        counts.append(seq.n_intervals)
        mu /= 2.0
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_mid_segment_start_and_subwindow():
    drv = _linear_driver(n=17)
    t = next_greedy_time(drv, 0.13, lam=1.0, mu=0.5, p=1.3)
    assert t == pytest.approx(0.38, abs=1e-10)


def test_json_round_trip():
    drv = _linear_driver()
    seq = greedy_sequence(drv, 0.0, 1.0, lam=1.0, mu=0.5, p=1.5)
    payload = json.loads(json.dumps(seq.to_json()))
    assert payload["lambda"] == 1.0
    assert payload["mu"] == 0.5
    assert payload["times"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(payload["residuals"]) == 4


def test_greedy_interval_variation_budget():
    # each full interval consumes exactly the budget, never more
    drv = fbm_sample(FbmSpec(hurst=0.75, horizon=1.0, samples=513, seed=5))
    lam, mu, p = 0.75, 0.4, 1.5
    seq = greedy_sequence(drv, 0.0, 1.0, lam=lam, mu=mu, p=p)
    for a, b in zip(seq.times[:-1], seq.times[1:]):
        kappa = (b - a) ** lam + p_variation(drv, p, (a, b))
        assert kappa <= mu + 1e-7


def test_vector_greedy_intervals_spend_the_budget():
    # every coordinate of a vector driver enters the budget inside a segment too
    rng = np.random.default_rng(3)
    lam, mu, p = 0.75, 0.8, 1.5
    for dim in (2, 3):
        values = 0.2 * np.cumsum(rng.standard_normal((41, dim)), axis=0)
        drv = SampledPath(np.linspace(0.0, 1.0, 41), values)
        seq = greedy_sequence(drv, 0.0, 1.0, lam=lam, mu=mu, p=p)
        # the last interval is clamped to the end; the others spend mu
        assert seq.n_intervals > 5 and seq.n_full() == seq.n_intervals - 1
        for a, b in zip(seq.times[:-2], seq.times[1:-1]):
            kappa = (b - a) ** lam + p_variation(drv, p, (a, b))
            assert kappa == pytest.approx(mu, abs=1e-8)


@st.composite
def _piecewise_linear(draw):
    """Random scalar or 2-d piecewise-linear driver on [0, 1] with n <= 200."""
    n = draw(st.integers(2, 200))
    dim = draw(st.sampled_from([1, 2]))
    scale = draw(st.floats(0.01, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(0.5, 1.5, n - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    steps = rng.normal(scale=scale / np.sqrt(n), size=(n - 1, dim))
    values = np.concatenate([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return SampledPath(times, values[:, 0] if dim == 1 else values)


# about mu^(-1/lam) intervals: at most 100 from the time term alone
_budget_params = dict(
    driver=_piecewise_linear(),
    lam=st.floats(0.5, 1.0),
    mu=st.floats(0.1, 2.0),
    p=st.floats(1.0, 3.0),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_budget_params)
def test_greedy_intervals_spend_the_budget(driver, lam, mu, p):
    # the budget recomputed from p_variation, apart from the greedy engine
    seq = greedy_sequence(driver, 0.0, 1.0, lam=lam, mu=mu, p=p)
    for i, (a, b) in enumerate(zip(seq.times[:-1], seq.times[1:])):
        budget = (b - a) ** lam + p_variation(driver, p, (a, b))
        if seq.clamped and i == seq.n_intervals - 1:
            assert budget <= mu + 1e-8
        else:
            assert abs(budget - mu) <= 1e-8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    values=turning_walks(max_n=20),
    scale=st.floats(0.01, 0.3),
    lam=st.floats(0.5, 1.0),
    mu=st.floats(0.1, 2.0),
    p=st.floats(1.0, 3.0),
)
def test_pruned_walk_spends_the_budget_by_bruteforce(values, scale, lam, mu, p):
    # scalar drivers with plateaus and long monotone runs, where the DP keeps
    # the fewest vertices; the oracle enumerates every partition
    driver = SampledPath(np.linspace(0.0, 1.0, len(values)), scale * values)
    seq = greedy_sequence(driver, 0.0, 1.0, lam=lam, mu=mu, p=p)
    for i, (a, b) in enumerate(zip(seq.times[:-1], seq.times[1:])):
        budget = (b - a) ** lam + p_variation_bruteforce(driver, p, (a, b))
        if seq.clamped and i == seq.n_intervals - 1:
            assert budget <= mu + 1e-8
        else:
            assert abs(budget - mu) <= 1e-8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_budget_params, oversample=st.integers(1, 3))
def test_chunk_ends_are_the_grid_points_nearest_the_greedy_times(driver, lam, mu, p, oversample):
    ts = _build_grid(driver, 0.0, 1.0, SolveOptions(oversample=oversample))
    greedy_times = greedy_sequence(driver, 0.0, 1.0, lam=lam, mu=mu, p=p).times
    bounds = _chunk_boundaries(ts, greedy_times)
    assert bounds[0] == 0 and bounds[-1] == len(ts) - 1
    assert all(b < e for b, e in zip(bounds[:-1], bounds[1:]))
    dist = np.abs(ts[:, None] - greedy_times[None, :])
    nearest = dist.min(axis=0)
    # every chunk end is nearest some greedy time, every greedy time lands on a chunk end
    assert all(np.any(dist[b] == nearest) for b in bounds)
    np.testing.assert_array_equal(dist[bounds].min(axis=0), nearest)


def _reference_greedy(driver, start, end, lam, mu, p):
    """Greedy times, residuals and clamped flag by a per-step walk over the
    kept vertices and one bisection step at a time: the engine's definition,
    without its DP rows and bisection batches.  On a scalar driver the last
    kept vertex stays a candidate for the next step only where it turns."""
    times, flat = driver.times, driver._flat_values()
    scalar = flat.shape[1] == 1
    dom_tol = 1e-12 * max(1.0, abs(times[-1]) + abs(times[0]))

    def next_time(t0):
        stop_t = min(end, float(times[-1]))
        pts, V = [np.ravel(driver.at(t0))], [0.0]

        def power(value):
            kept = np.array(pts)
            if scalar:
                d = np.abs(kept[:, 0] - value[0])
            else:
                diff = kept - value
                d = np.sqrt(np.einsum("ik,ik->i", diff, diff))
            return float(np.maximum.reduce(np.array(V) + d ** p))

        def kappa(t):
            # numpy's float64 ** reads a time term past float range as inf
            value = np.array([np.interp(t, times, c) for c in flat.T])
            return (np.float64(t) - t0) ** lam + power(value) ** (1.0 / p)

        def drop_unturned(c):
            # the last kept vertex, if it does not turn on the way to c
            if scalar and len(pts) > 1:
                a, b = pts[-2][0], pts[-1][0]
                if a <= b <= c or a >= b >= c:
                    pts.pop()
                    V.pop()

        j = j0 = int(np.searchsorted(times, t0, side="right"))
        stop = int(np.searchsorted(times, stop_t, side="left"))
        while j < stop:
            drop_unturned(flat[j, 0])
            pw = power(flat[j])
            if not (times[j] - t0) ** lam + pw ** (1.0 / p) < mu:
                break
            pts.append(flat[j])
            V.append(pw)
            j += 1
        if j == stop:
            drop_unturned(flat[stop, 0])
        if j < stop:
            hi = float(times[j])
        else:
            k_end = kappa(stop_t)
            if k_end < mu:
                return stop_t, k_end - mu, True
            hi = stop_t
        lo = float(times[j - 1]) if j > j0 else t0
        for _ in range(200):
            if hi - lo <= dom_tol:
                break
            mid = 0.5 * (lo + hi)
            if kappa(mid) < mu:
                lo = mid
            else:
                hi = mid
        t = hi
        if j < len(times) and abs(t - times[j]) <= dom_tol:
            t = float(min(times[j], stop_t))
        return t, kappa(t) - mu, False

    seq_tol = 1e-12 * max(1.0, abs(start) + abs(end))
    ts, residuals, clamped, t = [float(start)], [], False, float(start)
    while t < end - seq_tol:
        t, r, clamped = next_time(t)
        ts.append(float(t))
        residuals.append(float(r))
    if abs(ts[-1] - end) <= seq_tol:
        ts[-1] = float(end)
    return np.array(ts), np.array(residuals), clamped


@st.composite
def _walk_drivers(draw):
    """Drivers on [0, 1] of six kinds: rough Gaussian walks, integer walks
    with plateaus, a sine with tiny noise, piecewise-linear ramps, 2-d walks,
    and long ramps with a small rough walk on top, up to 1,500 samples, whose
    intervals span several doublings of the engine's first DP row."""
    kind = draw(st.sampled_from(["rough", "integer", "sine", "ramps", "planar", "long"]))
    n = draw(st.integers(300, 1500) if kind == "long" else st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(0.5, 1.5, n - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    scale = draw(st.floats(0.05, 1.0))
    if kind == "rough":
        values = scale * np.cumsum(rng.standard_normal(n)) / np.sqrt(n)
    elif kind == "integer":
        steps = rng.integers(-2, 3, n) * (rng.random(n) < 0.6)
        values = 0.05 * scale * np.cumsum(steps).astype(float)
    elif kind == "sine":
        noise = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
        values = scale * np.sin(draw(st.floats(1.0, 20.0)) * times)
        values = values + noise * rng.standard_normal(n)
    elif kind in ("ramps", "long"):
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 3)), [1.0]])
        values = np.interp(times, knots, scale * rng.standard_normal(5))
        if kind == "long":
            noise = draw(st.sampled_from([0.0, 1e-4, 1e-2]))
            values = values + noise * scale * np.cumsum(rng.standard_normal(n)) / np.sqrt(n)
    else:
        values = scale * np.cumsum(rng.standard_normal((n, 2)), axis=0) / np.sqrt(n)
    return SampledPath(times, values)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    driver=_walk_drivers(),
    start=st.sampled_from([0.0, 0.013, 0.25]),
    end=st.sampled_from([1.0, 0.8]),
    lam=st.floats(0.5, 1.0),
    mu=st.floats(0.1, 2.0),
    p=st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
)
def test_greedy_is_byte_equal_to_the_per_step_reference(driver, start, end, lam, mu, p):
    # the DP rows and bisection batches change how the budget is computed,
    # never a bit of what it returns
    seq = greedy_sequence(driver, start, end, lam=lam, mu=mu, p=p)
    times, residuals, clamped = _reference_greedy(driver, start, end, lam, mu, p)
    assert seq.times.tobytes() == times.tobytes()
    assert seq.residuals.tobytes() == residuals.tobytes()
    assert seq.clamped == clamped


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    driver=_walk_drivers(),
    start=st.sampled_from([0.0, 0.013, 0.25]),
    end=st.sampled_from([1.0, 0.8]),
    lam=st.floats(0.5, 1.0),
    mu=st.floats(0.1, 2.0),
    p=st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
    guess=st.sampled_from(["left end", "alternating ends"]),
)
def test_greedy_overturns_a_wrong_root_guess(driver, start, end, lam, mu, p, guess):
    # a guess that is always the segment's left end, or that alternates its
    # ends, gets many bisection decisions wrong; the exact check must
    # overturn each of them, so the sequence keeps every bit
    turns = itertools.count()

    def wrong_root(g, a, b, tol):
        return a if guess == "left end" or next(turns) % 2 else b

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(greedy, "_predict_root", wrong_root)
        seq = greedy_sequence(driver, start, end, lam=lam, mu=mu, p=p)
    times, residuals, clamped = _reference_greedy(driver, start, end, lam, mu, p)
    assert seq.times.tobytes() == times.tobytes()
    assert seq.residuals.tobytes() == residuals.tobytes()
    assert seq.clamped == clamped


def test_greedy_guess_survives_leg_powers_past_float_range():
    # numpy rounds a leg power past float range to inf, Python's float ** raises
    driver = SampledPath(np.linspace(0.0, 1.0, 50), 30.0 * np.sin(np.linspace(0.0, 9.0, 50)))
    with np.errstate(over="ignore"):
        seq = greedy_sequence(driver, 0.0, 1.0, lam=0.7, mu=0.5, p=1500.0)
        times, residuals, clamped = _reference_greedy(driver, 0.0, 1.0, 0.7, 0.5, 1500.0)
    assert seq.times.tobytes() == times.tobytes()
    assert seq.residuals.tobytes() == residuals.tobytes()


@pytest.mark.parametrize("samples", [201, 51])
def test_greedy_time_terms_past_float_range_spend_the_budget(samples):
    # (t - t0)^300 is past float range for t - t0 above about 10.6, which a
    # driver step of 5 or 20 and its turning points at 175 pass: Python's
    # float ** raises there, numpy reads inf, and the budget is spent
    driver = analytic_driver("sine", {}, np.linspace(0.0, 1000.0, samples))
    seq = greedy_sequence(driver, 0.0, 1000.0, lam=300.0, mu=0.5, p=1.5)
    with np.errstate(over="ignore"):
        times, residuals, clamped = _reference_greedy(driver, 0.0, 1000.0, 300.0, 0.5, 1.5)
    assert seq.times.tobytes() == times.tobytes()
    assert seq.residuals.tobytes() == residuals.tobytes()
    assert seq.clamped == clamped


@pytest.mark.parametrize("name", ["linear-sine", "fbm-linear"])
def test_greedy_makes_one_bisection_batch_per_step(monkeypatch, name):
    # a step is either accepted from a checked run of predicted steps or
    # taken by the one-step engine.  Every DP step of the engine outside a
    # budget row is a step's end-value batch, made when the row reaches the
    # window's end, or a bisection batch; a root guess that the exact check
    # confirms makes one bisection batch a step.  A run's check is one
    # batch, so the exact batches stay within one per step
    scenario = SCENARIOS[name]
    driver, exponents = scenario.make_driver(0), scenario.exponents()
    mu = derived_constants(scenario.make_field(), scenario.t0, scenario.T, exponents.K0).mu_star
    real_row, real_power, real_check = greedy._budget_row, greedy._endpoint_power, greedy._Walk.check
    in_row, ends, batches, checks, accepted = [False], [], [], [], []

    def row(driver, t0, w0, j0, stop, *rest):
        in_row[0] = True
        try:
            j, pts, V = real_row(driver, t0, w0, j0, stop, *rest)
        finally:
            in_row[0] = False
        ends.append(j == stop)
        return j, pts, V

    def power(pts, V, value, p):
        if not in_row[0]:
            batches.append(len(value))
        return real_power(pts, V, value, p)

    def check(self, run, w):
        steps = real_check(self, run, w)
        checks.append(len(run))
        accepted.extend(steps)
        return steps

    monkeypatch.setattr(greedy, "_budget_row", row)
    monkeypatch.setattr(greedy, "_endpoint_power", power)
    monkeypatch.setattr(greedy._Walk, "check", check)
    seq = greedy_sequence(driver, scenario.t0, scenario.T, exponents.alpha, mu, exponents.p)
    steps = seq.n_intervals
    assert len(ends) + len(accepted) == steps > 10
    assert len(batches) - sum(ends) <= len(ends)
    assert len(batches) - sum(ends) + len(checks) <= steps
    # the smooth driver's steps come from the model, the rough one's from the engine
    assert len(accepted) > 0.9 * steps if name == "linear-sine" else not checks


def test_greedy_root_guess_bisects_when_a_huge_g_rounds_it_onto_the_bracket_end(monkeypatch):
    # on a 51-sample ramp over [0, 1000] with lambda = 300 the budget at a
    # segment's far end is near 1e209, and regula falsi's guess rounds onto
    # the bracket's left end.  Taken as the root, that guess was overturned at
    # each midpoint: 2.9 bisection batches on each step that crosses a vertex
    # (up to 4) and 3.3 on the others.  Bisecting instead, no engine step
    # needs more than two and most need one; the times stay the engine's.
    # Mutation this fails on: the guess on the end returned as the root
    driver = SampledPath(np.linspace(0.0, 1000.0, 51), np.linspace(0.0, 1.0, 51))
    real_row, real_power = greedy._budget_row, greedy._endpoint_power
    in_row, steps = [False], []

    def row(driver, t0, w0, j0, stop, *rest):
        in_row[0] = True
        try:
            j, pts, V = real_row(driver, t0, w0, j0, stop, *rest)
        finally:
            in_row[0] = False
        steps.append([j > j0, 0])  # whether the step crosses a vertex, its batches
        return j, pts, V

    def power(pts, V, value, p):
        if not in_row[0]:
            steps[-1][1] += 1
        return real_power(pts, V, value, p)

    monkeypatch.setattr(greedy, "_budget_row", row)
    monkeypatch.setattr(greedy, "_endpoint_power", power)
    seq = greedy_sequence(driver, 0.0, 1000.0, lam=300.0, mu=0.5, p=1.5)
    monkeypatch.undo()
    with np.errstate(over="ignore"):
        times, residuals, _ = _reference_greedy(driver, 0.0, 1000.0, 300.0, 0.5, 1.5)
    assert seq.times.tobytes() == times.tobytes()
    assert seq.residuals.tobytes() == residuals.tobytes()
    crossing = [batches for crosses, batches in steps if crosses]
    assert crossing and max(crossing) <= 2
    assert sum(batches for _, batches in steps) <= 1.2 * len(steps)


def _one_step_sequence(driver, start, end, lam, mu, p):
    """Times, residuals and clamped flag from the one-step engine alone,
    stepped as greedy_sequence steps it when the walk model declines."""
    span_tol = 1e-12 * max(1.0, abs(start) + abs(end))
    ts, residuals, clamped, t, w = [float(start)], [], False, float(start), None
    while t < end - span_tol:
        t, r, clamped, w = greedy._next_greedy(driver, t, lam, mu, p, end=end, w_start=w)
        ts.append(float(t))
        residuals.append(float(r))
    if abs(ts[-1] - end) <= span_tol:
        ts[-1] = float(end)
    return np.array(ts), np.array(residuals), clamped


def _predicted_starts(monkeypatch):
    """Two lists that collect the start of every predicted step the walk
    checks, and of every one it accepts."""
    checked, accepted, real_check = [], [], greedy._Walk.check

    def check(self, run, w):
        steps = real_check(self, run, w)
        checked.extend(step.t0 for step in run)
        accepted.extend(step.t0 for step in run[: len(steps)])
        return steps

    monkeypatch.setattr(greedy._Walk, "check", check)
    return checked, accepted


def _assert_reference(driver, start, end, lam, mu, p):
    seq = greedy_sequence(driver, start, end, lam=lam, mu=mu, p=p)
    times, residuals, clamped = _reference_greedy(driver, start, end, lam, mu, p)
    assert seq.times.tobytes() == times.tobytes()
    assert seq.residuals.tobytes() == residuals.tobytes()
    assert seq.clamped == clamped
    return seq


@st.composite
def _smooth_walks(draw):
    """Scalar drivers on [0, 1] with few turns, where the walk model predicts
    most steps: sines, ramps and monotone staircases with plateaus, 50 to
    1,500 samples."""
    kind = draw(st.sampled_from(["sine", "ramps", "stairs"]))
    n = draw(st.integers(50, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(0.5, 1.5, n - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    scale = draw(st.floats(0.05, 1.0))
    if kind == "sine":
        values = scale * np.sin(draw(st.floats(1.0, 12.0)) * times)
    elif kind == "ramps":
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 2)), [1.0]])
        values = np.interp(times, knots, scale * rng.standard_normal(4))
    else:
        values = scale * np.cumsum(rng.integers(0, 3, n) * (rng.random(n) < 0.5)) / n
    return SampledPath(times, values)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    driver=_smooth_walks(),
    start=st.sampled_from([0.0, 0.013, 0.25]),
    end=st.sampled_from([1.0, 0.8]),
    lam=st.floats(0.5, 1.0),
    mu=st.floats(0.1, 2.0),
    p=st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
    shifts=st.lists(st.integers(-5, 5), min_size=1, max_size=6),
    flips=st.lists(st.one_of(st.none(), st.integers(0, 40)), min_size=1, max_size=6),
)
def test_greedy_overturns_mispredicted_steps(driver, start, end, lam, mu, p, shifts, flips):
    # the model's crossing vertex is moved by up to 5 vertices, and its root
    # guess is reflected about the midpoint at a drawn depth, which flips that
    # midpoint's decision and keeps the ones before it; the exact check must
    # refuse every such step and the engine retake it, so no bit moves.
    # Fails when predictions are accepted unchecked or the last predicted
    # vertex is not checked
    draws = itertools.count()
    real_crossing, real_root = greedy._Walk.crossing, greedy._predict_root

    def crossing(self, t0, w0, j0, top):
        j = real_crossing(self, t0, w0, j0, top) + shifts[next(draws) % len(shifts)]
        return min(max(j, j0), top)

    def root(g, a, b, tol):
        r, depth = real_root(g, a, b, tol), flips[next(draws) % len(flips)]
        if depth is None:
            return r
        for _ in range(depth):
            m = 0.5 * (a + b)
            a, b = (m, b) if m < r else (a, m)
        return a + b - r

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(greedy._Walk, "crossing", crossing)
        patch.setattr(greedy, "_predict_root", root)
        seq = greedy_sequence(driver, start, end, lam=lam, mu=mu, p=p)
    times, residuals, clamped = _reference_greedy(driver, start, end, lam, mu, p)
    assert seq.times.tobytes() == times.tobytes()
    assert seq.residuals.tobytes() == residuals.tobytes()
    assert seq.clamped == clamped


def test_greedy_model_predicts_the_smooth_steps_and_refuses_the_wrong_ones(monkeypatch):
    # the mispredictions above are not vacuous: on a sine the model predicts
    # nearly every step, and a crossing moved by one vertex is refused
    driver = analytic_driver("sine", {}, np.linspace(0.0, 1.0, 1001))
    checked, accepted = _predicted_starts(monkeypatch)
    seq = _assert_reference(driver, 0.0, 1.0, 0.75, 0.3, 1.5)
    assert len(accepted) >= seq.n_intervals - 2
    checked.clear()
    accepted.clear()
    real_crossing = greedy._Walk.crossing
    monkeypatch.setattr(greedy._Walk, "crossing",
                        lambda self, t0, w0, j0, top: min(real_crossing(self, t0, w0, j0, top) + 1, top))
    _assert_reference(driver, 0.0, 1.0, 0.75, 0.3, 1.5)
    assert checked and not accepted


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_greedy_steps_start_at_the_exact_driver_value(monkeypatch, toward):
    # the model's start values are only guesses: moved by one ulp, as its
    # Python interpolation may round, they still predict most steps, but every
    # accepted step starts from the driver's value at its predecessor's end as
    # _interp reads it.  Fails when the model's start value is used for the
    # next step
    driver = analytic_driver("sine", {}, np.linspace(0.0, 1.0, 1001))
    real_step = greedy._Walk.step
    monkeypatch.setattr(greedy._Walk, "step",
                        lambda self, t0, w0: real_step(self, t0, math.nextafter(w0, toward)))
    _, accepted = _predicted_starts(monkeypatch)
    seq = _assert_reference(driver, 0.0, 1.0, 0.75, 0.3, 1.5)
    assert len(accepted) >= seq.n_intervals // 2


def test_greedy_model_starts_on_a_plateau(monkeypatch):
    # from inside a plateau w0 == v[j0]: the row's first move is flat and
    # the row does not turn, so the model predicts the first step too
    times = np.linspace(0.0, 1.0, 401)
    driver = SampledPath(times, np.maximum(times - 0.2, 0.0))
    _, accepted = _predicted_starts(monkeypatch)
    _assert_reference(driver, 0.05, 1.0, 0.75, 0.3, 1.5)
    assert accepted[0] == 0.05


def test_greedy_turning_point_just_after_the_crossing():
    # a tent: for some budgets a step crosses mu a few vertices before the
    # peak, inside the engine's first 64-vertex row, so the row turns after
    # the crossing vertex
    times = np.linspace(0.0, 1.0, 1001)
    driver = SampledPath(times, 0.5 - np.abs(times - 0.5))
    near_peak = 0
    for mu in np.linspace(0.04, 0.12, 9):
        seq = _assert_reference(driver, 0.0, 1.0, 1.0, float(mu), 1.5)
        j0 = np.searchsorted(times, seq.times[:-1], side="right")
        j = np.searchsorted(times, seq.times[1:], side="left")
        near_peak += int(np.sum((j0 < j) & (j < 500) & (500 < j0 + 64)))
    assert near_peak > 0


def test_greedy_model_reads_the_turning_point_after_the_crossing(monkeypatch):
    # the engine reads the DP budget of a turning point after the crossing
    # vertex, inside its row, before the run that crosses.  On real
    # arithmetic that point is spent whenever the crossing vertex is, so the
    # DP is patched to report it unspent: the engine's answer then changes,
    # and the model, which takes only rows that do not turn, must leave those
    # rows to it.  Fails when the model checks the row only up to the crossing
    driver = SampledPath(np.linspace(0.0, 1.0, 2001), np.sin(3.0 * np.pi * np.linspace(0.0, 1.0, 2001)))
    budgets = [(0.75, mu, 1.5) for mu in (0.08, 0.1, 0.13, 0.17)]
    plain = [greedy_sequence(driver, 0.0, 1.0, *b).times for b in budgets]
    real_powers = greedy._powers

    def powers(row, p):
        kept, V = real_powers(row, p)
        V = V.copy()
        V[1:-1] = 0.0
        return kept, V

    monkeypatch.setattr(greedy, "_powers", powers)
    changed = 0
    for b, before in zip(budgets, plain):
        seq = greedy_sequence(driver, 0.0, 1.0, *b)
        times, residuals, clamped = _one_step_sequence(driver, 0.0, 1.0, *b)
        assert seq.times.tobytes() == times.tobytes()
        assert seq.residuals.tobytes() == residuals.tobytes()
        changed += seq.times.tobytes() != before.tobytes()
    assert changed > 0


def test_greedy_model_snaps_to_a_crossing_vertex(monkeypatch):
    # on the unit ramp with lam = p = 1 a step spends 2 (t - t0) = mu, so with
    # mu = 0.2 some steps end on vertices, where the bisection snaps to t_j
    driver = _linear_driver(101)
    _, accepted = _predicted_starts(monkeypatch)
    seq = _assert_reference(driver, 0.0, 1.0, 1.0, 0.2, 1.0)
    vertices = set(driver.times.tolist())
    snapped = [a for a, b in zip(seq.times[:-2].tolist(), seq.times[1:-1].tolist()) if b in vertices]
    assert snapped and set(snapped) <= set(accepted)


def test_greedy_steps_inside_one_segment():
    # six samples and a small budget: most steps end before the next vertex
    # (j == j0), which the model leaves to the engine
    driver = SampledPath(np.linspace(0.0, 1.0, 6), [0.0, 0.3, 0.5, 0.6, 0.65, 0.9])
    seq = _assert_reference(driver, 0.0, 1.0, 0.75, 0.05, 1.5)
    assert seq.n_intervals > 12


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_greedy_model_ends_with_a_clamped_step(monkeypatch, p):
    # the last step, whose budget is not spent at the end, is the engine's
    driver = analytic_driver("sine", {}, np.linspace(0.0, 1.0, 801))
    _, accepted = _predicted_starts(monkeypatch)
    seq = _assert_reference(driver, 0.0, 0.93, 0.75, 0.35, p)
    assert seq.clamped and seq.residuals[-1] < 0
    assert len(accepted) == seq.n_intervals - 1


def test_greedy_model_reads_time_terms_past_float_range(monkeypatch):
    # (t - t0)^300 passes float range beyond t - t0 = 10.6, and the ramp's
    # vertices are 20 apart: a step that starts within 1 of a vertex finds
    # the vertex after it spent by an infinite budget, in the model, in the
    # numpy check and in the one-step Python expression alike.  The model's
    # root guess fails on so steep a budget, so the check refuses those steps
    driver = SampledPath(np.linspace(0.0, 1000.0, 51), np.linspace(0.0, 1.0, 51))
    checked, _ = _predicted_starts(monkeypatch)
    with np.errstate(over="ignore"):
        _assert_reference(driver, 0.0, 1000.0, 300.0, 0.5, 1.5)
    assert checked


@pytest.mark.parametrize("lam, horizon", [(0.75, 1.0), (300.0, 1000.0)])
def test_greedy_model_with_an_infinite_budget(lam, horizon):
    # mu = inf is spent only by an infinite budget: one clamped step, or, past
    # float range, steps whose budgets are inf - inf = nan away from mu
    driver = SampledPath(np.linspace(0.0, horizon, 51), np.linspace(0.0, 1.0, 51))
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_reference(driver, 0.0, horizon, lam, math.inf, 1.5)
