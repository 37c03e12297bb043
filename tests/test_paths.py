import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from youngflow import (
    ControlFunction,
    DataError,
    DomainError,
    FbmSpec,
    Interval,
    JoinError,
    ParameterError,
    SampledPath,
    SizeError,
    concatenate,
    dominated_variation_bound,
    fbm_sample,
    holder_norm,
    metric_d,
    p_variation,
    p_variation_bruteforce,
    p_variation_norm,
)
from youngflow import paths
from conftest import random_path, turning_walks


def test_path_validation():
    with pytest.raises(ParameterError):
        SampledPath([0.0], [1.0])
    with pytest.raises(ParameterError):
        SampledPath([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(DataError):
        SampledPath([0.0, 1.0], [0.0, np.nan])


def test_at_on_a_long_path_copies_no_samples():
    n = 400_001
    times = np.linspace(0.0, 2.0, n)
    values = np.sin(np.linspace(0.0, 40.0, n))
    path = SampledPath(times, values)
    assert not (path.times.flags.writeable or path.values.flags.writeable or times.flags.writeable)
    tracemalloc.start()
    try:
        got = path.at(0.7654321)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    expected = np.interp(0.7654321, times.copy(), values.copy())
    assert got.shape == (1,) and got[0] == expected
    # a time within the tolerance outside the domain reads the end value
    assert path.at([-1e-13, 2.0 + 1e-13]).tolist() == [[values[0]], [values[-1]]]


def test_pvar_trivial_cases():
    const = SampledPath([0, 1, 2], [3.0, 3.0, 3.0])
    for p in (1.0, 1.5, 2.0):
        assert p_variation(const, p) == 0.0
    zigzag = SampledPath([0, 1, 2], [0.0, 1.0, 0.0])
    assert p_variation(zigzag, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert p_variation(zigzag, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    # single-jump partition {0,2} beats {0,1,2}: 3^2 = 9 > 1 + 4
    ramp = SampledPath([0, 1, 2], [0.0, 1.0, 3.0])
    assert p_variation(ramp, 2.0) == pytest.approx(3.0, abs=1e-15)


def test_pvar_rejects_bad_params():
    path = SampledPath([0, 1], [0.0, 1.0])
    with pytest.raises(ParameterError):
        p_variation(path, 0.5)
    with pytest.raises(DomainError):
        p_variation(path, 1.5, (0.0, 2.0))


def test_bruteforce_matches_dp(rng):
    for _ in range(40):
        n = int(rng.integers(3, 13))
        dim = int(rng.integers(1, 3))
        path = random_path(rng, n, dim)
        for p in (1.0, 1.3, 1.5, 2.0):
            dp = p_variation(path, p)
            bf = p_variation_bruteforce(path, p)
            assert abs(dp - bf) <= 1e-12 * max(1.0, bf)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    values=st.one_of(turning_walks(max_n=20), turning_walks(max_n=20, dim=2)),
    p=st.floats(1.0, 3.0),
)
def test_pvar_matches_bruteforce_on_turning_walks(values, p):
    # scalar paths are pruned to their turning points, 2-d paths are not
    path = SampledPath(np.arange(len(values), dtype=float), values)
    exact = p_variation_bruteforce(path, p)
    assert abs(p_variation(path, p) - exact) <= 1e-12 * exact


def _plain_dp(flat, p):
    """The p-variation DP powers over every sample, without pruning."""
    V = np.zeros(len(flat))
    for j in range(1, len(flat)):
        diff = flat[:j] - flat[j]
        if flat.shape[1] == 1:
            norms = np.abs(diff[:, 0])
        else:
            norms = np.sqrt(np.einsum("ik,ik->i", diff, diff))
        V[j] = (V[:j] + norms ** p).max()
    return V


def _plain_pvar(flat, p):
    """p_variation by the plain DP."""
    if p == 1.0:
        return float(np.sum(np.linalg.norm(np.diff(flat, axis=0), axis=1)))
    return float(_plain_dp(flat, p)[-1] ** (1.0 / p))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    values=st.one_of(turning_walks(max_n=300), turning_walks(max_n=60, dim=2)),
    p=st.floats(1.0, 3.0),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_pruned_pvar_is_bit_equal_to_the_plain_dp(values, p, scale):
    path = SampledPath(np.arange(len(values), dtype=float), scale * values)
    assert p_variation(path, p) == _plain_pvar(path._flat_values(), p)


_BLOCK = paths._BLOCK_STEPS


def _long_scalar_path(kind):
    rng = np.random.default_rng(20261018)
    if kind == "fbm":
        return fbm_sample(FbmSpec(hurst=0.7, horizon=1.0, samples=4097, seed=7))
    if kind == "gaussian":
        values = np.cumsum(rng.standard_normal(5000))
    elif kind == "drift":
        # deep suffix-minimum stacks: blocks end at _BLOCK_PAIRS legs
        values = np.cumsum(rng.standard_normal(5000) + 0.3)
    elif kind == "integer":
        # steps of -1, 0 or 1: many repeated values and plateaus
        values = np.cumsum(rng.integers(-1, 2, 5000)).astype(float)
    else:
        # a zigzag of kind DP steps: every sample is a turning point
        values = np.cumsum(rng.exponential(size=kind + 1) * (-1.0) ** np.arange(kind + 1))
    return SampledPath(np.arange(len(values), dtype=float), values)


@pytest.mark.parametrize(
    "kind", ["gaussian", "integer", "fbm", "drift", _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 40]
)
def test_long_scalar_pvar_is_bit_equal_to_the_plain_dp(kind):
    # long paths keep deep suffix-extremum stacks, which short walks rarely
    # build, and cross block edges; every kept point's power is a row the
    # control reads
    flat = _long_scalar_path(kind)._flat_values()
    for p in (1.5, 2.0, 2.5, 3.7):
        kept, V = paths._powers(flat, p)
        assert np.array_equal(V, _plain_dp(flat, p)[kept])


def test_pvar_constant_two_point_and_final_plateau():
    const = SampledPath([0.0, 1.0], [2.5, 2.5])
    plateau = SampledPath(np.arange(7.0), [0.0, 2.0, -1.0, 1.5, 0.5, 0.5, 0.5])
    for p in (1.5, 2.0, 3.7):
        assert p_variation(const, p) == _plain_pvar(const._flat_values(), p) == 0.0
        exact = p_variation_bruteforce(plateau, p)
        assert p_variation(plateau, p) == _plain_pvar(plateau._flat_values(), p)
        assert abs(p_variation(plateau, p) - exact) <= 1e-12 * exact


def test_bruteforce_two_point_and_size_cap(rng):
    two = SampledPath([0.0, 1.0], [[0.0, 0.0], [3.0, 4.0]])
    assert p_variation_bruteforce(two, 1.7) == pytest.approx(5.0, abs=1e-14)
    big = random_path(rng, 25)
    with pytest.raises(SizeError):
        p_variation_bruteforce(big, 1.5)


def test_monotonicity_in_p_and_window(rng):
    for _ in range(10):
        path = random_path(rng, 24)
        values = [p_variation(path, p) for p in (1.0, 1.3, 1.5, 2.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        lo, hi = path.times[0], path.times[-1]
        mid = 0.5 * (lo + hi)
        inner = p_variation(path, 1.5, (lo + 0.1 * (hi - lo), mid))
        outer = p_variation(path, 1.5, (lo, hi))
        assert inner <= outer + 1e-12


def test_pvar_power_is_control(rng):
    path = random_path(rng, 20)
    ctrl = ControlFunction.from_p_variation(path, 1.5)
    assert ctrl.diagonal_defect(path.times[:5]) == 0.0
    assert ctrl.superadditivity_defect(path.times) <= 1e-10


@st.composite
def paths_with_windows(draw):
    """A path, n <= 200, over a span of 1 or 300: a Gaussian walk, an integer
    walk with plateaus, a sine plus 1e-3 noise or a 2-d walk, some with a
    sample within the path's time tolerance of its first or last; and
    windows whose ends lie on samples, between them or within tol of one,
    with degenerate windows and a left end revisited."""
    kind = draw(st.sampled_from(["gauss", "integer", "sine", "planar"]))
    n = draw(st.integers(3, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([1.0, 300.0]))
    times = np.sort(rng.uniform(0.0, span, n)) + np.arange(n) * 1e-6 * span
    tol = 1e-12 * max(times[-1] - times[0], 1.0)
    near = draw(st.sampled_from(["none", "none", "first", "last", "both"]))
    if near in ("first", "both"):
        times[1] = times[0] + draw(st.floats(0.05, 0.95)) * tol
    if near in ("last", "both") and n > 3:
        times[-2] = times[-1] - draw(st.floats(0.05, 0.95)) * tol
    if kind == "gauss":
        values = np.cumsum(rng.standard_normal(n))
    elif kind == "integer":
        values = np.cumsum(rng.integers(-2, 3, n) * (rng.random(n) < 0.6)).astype(float)
    elif kind == "sine":
        values = np.sin(6.0 * times / times[-1]) + 1e-3 * rng.standard_normal(n)
    else:
        values = np.cumsum(rng.standard_normal((n, 2)), axis=0)
    last = times[-1] + 0.5 * tol

    def end():
        i = draw(st.integers(0, n - 1))
        # near ends twice as often: the tolerance rules act there
        where = draw(st.sampled_from(["on", "between", "near", "near"]))
        if where == "on":
            return float(times[i])
        if where == "between":
            j = min(i + 1, n - 1)
            return float(times[i] + draw(st.floats(0.0, 1.0)) * (times[j] - times[i]))
        near = times[i] + draw(st.floats(-2.0, 2.0)) * tol
        return float(np.clip(near, times[0] - 0.5 * tol, last))

    windows = []
    for _ in range(draw(st.integers(2, 8))):
        s, t = sorted((end(), end()))
        windows.append((s, t))
        if draw(st.booleans()):
            windows.append((s, min(s + draw(st.floats(0.0, 1.0)) * tol, last)))
    s = windows[0][0]
    windows.append((s, max(s, end())))
    # a window that covers the path, each end within tol inside or outside it
    windows.append((float(times[0] + draw(st.floats(-0.9, 0.9)) * tol),
                    float(times[-1] + draw(st.floats(-0.9, 0.9)) * tol)))
    return SampledPath(times, values), windows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=paths_with_windows(), p=st.sampled_from([1.0, 1.5, 2.0]) | st.floats(1.0, 3.0))
def test_pvar_control_is_bit_equal_to_windowed_pvar(case, p):
    # one DP row per left end, then one DP step per window; restrict cuts
    # every window as p_variation does
    path, windows = case
    ctrl = ControlFunction.from_p_variation(path, p)
    for s, t in windows:
        assert ctrl(s, t) == p_variation(path, p, (s, t), power=True), (s, t)
        assert p_variation(path.restrict((s, t)), p) == p_variation(path, p, (s, t)), (s, t)
    # the covering window reads the whole path, its samples within tol of the ends included
    s, t = windows[-1]
    assert path.restrict((s, t)) is path
    assert ctrl(s, t) == p_variation(path, p, power=True), (s, t)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [1.0, 1.7, 2.5])
def test_pvar_control_covering_windows_read_the_whole_path(dim, p):
    # a window on the domain, or with ends within tol outside it, is bit-equal
    # to the whole path's p-variation; one beyond tol is outside the domain
    rng = np.random.default_rng(23)
    times = np.linspace(0.0, 300.0, 241)
    path = SampledPath(times, np.cumsum(rng.standard_normal((241, dim)), axis=0))
    tol = 1e-12 * 300.0
    whole = p_variation(path, p, power=True)
    ctrl = ControlFunction.from_p_variation(path, p)
    for s, t in [(0.0, 300.0), (-0.5 * tol, 300.0), (0.0, 300.0 + 0.9 * tol),
                 (-0.9 * tol, 300.0 + 0.5 * tol)]:
        assert ctrl(s, t) == whole, (s, t)
        assert p_variation(path, p, (s, t), power=True) == whole, (s, t)
    for s, t in [(-2.0 * tol, 300.0), (0.0, 300.0 + 2.0 * tol)]:
        with pytest.raises(DomainError):
            ctrl(s, t)


def test_controls_of_one_path_share_its_dp_rows(monkeypatch):
    # two controls of one path and one p run the DP row of each left end
    # once between them (the window that covers the path reads the first
    # row too), read values bit-equal to the windowed p-variation, and hold
    # no reference that keeps the path alive
    rng = np.random.default_rng(7)
    path = random_path(rng, 400)
    p = 2.5
    ts = path.times
    lefts = [float(ts[i]) for i in (0, 17, 150, 301)]
    ends = (float(ts[-1]) - 1e-3, float(ts[390]), float(ts[-1]))
    windows = [(s, t) for s in lefts for t in ends + (s + 0.2,) if t - s > 0.05]
    want = [p_variation(path, p, w, power=True) for w in windows]
    rows_run = []
    real = paths._powers

    def counted(flat, p):
        rows_run.append(len(flat))
        return real(flat, p)

    monkeypatch.setattr(paths, "_powers", counted)
    a = ControlFunction.from_p_variation(path, p)
    b = ControlFunction.from_p_variation(path, p)
    got = [c(s, t) for s, t in windows for c in (a, b)]
    assert len(rows_run) == len(lefts)
    assert got == [v for v in want for _ in (a, b)]
    ref = weakref.ref(path)
    gc.disable()
    try:
        del path, a, b
        assert ref() is None
    finally:
        gc.enable()


def test_pvar_control_rows_keyed_near_the_first_sample():
    # a row keyed by s within tol after the first sample starts at the first
    # sample, as the window cut and restrict do, so it reads the windows of 0.0
    times = np.linspace(0.0, 300.0, 11)
    path = SampledPath(times, [0.0, 3.0, 1.0, 4.0, -2.0, 2.0, 2.0, 5.0, -1.0, 0.0, 3.0])
    tol = 1e-12 * 300.0
    for p in (1.5, 2.0, 2.5):
        ctrl = ControlFunction.from_p_variation(path, p)
        for s in (0.5 * tol, 0.9 * tol):
            for t in (150.0, 151.3, 299.0):
                assert ctrl(s, t) == p_variation(path, p, (s, t), power=True), (p, s, t)
                assert ctrl(s, t) == ctrl(0.0, t), (p, s, t)


def test_samples_within_tol_of_the_domain_ends_stay_in_its_windows():
    # the sample at 1e-13 lies within tol of the first: a window that starts
    # within tol of the domain's start keeps both, so (0, 1) reads the whole
    # path, 5^2 + 4^2 + 2^2 = 45, not the 3^2 of its first and last samples
    path = SampledPath([0.0, 1e-13, 0.5, 1.0], [0.0, 5.0, 1.0, 3.0])
    ctrl = ControlFunction.from_p_variation(path, 2.0)
    for s, t in [(0.0, 1.0), (0.5e-12, 1.0), (-0.5e-12, 1.0 + 0.5e-12)]:
        assert path.restrict((s, t)) is path
        assert p_variation(path, 2.0, (s, t), power=True) == 45.0
        assert ctrl(s, t) == 45.0
    assert p_variation(path, 2.0, power=True) == 45.0
    # a window no longer than tol reads 0.0 in the domain and is refused outside it
    assert ctrl(0.5, 0.5) == ctrl(1.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        ctrl(1.5, 1.5)


def test_window_cut_to_one_sample_has_no_variation():
    # a window 2 tol long whose ends both lie within tol of one sample cuts to
    # two samples of the value at its centre; restrict, p_variation and the
    # control all read 0.0
    path = SampledPath([0.0, 1.0, 2.0], [0.0, 5.0, 1.0])
    s, t = 1.0 - 2e-12, 1.0 + 2e-12
    assert len(paths._window_samples(path, Interval(s, t))[0]) == 2
    assert p_variation(path.restrict((s, t)), 2.0) == 0.0
    for p in (1.0, 2.0):
        assert p_variation(path, p, (s, t)) == 0.0
        assert ControlFunction.from_p_variation(path, p)(s, t) == 0.0


def test_refining_linear_segments_keeps_pvar(rng):
    # interior points of straight segments never increase the supremum
    path = random_path(rng, 15)
    mid_t = 0.5 * (path.times[:-1] + path.times[1:])
    mid_v = 0.5 * (path.values[:-1] + path.values[1:])
    times = np.sort(np.concatenate([path.times, mid_t]))
    refined = SampledPath(times, path.at(times))
    assert len(refined.times) == 2 * len(path.times) - 1
    np.testing.assert_allclose(mid_v, refined.values[1::2], atol=1e-12)
    for p in (1.0, 1.3, 1.7, 2.0):
        assert p_variation(refined, p) == pytest.approx(p_variation(path, p), abs=1e-11)


def test_holder_norm_basics(rng):
    lin = SampledPath(np.linspace(0, 1, 21), np.linspace(0, 1, 21))
    assert holder_norm(lin, 1.0) == pytest.approx(1.0, abs=1e-12)
    const = SampledPath([0, 1, 2], [5.0, 5.0, 5.0])
    assert holder_norm(const, 0.5) == 0.0
    with pytest.raises(ParameterError):
        holder_norm(lin, 1.5)


def test_pvar_bounded_by_holder(rng):
    # |||x|||_{p-var} <= |||x|||_{alpha-Hol} (b-a)^alpha whenever p*alpha >= 1
    for _ in range(8):
        path = random_path(rng, 30)
        for p, alpha in ((2.0, 0.5), (1.5, 0.75), (1.3, 0.9)):
            assert p * alpha >= 1.0
            lo, hi = path.domain.lo, path.domain.hi
            lhs = p_variation(path, p)
            rhs = holder_norm(path, alpha) * (hi - lo) ** alpha
            assert lhs <= rhs + 1e-10


def test_concatenate_and_power_sandwich(rng):
    for _ in range(10):
        a = random_path(rng, 12)
        b_vals = np.cumsum(rng.standard_normal((8, 1)), axis=0) + a.values[-1]
        b_vals[0] = a.values[-1]
        b = SampledPath(a.times[-1] + np.linspace(0, 0.5, 8), b_vals)
        joined = concatenate(a, b)
        assert len(joined.times) == len(a.times) + len(b.times) - 1
        p = 1.6
        lo = p_variation(a, p) ** p + p_variation(b, p) ** p
        full = p_variation(joined, p) ** p
        hi = 2 ** (p - 1) * lo
        assert lo - 1e-10 <= full <= hi + 1e-10


def test_kfold_concatenation_sandwich(rng):
    p = 1.4
    for k in range(2, 6):
        pieces = []
        t0, v0 = 0.0, np.zeros(1)
        for _ in range(k):
            seg = random_path(rng, 6)
            vals = seg.values - seg.values[0] + v0
            pieces.append(SampledPath(t0 + seg.times - seg.times[0], vals))
            t0 = pieces[-1].times[-1]
            v0 = pieces[-1].values[-1]
        joined = pieces[0]
        for piece in pieces[1:]:
            joined = concatenate(joined, piece)
        parts = sum(p_variation(piece, p) ** p for piece in pieces)
        total = p_variation(joined, p) ** p
        assert parts - 1e-10 <= total <= (k - 1) ** (p - 1) * parts + 1e-10


def test_concatenate_constant_tail_keeps_pvar():
    a = SampledPath([0, 1, 2], [0.0, 1.0, 0.5])
    tail = SampledPath([2.0, 2.5, 3.0], [0.5, 0.5, 0.5])
    joined = concatenate(a, tail)
    for p in (1.0, 1.5):
        assert p_variation(joined, p) == pytest.approx(p_variation(a, p), abs=1e-14)


def test_concatenate_mismatch_raises():
    a = SampledPath([0, 1], [0.0, 1.0])
    with pytest.raises(JoinError):
        concatenate(a, SampledPath([1.5, 2.0], [1.0, 2.0]))
    with pytest.raises(JoinError):
        concatenate(a, SampledPath([1.0, 2.0], [1.5, 2.0]))


def _whole_line_pair(rng, cap=4):
    ts = np.linspace(-cap, cap, 200)
    w1 = SampledPath(ts, np.cumsum(rng.standard_normal((200, 1)), axis=0) * 0.2)
    w2 = SampledPath(ts, np.cumsum(rng.standard_normal((200, 1)), axis=0) * 0.2)
    return w1, w2


def test_metric_d_properties(rng):
    w1, w2 = _whole_line_pair(rng)
    assert metric_d(w1, w1, 4, 1.5) == 0.0
    d = metric_d(w1, w2, 4, 1.5)
    assert 0 < d < 1 - 2.0 ** (-4)
    # sandwich: d <= ||w1-w2||_{p-var,[-n,n]} + 2^-n for each truncation level
    from youngflow.paths import difference_pvar_norm

    for n in (1, 2, 3, 4):
        nrm = difference_pvar_norm(w1, w2, 1.5, (-n, n))
        assert d <= nrm + 2.0 ** (-n) + 1e-12
    # monotone in the cap
    assert metric_d(w1, w2, 2, 1.5) <= metric_d(w1, w2, 4, 1.5) + 1e-15
    with pytest.raises(ParameterError):
        metric_d(w1, w2, 0, 1.5)


def test_dominated_variation_bound_cases(rng):
    lin = SampledPath(np.linspace(0, 1, 30), np.linspace(0, 1, 30))
    assert dominated_variation_bound(lin, 1.0, [(1.0, ControlFunction.linear(1.0))])
    zero = SampledPath(np.linspace(0, 1, 30), np.zeros(30))
    assert dominated_variation_bound(
        zero, 1.5, [(0.5, ControlFunction.linear(2.0)), (0.1, ControlFunction.power(2.0))]
    )
    # too-small coefficient must fail
    assert not dominated_variation_bound(lin, 1.0, [(0.5, ControlFunction.linear(1.0))])


def test_pvar_norm_includes_initial_value():
    path = SampledPath([0, 1], [[3.0], [4.0]])
    assert p_variation_norm(path, 1.5) == pytest.approx(4.0, abs=1e-14)


def test_thin_indices_without_keep_match_their_unique_sorted_reference():
    # the cast linspace is sorted and unique already, so thin_indices needs
    # no np.unique: same values and dtype as through it
    caps = (1, 2, 3, 5, 25, 32, 400, 512, 699, 4097, 65537, 400_001, 10**9)
    for n in [*range(700), 2049, 10_001, 65_537, 250_001, 400_001]:
        for cap in caps:
            got = paths.thin_indices(n, cap)
            want = np.unique(np.linspace(0, n - 1, min(n, cap)).astype(int))
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, cap)


def test_restrict_interpolates_endpoints():
    path = SampledPath([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    sub = path.restrict((0.5, 1.5))
    assert sub.times[0] == pytest.approx(0.5)
    assert sub.times[-1] == pytest.approx(1.5)
    assert sub.values[0, 0] == pytest.approx(1.0)
    assert sub.values[-1, 0] == pytest.approx(1.0)
    with pytest.raises(DomainError):
        path.at(2.5)
