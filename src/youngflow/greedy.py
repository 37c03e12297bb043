"""Greedy-time sequences: tile a horizon into intervals of equal budget.

The next greedy time after tau solves

    (t - tau)^lambda + |||w|||_{p-var,[tau, t]}  =  mu.

The left side is continuous and strictly increasing in t.  The number of
full intervals inside [a, b] obeys the counting bound

    N(a,b,w) <= 2^{p'-1} / mu^{p'} * ( (b-a)^{p' lambda} + |||w|||^{p'}_{p-var,[a,b]} )

for any p' >= max(p, 1/lambda).

The one-step engine (_next_greedy) reads each vertex's budget off the
p-variation DP of paths._powers, the one that p_variation and the
certificates run, over the start value and a row of vertices after it that
doubles from _FIRST_WINDOW vertices until the budget is spent.  It bisects
the segment where the budget reaches mu, predicting the decisions from a
root guess and checking them in batches with the one-step expression
(t - tau)^lambda + power^(1/p) < mu, where a term past float range reads
inf.  greedy_sequence takes a scalar driver's steps from a walk model
(_Walk) where the engine's rows do not turn: Python floats predict runs of
steps, one numpy evaluation per run checks every decision the engine would
make, and the engine takes only the steps the check refuses or the model
declines.  README "Greedy times" states the rules, and why each keeps every
bit of the engine's result.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, GreedyExhausted, ParameterError
from .paths import _TIME_TOL, SampledPath, WindowLike, _endpoint_power, _powers, as_interval, p_variation

_RESIDUAL_TOL = 1e-8
_MAX_BISECT = 200
# vertices in the first DP row of a greedy step; the row doubles until the
# budget is spent
_FIRST_WINDOW = 64
# regula falsi steps of a root guess
_MAX_PREDICT = 64
# steps the walk model predicts before one exact check
_MAX_RUN = 32
# a numpy budget farther than this from mu, relative and absolute, is on the
# side of mu that the one-step Python expression gives (_Walk.check)
_SLACK_REL = 64 * np.finfo(float).eps
_SLACK_ABS = 64 * np.finfo(float).smallest_subnormal


def _first_spent(times, powers, t0, lam, mu, p) -> int:
    """Index of the first (time, power) whose budget (t - t0)^lam +
    power^(1/p), in Python floats, reaches mu; len(times) when none does.
    A term past float range is inf, as in numpy, so its budget is spent."""
    for i, (t, power) in enumerate(zip(times, powers)):
        try:
            if not (t - t0) ** lam + power ** (1.0 / p) < mu:
                return i
        except OverflowError:
            return i
    return len(times)


def _budget_row(driver, t0, w0, j0, stop, lam, mu, p):
    """The first vertex j in j0 .. stop-1 whose budget (t_j - t0)^lam +
    |||w|||_{p-var,[t0, t_j]} reaches mu (stop when none does), and the kept
    points before it with their DP powers, the start first.

    The DP row runs over (t0, w0) and the vertices j0 .. hi, one past the
    last vertex it decides, so that each kept point before j has the turning
    status it has on the whole driver.  A kept point's budget reads its DP
    power; a vertex between two kept points continues the monotone run from
    the first, whose DP step is over the kept points up to that one.
    """
    times, flat = driver.times, driver._flat_values()
    hi = min(stop, j0 + _FIRST_WINDOW)
    while True:
        row = np.concatenate([w0[None], flat[j0 : hi + 1]])  # row r holds vertex j0 + r - 1
        kept, V = _powers(row, p)
        decided = kept[1:-1]  # the row's last point, vertex hi, is past them
        i = _first_spent(times[decided + (j0 - 1)].tolist(), V[1:-1].tolist(), t0, lam, mu, p)
        # the crossing lies in the run from kept row a to kept row r
        a, r = int(kept[i]), int(kept[i + 1])
        inner = _endpoint_power(row[kept[: i + 1]], V[: i + 1], row[a + 1 : r], p)
        q = _first_spent(times[j0 + a : j0 + r - 1].tolist(), inner.tolist(), t0, lam, mu, p)
        if q < len(inner):
            j = j0 + a + q
            break
        if i < len(decided):
            j = j0 + r - 1
            break
        if hi == stop:
            j = stop
            break
        hi = min(stop, j0 + 2 * (hi - j0))
    k = int(np.searchsorted(kept, j - j0 + 1))
    return j, row[kept[:k]], V[:k]


@dataclass(frozen=True)
class GreedySequence:
    """Times tau_0 < ... <= end with per-step residuals of the defining equation."""

    times: np.ndarray
    lam: float
    mu: float
    p: float
    residuals: np.ndarray
    clamped: bool

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1

    def n_full(self) -> int:
        """Number of intervals that satisfy the defining equation, up to _RESIDUAL_TOL."""
        return int(np.sum(np.abs(self.residuals) <= _RESIDUAL_TOL))

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "p": self.p,
            "times": [float(t) for t in self.times],
            "residuals": [float(r) for r in self.residuals],
            "clamped": bool(self.clamped),
        }


def _check_budget(lam: float, mu: float, p: float) -> None:
    if not (lam > 0 and mu > 0 and p >= 1):  # NaN fails; mu = inf is a legal budget
        raise ParameterError("greedy parameters need lambda > 0, mu > 0 and p >= 1")


def _predict_root(g, a, b, tol):
    """A root of g in [a, b] by regula falsi with the Illinois rule (Dowell
    and Jarratt, BIT 11, 1971), safeguarded by bisection: the right end of a
    bracket no wider than tol, or an end with the sign change within one
    float of it (a guess a huge g puts on an end bisects); a if g(a) >= 0,
    b if g(b) < 0."""
    fa, fb = g(a), g(b)
    if fa >= 0:
        return a
    side = 0
    for _ in range(_MAX_PREDICT):
        if fb < 0 or b - a <= tol:
            break
        c = b - fb * (b - a) / (fb - fa)
        if not a <= c <= b:  # an infinite g(b) gives nan: bisect
            c = 0.5 * (a + b)
        elif (c == a or c == b) and (g(math.nextafter(c, b if c == a else a)) < 0) != (c == b):
            c = 0.5 * (a + b)
        if c == a or c == b:
            return c
        fc = g(c)
        if fc < 0:
            a, fa = c, fc
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side > 0:
                fa *= 0.5
            side = 1
    return b


def _next_greedy(
    driver: SampledPath,
    start: float,
    lam: float,
    mu: float,
    p: float,
    end: Optional[float] = None,
    w_start: Optional[np.ndarray] = None,
):
    """Root of the budget equation from `start`, whose flat driver value is
    w_start (read from the driver when None); returns (time, residual,
    clamped, flat driver value at time)."""
    _check_budget(lam, mu, p)
    dom = driver.domain
    if end is None:
        end = dom.hi
    end = min(end, dom.hi)
    span_tol = _TIME_TOL * max(1.0, abs(dom.hi) + abs(dom.lo))
    if start < dom.lo - span_tol or start > dom.hi + span_tol:
        raise DomainError(f"start {start} outside driver domain")
    if start >= end - span_tol:
        raise GreedyExhausted(f"no room after t={start}")
    # SampledPath.at has a tighter tolerance than span_tol: read the start in-domain
    start = max(start, dom.lo)

    times, flat = driver.times, driver._flat_values()
    j0 = int(np.searchsorted(times, start, side="right"))
    stop = int(np.searchsorted(times, end, side="left"))
    w0 = np.ravel(driver.at(start)) if w_start is None else w_start
    j, pts, V = _budget_row(driver, start, w0, j0, stop, lam, mu, p)

    def batch(ts):
        # the driver at the times ts, read as at reads it, and each time's
        # budget by the one-step expression
        values = driver._interp(ts)
        powers = _endpoint_power(pts, V, values, p).tolist()
        kappas = [math.inf] * len(powers)  # a term past float range stays inf
        for i, (t, q) in enumerate(zip(ts, powers)):
            try:
                kappas[i] = (t - start) ** lam + q ** (1.0 / p)
            except OverflowError:
                pass
        return values, kappas

    if j < stop:
        tb = float(times[j])
    else:
        values, (kb,) = batch([end])
        if kb < mu:
            return end, kb - mu, True, values[0]
        tb = end
    # bisection of [lo, tb]: replay it on a guessed root, evaluate every
    # midpoint visited in one batch, keep the decisions the exact budget
    # confirms and replay again from the first it overturns
    t_a, dt, w_a = float(times[j - 1]), float(times[j] - times[j - 1]), flat[j - 1].tolist()
    slope = [(y - x) / dt for x, y in zip(w_a, flat[j].tolist())]
    xs, vs = pts.tolist(), V.tolist()

    def g(t):
        # kappa(t) - mu in Python floats on the segment's affine driver: a guess
        w = [x + (t - t_a) * d for x, d in zip(w_a, slope)]
        try:
            power = max([v + math.dist(w, x) ** p for x, v in zip(xs, vs)])
            return (t - start) ** lam + power ** (1.0 / p) - mu
        except OverflowError:  # a leg power or time term past float range, inf in numpy
            return math.inf

    lo, hi, steps = (t_a if j > j0 else start), tb, 0
    while True:
        # a guess far closer than span_tol leaves the last midpoints on its right side
        r = _predict_root(g, lo, hi, span_tol / 1024)
        mids, a, b = [], lo, hi
        while steps + len(mids) < _MAX_BISECT and b - a > span_tol:
            mids.append(0.5 * (a + b))
            a, b = (mids[-1], b) if mids[-1] < r else (a, mids[-1])
        # the first batch also holds tb, where a step near it snaps
        values, kappas = batch(mids if steps else mids + [tb])
        if not steps:
            at_tb = at_hi = (values[-1], kappas[-1])
        for i, mid in enumerate(mids):
            below = kappas[i] < mu
            steps += 1
            if below:
                lo = mid
            else:
                hi, at_hi = mid, (values[i], kappas[i])
            if below != (mid < r):
                break
        else:
            break
        if steps == _MAX_BISECT or hi - lo <= span_tol:
            break
    # tb is min(times[j], end)
    t_star, (value, kappa) = (tb, at_tb) if abs(hi - times[j]) <= span_tol else (hi, at_hi)
    return t_star, kappa - mu, False, value


class _Step(NamedTuple):
    """A predicted greedy step: its start t0 with the model's driver value w0
    there, the first vertex j0 after t0, the crossing vertex j, the
    direction of the driver's moves after j0 (head); the bisection's
    midpoints and then t_j (times), the guessed root r, whose side decides
    each midpoint, and the index in times of the step's end."""

    t0: float
    w0: float
    j0: int
    j: int
    head: int
    times: list
    r: float
    star: int


class _Walk:
    """Greedy steps of a scalar driver, predicted in Python floats a run at a
    time and checked with one exact numpy evaluation per run (see the module
    docstring); end is greedy_sequence's."""

    def __init__(self, driver: SampledPath, start: float, end: float, lam: float, mu: float,
                 p: float):
        self.driver, self.lam, self.mu, self.p = driver, lam, mu, p
        dom = driver.domain
        self.lo, self.end = dom.lo, min(end, dom.hi)
        self.span_tol = _TIME_TOL * max(1.0, abs(dom.hi) + abs(dom.lo))
        # the samples, read as Python floats without a copy
        self.ts = memoryview(np.ascontiguousarray(driver.times))
        self.vs = memoryview(driver._cols[0])
        self.stop = bisect.bisect_left(self.ts, self.end)
        # the model's parameters, as Python floats
        self.model = float(lam), float(mu), float(p), 1.0 / float(p)
        self.length = 1  # vertices the last step spanned: the next step's guess
        # fewer turns in the window than one per first DP row: on a rougher
        # driver nearly every step turns, and the model would only add its
        # refusals to the one-step engine's work
        flip_from, flip_to, flip_dir, self.last_dir = driver._turns
        i0 = bisect.bisect_right(self.ts, start)
        turns = int(np.searchsorted(flip_from, self.stop) - np.searchsorted(flip_from, i0))
        self.smooth = turns * _FIRST_WINDOW <= self.stop - i0
        if self.smooth:
            self.flip_from, self.flip_to, self.flip_dir = (
                flip_from.tolist(), flip_to.tolist(), flip_dir.tolist())

    def crossing(self, t0: float, w0: float, j0: int, top: int) -> int:
        """The first vertex in j0 .. top-1 whose model budget reaches mu (top
        when none does), galloping from the last step's length; the budget
        over the start alone is nondecreasing on a run that does not turn."""
        ts, vs = self.ts, self.vs
        lam, mu, p, inv_p = self.model

        def spent(i):
            try:
                return not (ts[i] - t0) ** lam + (abs(w0 - vs[i]) ** p) ** inv_p < mu
            except OverflowError:
                return True

        lo, hi = j0 - 1, top  # vertex lo is below mu (or the start), vertex hi spent or past
        i, gap = min(j0 + self.length, top - 1), 1
        if spent(i):
            hi = i
            while hi - gap > lo:
                if not spent(hi - gap):
                    lo = hi - gap
                    break
                hi, gap = hi - gap, 2 * gap
        else:
            lo = i
            while lo + gap < hi:
                if spent(lo + gap):
                    hi = lo + gap
                    break
                lo, gap = lo + gap, 2 * gap
        while hi - lo > 1:
            i = (lo + hi) // 2
            if spent(i):
                hi = i
            else:
                lo = i
        return hi

    def step(self, t0: float, w0: float) -> Optional[_Step]:
        """The step from t0, whose driver value is about w0; None where the
        model does not apply and the one-step engine takes the step."""
        ts, vs, stop, span_tol = self.ts, self.vs, self.stop, self.span_tol
        if not self.lo <= t0 < self.end - span_tol:
            return None  # the engine clamps the start or raises
        j0 = bisect.bisect_right(ts, t0)
        # the driver's moves from j0 keep one direction, head, up to limit
        f = bisect.bisect_left(self.flip_from, j0)
        limit, head = len(ts), self.last_dir
        if f < len(self.flip_to):
            limit, head = self.flip_to[f], self.flip_dir[f]
        top = min(stop, limit)
        if min(stop, j0 + _FIRST_WINDOW) > limit or top <= j0:
            return None  # the engine's first row turns
        j = self.crossing(t0, w0, j0, top)
        if j == j0 or j == top:
            return None
        # the engine's last DP row, vertices j0 .. row, must not turn, nor
        # its head, the move from the start value to vertex j0, turn back
        row = j0 + _FIRST_WINDOW
        while row <= j:
            row = j0 + 2 * (row - j0)
        if min(stop, row) > limit or (vs[j0] - w0) * head < 0:
            return None
        self.length = j - j0
        # the engine's bisection of [t_{j-1}, t_j], replayed on a guessed root
        lam, mu, p, inv_p = self.model
        t_a, tb, w_a = ts[j - 1], ts[j], vs[j - 1]
        slope = (vs[j] - w_a) / (tb - t_a)

        def g(t):
            try:
                return (t - t0) ** lam + (abs(w_a + (t - t_a) * slope - w0) ** p) ** inv_p - mu
            except OverflowError:
                return math.inf

        r = _predict_root(g, t_a, tb, span_tol / 1024)
        times, star = [], -1
        a, b = t_a, tb
        for _ in range(_MAX_BISECT):
            if not b - a > span_tol:
                break
            m = 0.5 * (a + b)
            times.append(m)
            if m < r:
                a = m
            else:
                b, star = m, len(times) - 1
        times.append(tb)
        if abs(b - tb) <= span_tol:  # a step that ends near t_j snaps to it
            star = len(times) - 1
        return _Step(t0, w0, j0, j, head, times, r, star)

    def predict(self, t: float, w: float, t_stop: float, room) -> tuple:
        """Up to room (and _MAX_RUN) consecutive steps from t, whose driver
        value is w, while t < t_stop; and whether the model took every step
        it was asked for (False when it declined the next one)."""
        ts, vs = self.ts, self.vs
        run = []
        while len(run) < room and len(run) < _MAX_RUN and t < t_stop:
            step = self.step(t, w)
            if step is None:
                return run, False
            run.append(step)
            j, t = step.j, step.times[step.star]
            dt = ts[j] - ts[j - 1]
            w = vs[j] if t == ts[j] else vs[j - 1] + (t - ts[j - 1]) * (vs[j] - vs[j - 1]) / dt
        return run, True

    def kappa(self, t: float, t0: float, q: float) -> float:
        """The one-step budget (t - t0)^lam + q^(1/p) in Python floats; a term
        past float range is inf."""
        try:
            return (t - t0) ** self.lam + q ** (1.0 / self.p)
        except OverflowError:
            return math.inf

    def check(self, run: list, w: np.ndarray) -> list:
        """The longest prefix of run whose every decision the one-step engine
        makes too, as (time, residual, driver value at time) per step; w is
        the exact driver value at the first step's start, shape (1,).

        The budgets are computed in numpy and trusted where they lie farther
        from mu than _SLACK_REL (kappa + mu) + _SLACK_ABS; every other one is
        recomputed by the one-step expression (kappa).  Both read the same
        t - t0 and power and differ only in pow: if numpy's and the C
        library's pow are within 4 ulps, each term differs by at most 8 ulps
        and the sums by less than 20 eps kappa + 16 tiny, inside the slack.
        Pow's accuracy is assumed, not checked, as in paths._prune_pairs."""
        driver, lam, mu, p = self.driver, self.lam, self.mu, self.p
        xs, at_x, pos = [], [], []
        for step in run:
            pos.append(len(xs) + step.star)
            at_x.append(len(step.times))
            xs += step.times
        t0s, _, j0s, js, heads, _, rs, _ = zip(*run)
        # every step's vertices j0 .. j, then its midpoints and t_j
        counts = np.subtract(js, j0s) + 1
        ends = np.cumsum(counts)
        n_v = int(ends[-1])
        idx = np.arange(n_v) + np.repeat(np.subtract(j0s, ends - counts), counts)
        X = np.array(xs)
        values = driver._interp(X)[:, 0]
        # a step starts at the driver value at its predecessor's end, as _interp reads it
        w0s = np.concatenate([w, values[pos[:-1]]])
        owner = np.repeat(np.arange(2 * len(run)) % len(run), np.concatenate([counts, at_x]))
        # the DP's V[0] + leg over the start, rounded as _leg_powers rounds it
        powers = 0.0 + np.abs(w0s[owner] - np.concatenate([driver._cols[0][idx], values])) ** p
        T, T0 = np.concatenate([driver.times[idx], X]), np.array(t0s)[owner]
        with np.errstate(all="ignore"):
            kappa = (T - T0) ** lam + powers ** (1.0 / p)
            below = kappa < mu
            unsure = np.flatnonzero(~(np.abs(kappa - mu) > _SLACK_REL * (kappa + mu) + _SLACK_ABS))
        for i in unsure.tolist():
            below[i] = self.kappa(float(T[i]), float(T0[i]), float(powers[i])) < mu
        # the vertices before each step's j are below mu and j is not; each
        # midpoint is on its guess's side; t_j decides nothing
        want = np.ones_like(below)
        want[ends - 1] = False
        np.less(X, np.array(rs)[owner[n_v:]], out=want[n_v:])
        last = np.cumsum(at_x) - 1 + n_v
        want[last] = below[last]
        # and each row's head keeps its direction at the exact start value
        bad = np.concatenate([owner[below != want],
                              np.flatnonzero((driver._cols[0][list(j0s)] - w0s) * heads < 0)])
        n_ok = int(bad.min()) if len(bad) else len(run)
        return [(xs[i], self.kappa(xs[i], t0, float(powers[n_v + i])) - mu, values[i : i + 1])
                for t0, i in zip(t0s[:n_ok], pos)]


def next_greedy_time(
    driver: SampledPath,
    start: float,
    lam: float,
    mu: float,
    p: float,
    end: Optional[float] = None,
) -> float:
    """The unique t with (t-start)^lam + |||w|||_{p-var,[start,t]} = mu.

    Returns the (possibly capped) domain end when the budget is never
    exhausted there; raises GreedyExhausted when start is already at the end.
    """
    return _next_greedy(driver, start, lam, mu, p, end=end)[0]


def greedy_sequence(
    driver: SampledPath,
    start: float,
    end: float,
    lam: float,
    mu: float,
    p: float,
) -> GreedySequence:
    """Iterate greedy times from start until end; the final time is clamped."""
    dom = driver.domain
    if not (dom.contains(start) and dom.contains(end)):
        raise DomainError("greedy window outside driver domain")
    if start >= end:
        raise ParameterError("greedy sequence needs start < end")
    _check_budget(lam, mu, p)
    # the 1-variation of the samples that cover the window bounds the
    # p-variation from above, so the counting bound on it caps the full
    # intervals; one step more is the clamped last one, one more is slack
    i0 = max(int(np.searchsorted(driver.times, start, side="right")) - 1, 0)
    i1 = int(np.searchsorted(driver.times, end)) + 1
    var = float(np.linalg.norm(np.diff(driver._flat_values()[i0:i1], axis=0), axis=1).sum())
    with np.errstate(all="ignore"):  # a bound past float range caps nothing
        max_steps = counting_bound(end - start, var, lam, mu, np.float64(max(p, 1.0 / lam))) + 2
    span_tol = _TIME_TOL * max(1.0, abs(start) + abs(end))
    times = [float(start)]
    residuals = []
    clamped = False
    t, w = float(start), None
    walk = _Walk(driver, start, end, lam, mu, p) if len(driver._cols) == 1 else None
    if walk is not None and not walk.smooth:
        walk = None
    while t < end - span_tol:
        if walk is not None:
            # a run of predicted steps, checked at once; the step after the
            # verified ones, if any, is the one-step engine's
            if w is None:
                w = np.ravel(driver.at(max(t, dom.lo)))
            run, whole = walk.predict(t, float(w[0]), end - span_tol, max_steps - len(residuals))
            steps = walk.check(run, w) if run else []
            for nxt, res, w in steps:  # never clamped, like every step before them
                times.append(nxt)
                residuals.append(float(res))
            t = times[-1]
            if run and whole and len(steps) == len(run):
                continue
        if len(residuals) >= max_steps:
            raise ParameterError(
                f"greedy sequence took {len(residuals)} steps, past its counting bound"
            )
        nxt, res, was_clamped, w = _next_greedy(driver, t, lam, mu, p, end=end, w_start=w)
        times.append(float(nxt))
        residuals.append(float(res))
        clamped = was_clamped
        t = float(nxt)
    if abs(times[-1] - end) <= span_tol:
        times[-1] = float(end)
    return GreedySequence(
        times=np.array(times),
        lam=lam,
        mu=mu,
        p=p,
        residuals=np.array(residuals),
        clamped=clamped,
    )


def counting_bound(span: float, var: float, lam: float, mu: float, p_prime: float) -> float:
    """2^{p'-1} / mu^{p'} * (span^{p' lam} + var^{p'}); 0.0 when mu is infinite."""
    return float(
        (2.0 ** (p_prime - 1.0) / mu ** p_prime) * (span ** (p_prime * lam) + var ** p_prime)
    )


@dataclass(frozen=True)
class CountBound:
    """Observed interval count against the closed-form counting bound."""

    actual: int
    bound: float
    p_prime: float

    @property
    def satisfied(self) -> bool:
        return self.actual <= int(np.ceil(self.bound))


def count_bound(
    driver: SampledPath,
    window: WindowLike,
    lam: float,
    mu: float,
    p: float,
    p_prime: float,
) -> CountBound:
    """Count full greedy intervals in the window and evaluate the bound."""
    if p_prime < max(p, 1.0 / lam) - 1e-12:
        raise ParameterError(
            f"p_prime must be >= max(p, 1/lambda) = {max(p, 1.0 / lam)}"
        )
    window = as_interval(window)
    a, b = window.lo, window.hi
    if b <= a:
        return CountBound(actual=0, bound=0.0, p_prime=p_prime)
    seq = greedy_sequence(driver, a, b, lam, mu, p)
    bound = counting_bound(b - a, p_variation(driver, p, window), lam, mu, p_prime)
    return CountBound(actual=seq.n_full(), bound=bound, p_prime=p_prime)
