"""Greedy-time sequences: tile a horizon into intervals of equal budget.

The next greedy time after tau solves

    (t - tau)^lambda + |||w|||_{p-var,[tau, t]}  =  mu.

The left side is continuous and strictly increasing in t.  The budget at
each vertex comes from the p-variation DP of `paths._powers`, the one that
`p_variation` and the certificates run, over the start value and the
vertices after it; bisection inside the segment where the budget reaches mu
finds the root.  The number of full intervals inside [a, b] obeys the
counting bound

    N(a,b,w) <= 2^{p'-1} / mu^{p'} * ( (b-a)^{p' lambda} + |||w|||^{p'}_{p-var,[a,b]} )

for any p' >= max(p, 1/lambda).

One DP row covers the vertices of a window that starts with _FIRST_WINDOW
vertices and doubles until the budget is spent.  A scalar driver's row
keeps the start, the turning points and its last vertex, so a vertex
inside a monotone run has as its DP step the max over the kept points up
to the run's start; the run where the budget crosses mu takes that step
for all its vertices in one stacked call.

Bisection predicts, replays and verifies.  Regula falsi guesses the root
in Python floats on the segment's affine driver; the one-step bisection,
with its 0.5 * (a + b) midpoints and its stop, is replayed on the guess;
the midpoints visited and the segment's end, where a step may snap, are
read through SampledPath._interp, as SampledPath.at reads them, and
evaluated as one (times x kept) array; and each decision is checked with
the one-step expression (t - tau)^lambda + power^(1/p) < mu, where a term
past float range reads inf, as in numpy.
The replay restarts from the first decision the check overturns.
Elementwise numpy -, abs, ** and + round the same way at any array shape
while max is exact, so each power equals its one-step value and every
decision is the one-step loop's: a wrong guess costs batches, never a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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
    bracket no wider than tol, or a point the next step cannot move; a if
    g(a) >= 0, b if g(b) < 0."""
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
    while t < end - span_tol:
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
