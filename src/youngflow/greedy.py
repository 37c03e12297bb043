"""Greedy-time sequences: tile a horizon into intervals of equal budget.

The next greedy time after tau solves

    (t - tau)^lambda + |||w|||_{p-var,[tau, t]}  =  mu.

The left side is continuous and strictly increasing in t.  A running
p-variation DP walks the driver's vertices until the budget is spent, and
bisection inside that last segment of the interpolated path finds the
root.  On a scalar driver the walk keeps only the start, the turning
points and the last vertex, as `paths.p_variation` does, so each DP step
and each bisection step runs over turning points only.  The number of
full intervals inside [a, b] obeys the counting bound

    N(a,b,w) <= 2^{p'-1} / mu^{p'} * ( (b-a)^{p' lambda} + |||w|||^{p'}_{p-var,[a,b]} )

for any p' >= max(p, 1/lambda).

Both loops run a block of steps per numpy call and return the bits of the
step-by-step loops:

* Monotone runs.  Once a vertex of a scalar driver continues the monotone
  run of the last two kept points, the walk checks whether the next
  _RUN_MIN vertices do too (in plain Python, so rough drivers pay no numpy
  call for it); if so it takes the run up to its first step back, at most
  _RUN_LOOKAHEAD vertices, as one block.  Inside the run the last kept
  point is always the previous vertex, so the DP step at w_k is
  max(A_k, P_{k-1} + |w_{k-1} - w_k|^p), where A_k is the step over the
  other kept points; all A_k are one (kept x run) array.  Wherever the
  chain check P_{k-1} + |w_{k-1} - w_k|^p <= A_k holds, that max is A_k
  bit for bit, so P_k = A_k.  For p >= 1 the check holds in exact
  arithmetic: superadditivity of x^p covers the kept points the run moves
  away from, and the run's start dominates those it moves towards.
  Rounding can break it, and from the first vertex where it fails the
  walk steps one vertex at a time again.  Each vertex's
  budget is still a Python float, since numpy's array ** can round
  differently from the scalar pow, and the first one that reaches mu stops
  the walk.
* Bisection.  The 2^L - 1 midpoints of the next L = _BISECT_LEVELS levels
  are made by the same 0.5 * (a + b) as the one-step loop, evaluated as one
  (midpoints x kept) array, and the decisions are replayed in Python.

Elementwise numpy -, abs, ** and + round the same way at any array shape,
and max is exact, so every power equals its one-step value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, GreedyExhausted, ParameterError
from .paths import SampledPath, WindowLike, _endpoint_power, as_interval, p_variation

_RESIDUAL_TOL = 1e-8
_TIME_TOL = 1e-12
_MAX_BISECT = 200
# a scalar walk takes a monotone run as one block once this many vertices
# ahead continue it, and scans at most _RUN_LOOKAHEAD vertices for its end
_RUN_MIN = 6
_RUN_LOOKAHEAD = 64
# bisection levels whose midpoints are evaluated together
_BISECT_LEVELS = 6


class _Samples(NamedTuple):
    """A driver's samples as the greedy engine reads them, once per sequence."""

    path: SampledPath
    times: np.ndarray
    flat: np.ndarray  # (n, k)
    cols: list  # the k columns, contiguous, as np.interp reads them
    line: Optional[list]  # a scalar driver's values as Python floats


def _samples(driver: SampledPath) -> _Samples:
    flat = driver._flat_values()
    line = flat[:, 0].tolist() if flat.shape[1] == 1 else None
    return _Samples(driver, driver.times, flat, [np.ascontiguousarray(c) for c in flat.T], line)


def _vertex_walk(drv, t0, w0, j, stop, lam, mu, p):
    """Running p-variation DP from (t0, w0) over the vertices j, j+1, ... < stop.

    Each vertex is committed while its budget (t_j - t0)^lam + |||w|||_{p-var}
    stays strictly below mu.  Returns the first vertex not committed (stop
    when all were) and the committed values with their sup-partition powers,
    the start first.  For a scalar driver a committed vertex that continues
    the monotone run of the last committed one (not the start) overwrites
    it, so only the start, the turning points and the last vertex are kept;
    for p >= 1 that loses nothing.  A run that goes on for _RUN_MIN more
    vertices after an overwrite is taken as one block (_run_powers).
    """
    times, flat, line = drv.times, drv.flat, drv.line
    pts = np.empty((stop - j + 1, flat.shape[1]))
    V = np.empty(len(pts))
    pts[0] = w0
    V[0] = 0.0
    n = 1
    # the values of the last two kept points of a scalar driver, and whether
    # the last vertex taken by itself continued their run
    a = b = float(w0[0]) if line is not None else None
    overwrote = False
    while j < stop:
        if overwrote and stop - j >= _RUN_MIN and _continues(a, b, line, j):
            A = _run_powers(flat, pts[: n - 1], V[: n - 1], V[n - 1], a, j, stop, p)
            took = 0
            for t, power in zip(times[j : j + len(A)].tolist(), A.tolist()):
                if not (t - t0) ** lam + power ** (1.0 / p) < mu:
                    break
                took += 1
            if took:
                # every vertex of the run overwrites the last kept point
                j += took
                pts[n - 1] = flat[j - 1]
                V[n - 1] = A[took - 1]
                b = line[j - 1]
            if took < len(A) or j == stop:
                break  # the budget is spent, or no vertex is left
        power = _endpoint_power(pts[:n], V[:n], flat[j], p)
        kappa = (times[j] - t0) ** lam + power ** (1.0 / p)
        if not kappa < mu:
            break
        if line is not None:
            c = line[j]
            overwrote = n > 1 and (a <= b <= c or a >= b >= c)
            if overwrote:
                n -= 1  # no turn at the last committed vertex: overwrite it
            else:
                a = b
            b = c
        pts[n] = flat[j]
        V[n] = power
        n += 1
        j += 1
    return j, pts[:n], V[:n]


def _continues(a: float, b: float, line: list, j: int) -> bool:
    """Whether the vertices j .. j+_RUN_MIN-1 all continue the monotone run of
    the kept values a, b, by the walk's own overwrite rule; plain Python."""
    for c in line[j : j + _RUN_MIN]:
        if not (a <= b <= c or a >= b >= c):
            return False
        b = c
    return True


def _run_powers(flat, pts, V, last_power, a, j, stop, p):
    """The DP powers of the vertices j, j+1, ... of a monotone run that
    starts at the kept value a, as long as the walk's steps equal them.

    pts and V are the kept points before the last one, whose power is
    last_power.  The run ends at the first step against its direction,
    within _RUN_LOOKAHEAD vertices.  While it lasts, the last kept point is
    always the previous vertex, so the DP step at w_k is
    max(A_k, P_{k-1} + |w_{k-1} - w_k|^p) with A_k the step over pts alone;
    wherever P_{k-1} + |w_{k-1} - w_k|^p <= A_k, that max is A_k bit for bit.
    The powers are returned up to the first vertex where this chain check
    fails, which the walk then takes by itself.
    """
    seg = flat[j - 1 : min(j + _RUN_LOOKAHEAD, stop), 0]
    steps = np.diff(seg)
    # the run is monotone through its first _RUN_MIN vertices, so their last
    # one gives its direction (a plateau at a counts as rising)
    against = np.flatnonzero(steps < 0 if seg[_RUN_MIN] >= a else steps > 0)
    end = j + (int(against[0]) if len(against) else len(steps))
    A = _endpoint_power(pts, V, flat[j:end], p)
    delta = np.abs(seg[: end - j] - seg[1 : end - j + 1]) ** p
    prev = np.concatenate(([last_power], A[:-1]))
    broken = np.flatnonzero(prev + delta > A)
    return A[: broken[0]] if len(broken) else A


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

    def n_full(self, tol: float = _RESIDUAL_TOL) -> int:
        """Number of intervals that satisfy the defining equation exactly."""
        return int(np.sum(np.abs(self.residuals) <= tol))

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "mu": self.mu,
            "p": self.p,
            "times": [float(t) for t in self.times],
            "residuals": [float(r) for r in self.residuals],
            "clamped": bool(self.clamped),
        }


def _next_greedy(
    drv: _Samples,
    start: float,
    lam: float,
    mu: float,
    p: float,
    end: Optional[float] = None,
):
    """Root of the budget equation from `start`; returns (time, residual, clamped)."""
    if lam <= 0 or mu <= 0:
        raise ParameterError("greedy parameters lambda and mu must be positive")
    dom = drv.path.domain
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

    times = drv.times
    j0 = int(np.searchsorted(times, start, side="right"))
    stop = int(np.searchsorted(times, end, side="left"))
    j, pts, V = _vertex_walk(drv, start, np.ravel(drv.path.at(start)), j0, stop, lam, mu, p)

    def powers(t):
        # inside the last segment the driver is interpolated as SampledPath.at does
        values = np.stack([np.interp(t, times, c) for c in drv.cols], axis=-1)
        return _endpoint_power(pts, V, values, p)

    def kappa(t: float) -> float:
        return (t - start) ** lam + powers(t) ** (1.0 / p)

    if j < stop:
        tb = float(times[j])
    else:
        kb = kappa(end)
        if kb < mu:
            return end, kb - mu, True
        tb = end
    lo, hi = (float(times[j - 1]) if j > j0 else start), tb
    # bisection, _BISECT_LEVELS levels per batch: the midpoints of every
    # branch below [lo, hi], made by the same 0.5 * (a + b) as one step at a
    # time, are evaluated at once and the decisions replayed on them
    size = 2 ** _BISECT_LEVELS
    steps = 0
    while steps < _MAX_BISECT and hi - lo > span_tol:
        mids = [lo] * size + [hi]
        width = size
        while width > 1:
            half = width // 2
            for i in range(half, size, width):
                mids[i] = 0.5 * (mids[i - half] + mids[i + half])
            width = half
        mid_powers = powers(np.array(mids)).tolist()
        i_lo, i_hi = 0, size
        for _ in range(_BISECT_LEVELS):
            if steps == _MAX_BISECT or hi - lo <= span_tol:
                break
            i_mid = (i_lo + i_hi) // 2
            mid = mids[i_mid]
            if (mid - start) ** lam + mid_powers[i_mid] ** (1.0 / p) < mu:
                lo, i_lo = mid, i_mid
            else:
                hi, i_hi = mid, i_mid
            steps += 1
    t_star = hi
    if j < len(times) and abs(t_star - times[j]) <= span_tol:
        t_star = float(min(times[j], end))
    return t_star, kappa(t_star) - mu, False


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
    t, _, _ = _next_greedy(_samples(driver), start, lam, mu, p, end=end)
    return t


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
    span_tol = _TIME_TOL * max(1.0, abs(start) + abs(end))
    drv = _samples(driver)
    times = [float(start)]
    residuals = []
    clamped = False
    guard = 0
    t = float(start)
    while t < end - span_tol:
        nxt, res, was_clamped = _next_greedy(drv, t, lam, mu, p, end=end)
        times.append(float(nxt))
        residuals.append(float(res))
        clamped = was_clamped
        t = float(nxt)
        guard += 1
        if guard > 10_000_000:
            raise ParameterError("greedy sequence did not terminate")
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
