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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, GreedyExhausted, ParameterError
from .paths import SampledPath, WindowLike, _endpoint_power, as_interval, p_variation

_RESIDUAL_TOL = 1e-8
_TIME_TOL = 1e-12
_MAX_BISECT = 200


def _vertex_walk(times, flat, t0, w0, j, stop, lam, mu, p):
    """Running p-variation DP from (t0, w0) over the vertices j, j+1, ... < stop.

    Each vertex is committed while its budget (t_j - t0)^lam + |||w|||_{p-var}
    stays strictly below mu.  Returns the first vertex not committed (stop
    when all were) and the committed values with their sup-partition powers,
    the start first.  For a scalar driver a committed vertex that continues
    the monotone run of the last committed one (not the start) overwrites
    it, so only the start, the turning points and the last vertex are kept;
    for p >= 1 that loses nothing.
    """
    pts = np.empty((stop - j + 1, flat.shape[1]))
    V = np.empty(len(pts))
    pts[0] = w0
    V[0] = 0.0
    n = 1
    scalar = flat.shape[1] == 1
    while j < stop:
        power = _endpoint_power(pts[:n], V[:n], flat[j], p)
        kappa = (times[j] - t0) ** lam + power ** (1.0 / p)
        if not kappa < mu:
            break
        if scalar and n > 1:
            a, b, c = pts[n - 2, 0], pts[n - 1, 0], flat[j, 0]
            if a <= b <= c or a >= b >= c:
                n -= 1  # no turn at the last committed vertex: overwrite it
        pts[n] = flat[j]
        V[n] = power
        n += 1
        j += 1
    return j, pts[:n], V[:n]


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
    driver: SampledPath,
    start: float,
    lam: float,
    mu: float,
    p: float,
    end: Optional[float] = None,
):
    """Root of the budget equation from `start`; returns (time, residual, clamped)."""
    if lam <= 0 or mu <= 0:
        raise ParameterError("greedy parameters lambda and mu must be positive")
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
    j, pts, V = _vertex_walk(times, flat, start, np.ravel(driver.at(start)), j0, stop, lam, mu, p)
    # inside the last segment the driver is interpolated as SampledPath.at does
    cols = [np.ascontiguousarray(c) for c in flat.T]

    def kappa(t: float) -> float:
        value = np.array([np.interp(t, times, c) for c in cols])
        return (t - start) ** lam + _endpoint_power(pts, V, value, p) ** (1.0 / p)

    if j < stop:
        tb = float(times[j])
    else:
        kb = kappa(end)
        if kb < mu:
            return end, kb - mu, True
        tb = end
    lo, hi = (float(times[j - 1]) if j > j0 else start), tb
    for _ in range(_MAX_BISECT):
        if hi - lo <= span_tol:
            break
        mid = 0.5 * (lo + hi)
        if kappa(mid) < mu:
            lo = mid
        else:
            hi = mid
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
    t, _, _ = _next_greedy(driver, start, lam, mu, p, end=end)
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
    times = [float(start)]
    residuals = []
    clamped = False
    guard = 0
    t = float(start)
    while t < end - span_tol:
        nxt, res, was_clamped = _next_greedy(driver, t, lam, mu, p, end=end)
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
