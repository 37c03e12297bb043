"""Picard solving of dx = f(t,x) dt + g(t,x) dw on greedy intervals.

The solution map on an interval anchored at t0 is

    F(x)_t = x_{t0} + int_{t0}^t f(s, x_s) ds + int_{t0}^t g(s, x_s) dw_s

(the trapezoid rule, young's midpoint rule, for both terms: against the clock
and against w).  On any interval with (t1-t0)^alpha + |||w|||_{p-var} <= mu*
and mu* = 1/(2 M (K+2)) the map sends the ball ||x||_{q-var} <= 2|x_{t0}|+1
into itself, and Picard iteration from the constant path converges; if it
does not converge within the iteration budget the interval is shrunk and
re-solved.  The global solution is the chunk-by-chunk continuation, and
certificates (sewing estimate, Gronwall-type self-bound, growth bound)
are evaluated on the result.  A stack of initial states is solved on one
greedy partition and grid (solve_forward_batch); each member stops and
shrinks on its own, so it equals its one-state solve bit for bit.

One kernel, _solution_map, evaluates F for apply_F and for every Picard
iteration, bit-equal to young's separate midpoint-rule sums, on member
arrays a window builds once (_grid_data).  Transports (keep_path False)
compute the end states alone, and independent ones run in lockstep
(_lockstep): one Picard slice a step on the current chunks of all lanes.
A backward window (solve_backward, a backward transport) is the forward
problem on the reversed clock, its field read at reflected times (_leg).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .coefficients import (
    CoefficientField,
    DerivedConstants,
    ExponentSet,
    composed_path,
    derived_constants,
)
from .errors import DataError, DomainError, ParameterError, ShapeError, SolveError
from .greedy import GreedySequence, greedy_sequence
from .paths import (
    ControlFunction,
    SampledPath,
    WindowLike,
    _variation,
    merge_times,
    p_variation,
    p_variation_norm,
    thin_indices,
)
from .young import _RULES, Certificate, YoungConstants, _pair_terms, _running_sum, young_loeve_check

_LN2 = math.log(2.0)
# the anchors that pair up the certificates' windows
_GRONWALL_ANCHORS = 10
_GROWTH_ANCHORS = 6
_SHRINK_FACTOR = 0.5
# slack of the Gronwall hypothesis and of its doubling recursion
_GRONWALL_TOL = 1e-8


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and grid policy for a solve.

    oversample subdivides every base grid segment into that many equal
    quadrature steps; grid adds output sample times to the base grid.
    """

    picard_tol: float = 1e-10
    picard_max_iters: int = 50
    grid: Optional[np.ndarray] = None
    mu_override: Optional[float] = None
    oversample: int = 1

    def __post_init__(self):
        # not (...) comparisons, which NaN fails; a count is finite before int()
        if not self.picard_tol > 0:
            raise ParameterError("picard_tol must be positive")
        for name in ("picard_max_iters", "oversample"):
            v = getattr(self, name)
            if not (v >= 1 and math.isfinite(v) and int(v) == v):
                raise ParameterError(f"{name} must be a positive integer")


@dataclass(frozen=True)
class FApplication:
    """F(x) together with its drift and noise components."""

    path: SampledPath
    drift_part: SampledPath
    young_part: SampledPath


@dataclass
class SolveReport:
    solution: SampledPath
    greedy: GreedySequence
    iters_per_interval: List[int]
    fixed_point_residuals: List[float]
    ball_ok: bool
    certificates: List[Certificate]
    exponents: ExponentSet
    mu: float
    constants: DerivedConstants
    t0: float
    T: float
    x0: np.ndarray
    direction: str = "forward"

    @property
    def max_residual(self) -> float:
        return max(self.fixed_point_residuals) if self.fixed_point_residuals else 0.0

    @property
    def max_iters(self) -> int:
        return max(self.iters_per_interval) if self.iters_per_interval else 0

    def certificate(self, name: str) -> Optional[Certificate]:
        for cert in self.certificates:
            if cert.name == name:
                return cert
        return None

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "t0": float(self.t0),
            "T": float(self.T),
            "x0": [float(v) for v in np.atleast_1d(self.x0)],
            "mu": float(self.mu),
            "exponents": asdict(self.exponents),
            "greedy": self.greedy.to_json(),
            "n_chunks": len(self.iters_per_interval),
            "iters_per_interval": [int(i) for i in self.iters_per_interval],
            "max_fixed_point_residual": float(self.max_residual),
            "ball_ok": bool(self.ball_ok),
            "certificates": [c.to_json() for c in self.certificates],
        }


# ----------------------------------------------------------------------
# the solution map


def _grid_data(field: CoefficientField, ts: np.ndarray, ws: np.ndarray, b: int = 1,
               clock: Optional[float] = None):
    """The member arrays of _solution_map for b states on the grid ts and the
    driver ws there: times np.repeat(ts, b) as (n, b), the shared [dt, dw]
    (k, n-1, 1, d) and, for m > 1, the increments (n-1, b, m).  On the
    reversed clock t0 + T = clock (reversed_problem) f and g are read at
    clock - ts against -dt: time_reversed's -f bit for bit (README "Picard")."""
    d, m = field.dim_d, field.dim_m
    if ws.shape[1] != m:
        raise ShapeError(f"integrand columns {m} != driver dimension {ws.shape[1]}")
    dw = ws[1:] - ws[:-1]
    coef = np.empty((2 if m == 1 else 1, len(ts) - 1, 1, d))  # the parts the product makes
    coef[0] = (ts[1:] - ts[:-1] if clock is None else ts[:-1] - ts[1:])[:, None, None]
    if m == 1:
        coef[1] = dw[:, :, None]
    times = np.repeat(ts if clock is None else clock - ts, b).reshape(len(ts), b)
    return times, coef, (np.repeat(dw, b, axis=0).reshape(len(dw), b, m) if m > 1 else None)


def _solution_map(field: CoefficientField, times: np.ndarray, coef: np.ndarray,
                  dw: Optional[np.ndarray] = None, rows: Optional[int] = None):
    """F for a stack of b states, each on its own times (n, b) with its own
    coefficients (k, n-1, b, d) or shared ones (k, n-1, 1, d) and
    increments (_grid_data): map(lo, hi) is F on the rows lo..hi, a function
    of a stack x (n, b, d) returning the running sums S (2, n, b, d), so
    F(x) = x_{t_lo} + S[0] + S[1] (drift, then noise).  Both take young's
    midpoint rule: the end values of each step, f and g over one flattened
    (n*b, d) axis, are added into S, halved and, for m = 1, multiplied by
    the stacked [dt, dw].  For m > 1 the noise term is _pair_terms (einsum),
    whose sum over the m columns a sum in order misses in the last bit once
    m >= 3.  One np.add.accumulate from S's zero row sums both, so a zero
    noise sum reads +0.0, as einsum's terms sum.  S holds rows points (all
    n by default).  The map reads the member arrays in place, so a caller
    may refill them between calls; S is overwritten by the next call, and
    the product runs under the caller's np.errstate, as einsum's noise
    products do not warn on inf * 0 or overflow.
    """
    d, m = field.dim_d, field.dim_m
    k, b = len(coef), times.shape[1]
    ts_b, dw_b = times.reshape(-1), None if dw is None else dw.reshape(-1, m)
    S_buf = np.zeros((2, len(times) if rows is None else rows, b, d))

    def chunk(lo: int, hi: int):
        n = hi - lo + 1
        S = S_buf[:, :n]
        # the step sums in the (n*b, ...) rows of f and g: row j and row j + b
        drift, noise = S[0, 1:].reshape(-1, d), S[1, 1:].reshape(-1, d, 1)
        terms, t, c = S[:k, 1:], ts_b[lo * b:(hi + 1) * b], coef[:, lo:hi]

        def sums(x: np.ndarray) -> np.ndarray:
            flat = x.reshape(n * b, d)
            f_vals = field.eval_f(t, flat)
            np.add(f_vals[:-b], f_vals[b:], out=drift)
            g_vals = field.eval_g(t, flat)
            if m == 1:
                np.add(g_vals[:-b], g_vals[b:], out=noise)
            np.multiply(terms, 0.5, out=terms)
            np.multiply(terms, c, out=terms)
            if m > 1:
                noise[..., 0] = _pair_terms(0.5 * (g_vals[:-b] + g_vals[b:]), dw_b[lo * b:hi * b])
            return np.add.accumulate(S, axis=1, out=S)

        return sums

    return chunk


def apply_F(
    field: CoefficientField,
    driver: SampledPath,
    x: SampledPath,
    window: WindowLike = None,
) -> FApplication:
    """Evaluate the solution map on x's grid, anchored at the window start."""
    sub = x.restrict(window)
    ts = sub.times
    sums = _solution_map(field, *_grid_data(field, ts, driver.at(ts)))(0, len(ts) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        S = sums(sub.values[:, None, :])[:, :, 0]
    return FApplication(SampledPath(ts, sub.values[0] + S[0] + S[1]),
                        SampledPath(ts, S[0]), SampledPath(ts, S[1]))


def apply_F_certificate(
    field: CoefficientField,
    driver: SampledPath,
    x: SampledPath,
    exponents: ExponentSet,
    window: WindowLike = None,
) -> Certificate:
    """Certify |||F(x)|||_q <= M(K+2)(1+||x||_q)((t1-t0)^alpha + |||w|||_p)."""
    sub = x.restrict(window)
    t0, t1 = float(sub.times[0]), float(sub.times[-1])
    cons = derived_constants(field, t0, t1, exponents.K0)
    fx = apply_F(field, driver, sub)
    lhs = p_variation(fx.path, exponents.q)
    theta = (t1 - t0) ** exponents.alpha + p_variation(driver, exponents.p, (t0, t1))
    rhs = cons.M * (exponents.K0 + 2.0) * (1.0 + p_variation_norm(sub, exponents.q)) * theta
    return Certificate(
        name="solution_map_bound",
        lhs=float(lhs),
        rhs=float(rhs),
        ok=bool(lhs <= rhs + 1e-10),
        window=(t0, t1),
        extra={"M": cons.M, "K": exponents.K0, "theta": float(theta)},
    )


# ----------------------------------------------------------------------
# Picard iteration on one grid slice


def _start_norms(x0: np.ndarray) -> List[float]:
    """np.linalg.norm of each state of x0 (B, d) bit for bit: sqrt(v.dot(v)),
    at d = 1 sqrt(v * v) in one call; for d > 1 BLAS's dot may fuse the
    multiply-adds, which no vectorised sum of squares does."""
    if x0.shape[1] == 1:
        return np.sqrt(x0[:, 0] * x0[:, 0]).tolist()
    return [float(np.linalg.norm(v)) for v in x0]


class _Slice(NamedTuple):
    """Picard on one grid slice for a stack of B states."""

    values: np.ndarray  # (n, B, d); a failed member's rows hold its last iterate
    iters: int  # iterations of the members that converged, summed
    residuals: Optional[np.ndarray]  # (B,), None without diagnostics
    ball_ok: Optional[np.ndarray]  # (B,), None without diagnostics
    member_iters: np.ndarray  # (B,)
    failed: np.ndarray  # (B,)


def _picard_slice(
    field: CoefficientField,
    ts: np.ndarray,
    ws: np.ndarray,
    x0: np.ndarray,
    opts: SolveOptions,
    q: float,
    x_init: Optional[np.ndarray] = None,
    sums=None,
    diagnostics: bool = True,
) -> _Slice:
    """Iterate F to the numerical fixed point on a fixed grid slice, for the
    stack of initial states x0, shape (B, d).

    Convergence first to picard_tol within picard_max_iters, then a polish
    phase well below picard_tol so that chunked and monolithic solves of
    the same grid agree far inside the reported residuals.  Every member
    stops by these rules on its own iterates, and its iterate is frozen
    from then on, so it ends exactly where its one-state slice ends.
    Non-convergence is reported in failed, the mask of the members that
    diverge or exhaust the budget (every member when none converges).

    The members stay in place: each pass applies F (sums, the solve's map on
    this slice, or one of its own) to the whole stack and writes back the
    live members only.  A failed member is reset to its start, so no later
    pass meets a diverging iterate, and gets its last iterate back at the end.
    Without diagnostics there is no ball screen or residual pass (residuals
    and ball_ok None).  One np.errstate(over="ignore", invalid="ignore")
    covers the slice, f and g included: a live member's non-finite iterate
    raises DataError, not a RuntimeWarning.
    """
    if q < 1:
        raise ParameterError(f"the ball norm needs q >= 1, got {q}")
    n, (B, d) = len(ts), x0.shape
    x = np.repeat(x0[None], n, axis=0) if x_init is None else np.array(x_init, dtype=float)
    x0_norm = _start_norms(x0)
    scale = [max(1.0, v) for v in x0_norm]
    eps, tol_floor = 64.0 * np.finfo(float).eps, 1e-5 * opts.picard_tol
    floor = [max(eps * v, tol_floor) for v in scale]
    cap = [1e8 * v for v in scale]  # a change above it diverges
    ball_cap = [2.0 * v + 1.0 for v in x0_norm]
    ball_ok = [True] * B
    reached_tol = [False] * B
    failed = [False] * B
    member_iters = [0] * B
    changes = [math.inf] * B  # each member's latest change, read as its previous one
    max_total = opts.picard_max_iters + 40
    # within the budget, every live member goes on when all changes lie in (go_floor, go_cap]
    go_floor, go_cap = max(floor + [opts.picard_tol]), min(cap, default=math.inf)
    if sums is None:
        sums = _solution_map(field, *_grid_data(field, ts, ws, B))(0, n - 1)

    def apply_f(x):
        S = sums(x)
        fx = x0 + S[0]
        fx += S[1]
        return fx

    live = list(range(B))  # the members still iterating, all at the same count
    parked = {}  # the last iterates of the members that failed
    iters = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live and iters < max_total:
            fx = apply_f(x)
            prev, changes = changes, np.maximum.reduce(np.abs(fx - x), axis=(0, 2)).tolist()
            live_changes = changes if len(live) == B else [changes[b] for b in live]
            # a non-finite entry of a live member's fx makes its change non-finite
            if not math.isfinite(sum(live_changes)) and not np.isfinite(fx[:, live]).all():
                raise DataError("Picard iterate contains non-finite entries")
            if len(live) == B:
                x = fx
            else:
                np.copyto(x, fx, where=is_live)
            iters += 1
            if diagnostics:
                # the ball screen for the whole stack, on every grid point: the
                # 1-variation bounds the q-variation from above (q >= 1), as row
                # sums of a contiguous (members, steps) array, each the np.sum of
                # that member's step norms.  For d = 1 the norm is abs, which is
                # np.linalg.norm's sqrt(s * s) only where s * s neither
                # underflows nor overflows; the DP, run where the bound with a
                # rounding margin does not settle it, decides the flag
                steps = fx[1:] - fx[:-1]
                steps = np.abs(steps[:, :, 0]) if d == 1 else np.linalg.norm(steps, axis=2)
                var1 = np.add.reduce(np.ascontiguousarray(steps.T), axis=1).tolist()
                for b in live:
                    if ((x0_norm[b] + var1[b]) * (1.0 + 1e-12) > ball_cap[b] + 1e-9
                            and x0_norm[b] + _variation(fx[:, b], q) > ball_cap[b] + 1e-9):
                        ball_ok[b] = False
            if (iters < opts.picard_max_iters and min(live_changes) > go_floor
                    and max(live_changes) <= go_cap):
                continue
            still = []
            for b in live:
                change = changes[b]
                member_iters[b] = iters
                if change > cap[b]:
                    failed[b] = True  # diverging
                elif change <= floor[b]:
                    reached_tol[b] = True
                elif change < opts.picard_tol:
                    reached_tol[b] = True
                    if not change >= 0.9999 * prev[b]:  # else stalled at rounding level
                        still.append(b)
                elif iters >= opts.picard_max_iters:
                    failed[b] = True  # no contraction within the iteration budget
                else:
                    still.append(b)
            if len(still) < len(live):
                is_live = np.zeros((B, 1), dtype=bool)
                is_live[still] = True
                for b in live:
                    if failed[b]:  # its start stands in for it in the passes that follow
                        parked[b] = x[:, b].copy()
                        x[:, b] = x0[b]
                live = still
        unconverged = [failed[b] or not reached_tol[b] for b in range(B)]
        residuals = None
        if diagnostics:
            residuals = np.zeros(B)
            if not all(unconverged):
                residuals = np.maximum.reduce(np.abs(apply_f(x) - x), axis=(0, 2))
                residuals[unconverged] = 0.0
    for b, last in parked.items():
        x[:, b] = last
    return _Slice(x, sum(k for k, u in zip(member_iters, unconverged) if not u), residuals,
                  np.array(ball_ok) if diagnostics else None, np.array(member_iters),
                  np.array(unconverged))


def _solve_span(
    field: CoefficientField,
    ts: np.ndarray,
    ws: np.ndarray,
    x0: np.ndarray,
    opts: SolveOptions,
    q: float,
    depth: int = 0,
    diagnostics: bool = True,
    clock: Optional[float] = None,
    first: Optional[_Slice] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Picard on the slice for the stack x0 (B, d), shrinking recursively;
    first is the slice's result when the caller has run it (_lockstep).

    Only the members that did not converge are re-solved, together, on the
    two parts of the slice, each part with a solution map of its own (on
    clock, _grid_data), so every member's values, iteration count, residual
    and ball flag are those of its own one-state solve.  Without diagnostics
    the residuals and ball flags are None.
    """
    if first is None:
        sums = _solution_map(field, *_grid_data(field, ts, ws, len(x0), clock))(0, len(ts) - 1)
        first = _picard_slice(field, ts, ws, x0, opts, q, sums=sums, diagnostics=diagnostics)
    vals, _, residuals, ball_ok, iters, failed = first
    if not failed.any():
        return vals, iters, residuals, ball_ok
    if depth >= 20 or len(ts) < 3:
        raise SolveError(
            f"Picard failed on [{ts[0]}, {ts[-1]}] at depth {depth}",
            window=(float(ts[0]), float(ts[-1])),
        )
    k = int(round(_SHRINK_FACTOR * (len(ts) - 1)))
    k = min(max(k, 1), len(ts) - 2)
    left, il, rl, bl = _solve_span(field, ts[: k + 1], ws[: k + 1], x0[failed], opts, q,
                                   depth + 1, diagnostics, clock)
    right, ir, rr, br = _solve_span(field, ts[k:], ws[k:], left[-1], opts, q, depth + 1,
                                    diagnostics, clock)
    vals[:, failed] = np.concatenate([left, right[1:]])
    iters[failed] = il + ir
    if diagnostics:
        residuals[failed] = np.maximum(rl, rr)
        ball_ok[failed] = bl & br
    return vals, iters, residuals, ball_ok


def solve_interval(
    field: CoefficientField,
    driver: SampledPath,
    t0: float,
    x0,
    t1: float,
    opts: Optional[SolveOptions] = None,
    exponents: Optional[ExponentSet] = None,
    warm_start: Optional[SampledPath] = None,
) -> Tuple[SampledPath, int, float]:
    """Solve one interval by Picard iteration.

    The initial iterate is the constant path at x0 (it lies in the
    invariant ball of the local theory); warm_start supplies a different
    first iterate, e.g. an explicit one-step path, for cross-checks.
    """
    opts = opts or SolveOptions()
    if exponents is None:
        raise ParameterError("solve_interval needs an ExponentSet")
    ts = _build_grid(driver, t0, t1, opts)
    ws = driver.at(ts)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))[None]
    if warm_start is not None:
        x_init = warm_start.at(ts)[:, None, :]
        vals, iters, residual, _, _, failed = _picard_slice(
            field, ts, ws, x0, opts, exponents.q, x_init=x_init
        )
        if failed[0]:
            raise SolveError(f"Picard failed from the warm start on [{t0}, {t1}]",
                             window=(float(t0), float(t1)))
    else:
        vals, iters, residual, _ = _solve_span(field, ts, ws, x0, opts, exponents.q)
        iters = int(iters[0])
    return SampledPath(ts, vals[:, 0]), iters, float(residual[0])


# ----------------------------------------------------------------------
# grids and chunking


def _build_grid(driver: SampledPath, t0: float, t1: float, opts: SolveOptions) -> np.ndarray:
    if t1 <= t0:
        raise ParameterError("solve window needs t0 < T")
    base = driver.restrict((t0, t1)).times
    if opts.grid is not None:
        extra = np.asarray(opts.grid, dtype=float)
        extra = extra[(extra > t0) & (extra < t1)]
        base = merge_times(base, extra)
    k = int(opts.oversample)
    if k == 1:
        return base
    n = len(base)
    refined = np.empty(n + (n - 1) * (k - 1))
    refined[:: k] = base
    seg = np.diff(base)
    for j in range(1, k):
        refined[j::k] = base[:-1] + (j / k) * seg
    return refined


def _chunk_boundaries(ts: np.ndarray, greedy_times: np.ndarray) -> List[int]:
    """Indices of the solve-grid points nearest the greedy times (the earlier on a tie).

    Times are never inserted into the grid: the discrete solution depends on
    the grid alone, so moving a chunk end changes it only at rounding level.
    A rounded chunk can exceed the budget mu by that of up to half a grid
    step at each end; the invariant-ball check (ball_ok) still watches it.
    """
    j = np.clip(np.searchsorted(ts, greedy_times), 1, len(ts) - 1)
    j -= greedy_times - ts[j - 1] <= ts[j] - greedy_times
    return [int(i) for i in np.unique(j)]


# ----------------------------------------------------------------------
# global forward and backward solves


class BatchSolve(NamedTuple):
    """A forward solve of a stack of B initial states over one window; without
    keep_path, times and values hold T and the end states alone and
    residuals and ball_ok are None."""

    times: np.ndarray  # (n,)
    values: np.ndarray  # (n, B, d)
    greedy: GreedySequence
    iters: np.ndarray  # (chunks, B)
    residuals: Optional[np.ndarray]  # (chunks, B)
    ball_ok: Optional[np.ndarray]  # (B,)
    mu: float
    constants: DerivedConstants


class _Leg(NamedTuple):
    """One window of a lockstep lane for its b states, built by _leg."""

    ts: np.ndarray
    ws: np.ndarray
    chunks: List[Tuple[int, int]]
    data: tuple
    clock: Optional[float]  # t0 + T of a window solved on the reversed clock
    greedy: GreedySequence
    mu: float
    constants: DerivedConstants
    field: CoefficientField  # the field and driver of the window's constants and certificates
    driver: SampledPath


def _leg(field: CoefficientField, driver: SampledPath, t0: float, T: float, b: int,
         opts: Optional[SolveOptions], exponents: Optional[ExponentSet]) -> _Leg:
    """The window from t0 to T for b states: forward when t0 < T, else the
    forward problem on the reversed clock (reversed_problem, _grid_data)."""
    if exponents is None:
        raise ParameterError("solve_forward needs an ExponentSet")
    clock, window_field = None, field
    if T < t0:
        window_field, driver, opts = reversed_problem(field, driver, T, t0, opts)
        clock, t0, T = T + t0, T, t0
    opts, dom = opts or SolveOptions(), driver.domain
    if not (dom.contains(t0) and dom.contains(T)) or not t0 < T:
        raise DomainError(f"solve window [{t0}, {T}] outside driver domain")
    cons = derived_constants(window_field, t0, T, exponents.K0)
    mu = opts.mu_override if opts.mu_override is not None else cons.mu_star
    greedy = greedy_sequence(driver, t0, T, lam=exponents.alpha, mu=mu, p=exponents.p)
    ts = _build_grid(driver, t0, T, opts)
    idx = _chunk_boundaries(ts, greedy.times)
    ws = driver.at(ts)
    return _Leg(ts, ws, list(zip(idx[:-1], idx[1:])), _grid_data(field, ts, ws, b, clock), clock,
                greedy, float(mu), cons, window_field, driver)


def _lockstep(field: CoefficientField, lanes, opts: Optional[SolveOptions],
              exponents: ExponentSet, diagnostics: bool = False):
    """Advance lanes, each a stack (B, d) and its chain of legs (_leg), one
    greedy chunk a step; yields (lane, a, b) and _solve_span's outputs for
    rows a..b of each leg.  A step copies the chunk of every lane that has
    one into the step arrays, a shorter one padded with its last time and
    zero dt and dw, and makes one _picard_slice call: each member iterates
    as alone (README "Picard").  A lane reads its end at its own last row,
    and only its failed members are re-solved, on its own slice (_solve_span
    from the step's result).  Diagnostics, which padded rows would enter,
    take one lane.
    """
    opts = opts or SolveOptions()
    states = [x0 for x0, _ in lanes]
    chunks = [[(leg, a, b) for leg in legs for a, b in leg.chunks] for _, legs in lanes]
    stacks = {}  # the columns, step arrays and map of each set of lanes that steps together
    for step in range(max(map(len, chunks), default=0)):
        active = tuple(l for l, lane in enumerate(chunks) if step < len(lane))
        if active not in stacks:
            edges = np.cumsum([0] + [len(states[l]) for l in active]).tolist()
            rows = max(b - a for l in active for _, a, b in chunks[l]) + 1
            m, w, (_, coef, dw) = field.dim_m, edges[-1], chunks[active[0]][0][0].data
            buf = (np.empty((rows, w)), np.empty((len(coef), rows - 1, w, field.dim_d)),
                   None if dw is None else np.empty((rows - 1, w, m)))
            stacks[active] = ([slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])], buf,
                              _solution_map(field, *buf, rows=rows))
        cols, (times, coef, dw), step_map = stacks[active]
        spans = [chunks[l][step] for l in active]
        grid = max((leg.ts[a:b + 1] for leg, a, b in spans), key=len)
        n = len(grid)
        for (leg, a, b), c in zip(spans, cols):
            k, (leg_times, leg_coef, leg_dw) = b - a + 1, leg.data
            times[:k, c] = leg_times[a:b + 1]
            times[k:n, c] = leg_times[b]
            coef[:, :k - 1, c] = leg_coef[:, a:b]
            coef[:, k - 1:n - 1, c] = 0.0
            if dw is not None:
                dw[:k - 1, c] = leg_dw[a:b]
                dw[k - 1:n - 1, c] = 0.0
        r = _picard_slice(field, grid, None, np.concatenate([states[l] for l in active]), opts,
                          exponents.q, sums=step_map(0, n - 1), diagnostics=diagnostics)
        for l, (leg, a, b), c in zip(active, spans, cols):
            lane = _Slice(r.values[:b - a + 1, c], r.iters,
                          *(v if v is None else v[c] for v in r[2:]))
            # its failed members shrink on the lane's own slice, as in its own transport
            out = _solve_span(field, leg.ts[a:b + 1], leg.ws[a:b + 1], states[l], opts,
                              exponents.q, diagnostics=diagnostics, clock=leg.clock, first=lane)
            states[l] = out[0][-1]
            yield (l, a, b) + out


def _solve_window(field: CoefficientField, driver: SampledPath, t0: float, x0: np.ndarray,
                  T: float, opts: Optional[SolveOptions], exponents: Optional[ExponentSet],
                  keep_path: bool = True) -> Tuple[BatchSolve, _Leg]:
    """solve_forward_batch from t0 to T, on the reversed clock if T < t0, and its leg."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2 or x0.shape[1] != field.dim_d:
        raise ParameterError(f"x0 has shape {x0.shape}, expected (B, d) with d = {field.dim_d}")
    leg = _leg(field, driver, t0, T, len(x0), opts, exponents)
    values = np.empty((len(leg.ts),) + x0.shape) if keep_path else None
    iters, residuals, ball_ok = [], [], np.ones(len(x0), dtype=bool)
    for _, a, b, vals, its, res, b_ok in _lockstep(field, [(x0, [leg])], opts, exponents,
                                                   keep_path):
        iters.append(its)
        if keep_path:
            values[a:b + 1] = vals
            residuals.append(res)
            ball_ok &= b_ok
    times, values, residuals, ball_ok = ((leg.ts, values, np.array(residuals), ball_ok)
                                         if keep_path else (leg.ts[-1:], vals[-1:], None, None))
    return BatchSolve(times, values, leg.greedy, np.array(iters), residuals, ball_ok, leg.mu,
                      leg.constants), leg


def solve_forward_batch(
    field: CoefficientField,
    driver: SampledPath,
    t0: float,
    x0: np.ndarray,
    T: float,
    opts: Optional[SolveOptions] = None,
    exponents: Optional[ExponentSet] = None,
    keep_path: bool = True,
) -> BatchSolve:
    """Solve the stack of initial states x0, shape (B, d), forward on [t0, T].

    The greedy partition, the grid and the member arrays depend on the
    window alone (_leg); Picard runs chunk by chunk on (n, B, d) arrays, the
    one-lane call of _lockstep, and every member equals its one-state solve
    bit for bit.  With keep_path False only the end states are computed
    (times holds T alone) and residuals and ball_ok are None: a transport
    needs no more, and the path takes B times a one-state solve's memory.
    """
    if not t0 < T:
        raise DomainError(f"solve window [{t0}, {T}] outside driver domain")
    return _solve_window(field, driver, t0, x0, T, opts, exponents, keep_path)[0]


def _report(field: CoefficientField, driver: SampledPath, batch: BatchSolve, x0: np.ndarray,
            t0: float, T: float, exponents: ExponentSet, certify: bool) -> SolveReport:
    """The SolveReport of the one-state batch, certified on field and driver."""
    report = SolveReport(
        solution=SampledPath(batch.times, batch.values[:, 0]),
        greedy=batch.greedy,
        iters_per_interval=batch.iters[:, 0].tolist(),
        fixed_point_residuals=batch.residuals[:, 0].tolist(),
        ball_ok=bool(batch.ball_ok[0]),
        certificates=[],
        exponents=exponents,
        mu=batch.mu,
        constants=batch.constants,
        t0=float(t0),
        T=float(T),
        x0=x0,
    )
    if certify:
        report.certificates = standard_certificates(report, field, driver)
    return report


def solve_forward(
    field: CoefficientField,
    driver: SampledPath,
    t0: float,
    x0,
    T: float,
    opts: Optional[SolveOptions] = None,
    exponents: Optional[ExponentSet] = None,
    certify: bool = True,
) -> SolveReport:
    """Global solve on [t0, T]: greedy partition, Picard per chunk, certificates.

    The batch of one of solve_forward_batch.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    batch = solve_forward_batch(field, driver, t0, x0[None], T, opts, exponents)
    return _report(field, driver, batch, x0, t0, T, exponents, certify)


def reversed_problem(
    field: CoefficientField,
    driver: SampledPath,
    t0: float,
    T: float,
    opts: Optional[SolveOptions] = None,
) -> Tuple[CoefficientField, SampledPath, Optional[SolveOptions]]:
    """The forward problem on the reversed clock u -> t0 + T - u.

    Reversing the clock flips the orientation of the noise integral once,
    so the transformed problem carries drift -f(t0+T-u, .) and unchanged
    diffusion g(t0+T-u, .) against the reversed driver; the extra output
    times of opts.grid are reflected with the clock.
    """
    if not t0 < T:
        raise DomainError("solve_backward needs t0 < T")
    rev_field = field.time_reversed(t0, T)
    rev_driver = driver.restrict((t0, T)).reversed_clock()
    if opts is not None and opts.grid is not None:
        opts = replace(opts, grid=(t0 + T) - np.asarray(opts.grid, dtype=float))
    return rev_field, rev_driver, opts


def solve_backward(
    field: CoefficientField,
    driver: SampledPath,
    T: float,
    xT,
    t0: float,
    opts: Optional[SolveOptions] = None,
    exponents: Optional[ExponentSet] = None,
    certify: bool = True,
) -> SolveReport:
    """Continue the dynamics backwards from (T, xT) down to t0.

    The terminal-value problem is solved forward on the reversed clock
    (reversed_problem): Picard runs on the window's leg from T to t0 (_leg),
    which reads the field at the reflected times, and the certificates read
    the reversed problem's field and driver.  The solution is mapped back to
    the original clock; the forward-then-backward round trip inverts the
    flow up to quadrature resolution.
    """
    if not t0 < T:
        raise DomainError("solve_backward needs t0 < T")
    xT = np.atleast_1d(np.asarray(xT, dtype=float))
    batch, leg = _solve_window(field, driver, T, xT[None], t0, opts, exponents)
    inner = _report(leg.field, leg.driver, batch, xT, t0, T, exponents, certify)
    sol = inner.solution
    return replace(inner, solution=SampledPath((t0 + T) - sol.times[::-1], sol.values[::-1]),
                   direction="backward")


def euler_solve(
    field: CoefficientField,
    driver: SampledPath,
    t0: float,
    x0,
    T: float,
    grid,
) -> SampledPath:
    """First-order cross-check scheme: x_{i+1} = x_i + f dt + g dw."""
    ts = np.asarray(grid, dtype=float)
    if ts[0] != t0 or ts[-1] != T or not np.all(np.diff(ts) > 0):
        raise ParameterError("grid must increase from t0 to T")
    ws = driver.at(ts)
    x = np.empty((len(ts), field.dim_d))
    x[0] = np.atleast_1d(np.asarray(x0, dtype=float))
    for i in range(len(ts) - 1):
        ti = ts[i : i + 1]
        xi = x[i : i + 1]
        drift = field.eval_f(ti, xi)[0] * (ts[i + 1] - ts[i])
        noise = field.eval_g(ti, xi)[0] @ (ws[i + 1] - ws[i])
        x[i + 1] = x[i] + drift + noise
    return SampledPath(ts, x)


# ----------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class GronwallInput:
    """Data of the self-bound |y_t - y_s| <= A^{1/q} + a1 |int y du| + a2 |int y dw|."""

    y: SampledPath
    A: ControlFunction
    a1: float
    a2: float

    def c(self, K: float) -> float:
        return max(self.a1, self.a2 * (K + 1.0))


def _log_safe(x: float) -> float:
    return math.log(max(x, 1e-300))


def _gronwall_constant(c: float, p: float) -> float:
    """C = 4^p c^p ln 2, the exponential rate of the Gronwall-type lemma."""
    return (4.0 ** p) * (c ** p) * _LN2


def _anchor_integrals(y: SampledPath, w: SampledPath, anchor_idx: np.ndarray):
    """int y du and the d x m matrix integral int y dw (an outer product, not
    _pair_terms) by the solver's rule, the midpoint rule for both, on y's
    grid: _running_sum(terms) at the rows anchor_idx."""
    ts = y.times
    mid = _RULES["midpoint"](y.values)
    dw = np.diff(w.at(ts), axis=0)
    return (_running_sum(mid * np.diff(ts)[:, None])[anchor_idx],
            _running_sum(mid[:, :, None] * dw[:, None, :])[anchor_idx])


def gronwall_certificate(
    gin: GronwallInput,
    driver: SampledPath,
    p: float,
    q: float,
    variant: str = "increment",
) -> Certificate:
    """Check the Gronwall-type conclusion with C = 4^p c^p ln 2.

    variant "increment" takes the pointwise hypothesis
    |y_t - y_s| <= A^{1/q} + a1 |int y du| + a2 |int y dw| and the conclusion

        |||y|||_{q-var,[s,t]} <= (2 A0 + |y_s|) exp(C (|t-s|^p + |||w|||^p)),

    c = max(a1, a2 (K+1)), together with the sup-norm consequence
    ||y||_inf <= (2 A0 + |y_0|) 2^(N+1) with N the number of full greedy
    intervals at budget 1/(2c) and unit time exponent, and the doubling
    recursion 2 A0 + |y_{t_{i+1}}| <= 2 (2 A0 + |y_{t_i}|) along them.

    variant "variation" takes the hypothesis in its q-variation form
    |||y|||_{q,[s,t]} <= A^{1/q} + a1 (|y_s| + |||y|||)(t-s+|||w|||) with
    c = a1 and certifies |||y|||_{q,[s,t]} <= (|y_s| + A^{1/q}_{s,t}) e^{C theta}.

    One pass over the anchor pairs checks both, with windowed variations
    from ControlFunction.from_p_variation.  A failed hypothesis is reported
    with its worst pair and leaves the conclusion unclaimed (conclusion_ok
    True, log_margin 0).  Large right-hand sides are compared in logs.
    """
    if variant not in ("increment", "variation"):
        raise ParameterError(f"unknown gronwall variant {variant!r}")
    K = YoungConstants(p, q).K
    c = gin.c(K) if variant == "increment" else gin.a1
    C = _gronwall_constant(c, p)
    y = gin.y
    window = y.domain
    A0 = gin.A(window.lo, window.hi) ** (1.0 / q)

    ts = y.times
    anchor_idx = thin_indices(len(ts), _GRONWALL_ANCHORS)
    w_sub = driver.restrict((window.lo, window.hi))

    if variant == "increment":
        cum_du, cum_dw = _anchor_integrals(y, w_sub, anchor_idx)

    omega_y = ControlFunction.from_p_variation(y, q)
    omega_w = ControlFunction.from_p_variation(w_sub, p)
    hyp_gap = -math.inf
    hyp_pair = None
    conclusion_ok = True
    worst_margin = math.inf
    for ii, i in enumerate(anchor_idx):
        for jj, j in enumerate(anchor_idx[ii + 1 :], ii + 1):
            s, t = float(ts[i]), float(ts[j])
            A_root = gin.A(s, t) ** (1.0 / q)
            y_s = float(np.linalg.norm(y.values[i]))
            var_y = omega_y(s, t) ** (1.0 / q)
            var_w = omega_w(s, t) ** (1.0 / p)
            if variant == "increment":
                lhs = float(np.linalg.norm(y.values[j] - y.values[i]))
                rhs = (
                    A_root
                    + gin.a1 * float(np.linalg.norm(cum_du[jj] - cum_du[ii]))
                    + gin.a2 * float(np.linalg.norm(cum_dw[jj] - cum_dw[ii]))
                )
                base = 2.0 * A0 + y_s
            else:
                lhs = var_y
                rhs = A_root + gin.a1 * (y_s + var_y) * ((t - s) + var_w)
                base = y_s + A_root
            gap = lhs - rhs
            if gap > hyp_gap:
                hyp_gap = gap
                hyp_pair = (s, t)
            log_rhs = _log_safe(base) + C * ((t - s) ** p + var_w ** p)
            worst_margin = min(worst_margin, log_rhs - _log_safe(var_y))
            if _log_safe(var_y) > log_rhs + 1e-12:
                conclusion_ok = False
    hypothesis_ok = hyp_gap <= _GRONWALL_TOL
    if not hypothesis_ok:
        # the conclusion is claimed only under its hypothesis
        conclusion_ok, worst_margin = True, math.inf

    # sup-norm consequence via the unit-exponent greedy count (increment form)
    sup_y = float(np.max(np.linalg.norm(y.values, axis=1)))
    N = 0
    induction_ok = True
    log_sup_rhs = math.inf
    supnorm_ok = True
    if variant == "increment" and c > 0:
        seq = greedy_sequence(w_sub, window.lo, window.hi, lam=1.0, mu=1.0 / (2.0 * c), p=p)
        N = seq.n_full()
        z = 2.0 * A0 + np.linalg.norm(y.at(seq.times), axis=1)
        induction_ok = bool(np.all(z[1:] <= 2.0 * z[:-1] + _GRONWALL_TOL))
    if variant == "increment":
        log_sup_rhs = _log_safe(2.0 * A0 + float(np.linalg.norm(y.values[0]))) + (N + 1) * _LN2
        supnorm_ok = _log_safe(sup_y) <= log_sup_rhs + 1e-12

    ok = hypothesis_ok and conclusion_ok and supnorm_ok and induction_ok
    return Certificate(
        name="gronwall",
        lhs=float(sup_y),
        rhs=float(math.exp(min(log_sup_rhs, 700.0))),
        ok=bool(ok),
        window=(window.lo, window.hi),
        extra={
            "variant": variant,
            "c": float(c),
            "C": float(C),
            "A0": float(A0),
            "greedy_count": int(N),
            "hypothesis_ok": bool(hypothesis_ok),
            "hypothesis_gap": float(hyp_gap),
            "hypothesis_pair": list(hyp_pair) if hyp_pair else None,
            "conclusion_ok": bool(conclusion_ok),
            "log_margin": float(worst_margin if worst_margin < math.inf else 0.0),
            "supnorm_ok": bool(supnorm_ok),
            "induction_ok": bool(induction_ok),
        },
    )


def build_gronwall_input(
    field: CoefficientField,
    report: SolveReport,
    driver: SampledPath,
) -> GronwallInput:
    """Instantiate the self-bound data for a solved trajectory.

    Linear structure f = a1 x + phi(t), g = a2 x + psi(t) gives the exact
    hypothesis with the inhomogeneities absorbed into the control

        A(s,t) = 2^{q-1} ( Phi^q (t-s)^q + Psi_eff^q |||w|||^q_{p,[s,t]} ),

    Psi_eff = sup|psi| + K L_psi (T - t0) covering the sewing remainder of
    int psi dw.  Bounded fields use a1 = a2 = 0 and absorb everything:
    |int f du| <= Bf (t-s) and |int g dw| <= (Bg + K0 M (1+|||x|||_q)) |||w|||_p.
    """
    gd = field.gronwall
    if gd is None:
        raise ParameterError(f"field {field.name!r} declares no gronwall structure")
    exps = report.exponents
    p, q = exps.p, exps.q
    y = report.solution
    horizon = report.T - report.t0

    if gd.mode == "linear":
        Kq = YoungConstants(p, q).K
        phi = gd.drift_inhom
        psi_eff = gd.noise_inhom + Kq * gd.noise_inhom_lip * horizon
        a1, a2 = gd.a1, gd.a2
    else:
        var_x = p_variation(y, q)
        phi = gd.f_bound
        psi_eff = gd.g_bound + exps.K0 * report.constants.M * (1.0 + var_x)
        a1 = a2 = 0.0

    omega_w = ControlFunction.from_p_variation(driver.restrict((report.t0, report.T)), p)

    def A_eval(s, t, _phi=phi, _psi=psi_eff, _q=q, _p=p):
        var_w = omega_w(s, t) ** (1.0 / _p)
        return 2.0 ** (_q - 1.0) * (
            (_phi * (t - s)) ** _q + (_psi * var_w) ** _q
        )

    return GronwallInput(y=y, A=ControlFunction(A_eval, "field-self-bound"), a1=a1, a2=a2)


def growth_certificate(
    report: SolveReport,
    field: CoefficientField,
    driver: SampledPath,
) -> Certificate:
    """Certify the q-variation growth bound with explicit constants.

    Chain behind the constants, writing c* = M (K0+2), theta(u,v) =
    (v-u)^alpha + |||w|||_{p-var,[u,v]} and using x = F(x) anchored at u:

      |||x|||_{q,[u,v]} <= c* (1 + |x_u| + |||x|||_{q,[u,v]}) theta(u,v),

    so on any interval with theta <= mu* = 1/(2 c*) one has
    |||x|||_{q,[u,v]} <= 1 + |x_u| and 1+|x_v| <= 2 (1+|x_u|).  Greedy
    intervals at budget mu* and time exponent alpha tile [t0, t], their
    count N obeys N <= 2^{p'-1} (2 c* / 1)^{p'} ((t-t0)^{p' alpha} +
    |||w|||^{p'}) / ... (the counting bound with mu = mu*), and summing the
    per-interval doublings gives |||x|||_{q,[t0,t]} <= (1+|x0|) 2^{2N}.
    Hence with

        C2 = ln 2 * (4 M (K0+2))^{p'},    C1 = 2 exp(C2 (T-t0)^{p' alpha}),

    ||x||_{q-var} <= C1 (1+|x0|) e^{C2 |||w|||^{p'}}, which is dominated by
    the reported right-hand side C1 [1+(T-t0)^alpha] (1+|x0|) (1+|||w|||)
    e^{C2 |||w|||^{p'}}.  Compared in logarithms on nested windows.
    """
    exps = report.exponents
    p, q, alpha = exps.p, exps.q, exps.alpha
    p_prime = exps.p_prime
    M = report.constants.M
    c_star = M * (exps.K0 + 2.0)
    C2 = _LN2 * (4.0 * c_star) ** p_prime
    log_C1 = _LN2 + C2 * (report.T - report.t0) ** (p_prime * alpha)

    omega_y = ControlFunction.from_p_variation(report.solution, q)
    omega_w = ControlFunction.from_p_variation(driver.restrict((report.t0, report.T)), p)
    x0n = float(np.linalg.norm(report.x0))

    ends = np.linspace(report.t0, report.T, _GROWTH_ANCHORS + 1)[1:]
    ok = True
    rows = []
    worst_margin = math.inf
    prev_log_rhs = -math.inf
    monotone = True
    for t in ends:
        t = float(t)
        lhs = x0n + omega_y(report.t0, t) ** (1.0 / q)
        var_w = omega_w(report.t0, t) ** (1.0 / p)
        log_rhs = (
            log_C1
            + math.log(1.0 + (t - report.t0) ** alpha)
            + math.log1p(x0n)
            + math.log1p(var_w)
            + C2 * var_w ** p_prime
        )
        margin = log_rhs - _log_safe(lhs)
        worst_margin = min(worst_margin, margin)
        if _log_safe(lhs) > log_rhs + 1e-12:
            ok = False
        if log_rhs < prev_log_rhs - 1e-12:
            monotone = False
        prev_log_rhs = log_rhs
        rows.append({"t": t, "lhs": float(lhs), "log_rhs": float(log_rhs)})
    full = rows[-1]
    return Certificate(
        name="growth",
        lhs=float(full["lhs"]),
        rhs=float(math.exp(min(full["log_rhs"], 700.0))),
        ok=bool(ok),
        window=(report.t0, report.T),
        extra={
            "C2": float(C2),
            "log_C1": float(log_C1),
            "p_prime": float(p_prime),
            "log_margin": float(worst_margin),
            "monotone_in_window": bool(monotone),
            "rows": rows,
        },
    )


def standard_certificates(
    report: SolveReport,
    field: CoefficientField,
    driver: SampledPath,
) -> List[Certificate]:
    """Gronwall, growth and sewing certificates for a finished solve.

    Each reads the computed solution and the driver on its own samples in
    [t0, T], one path object, so the certificates share its DP rows."""
    certs = []
    exps = report.exponents
    driver = driver.restrict((report.t0, report.T))
    if field.gronwall is not None:
        gin = build_gronwall_input(field, report, driver)
        certs.append(gronwall_certificate(gin, driver, exps.p, exps.q))
    certs.append(growth_certificate(report, field, driver))
    comp = composed_path(field, report.solution)
    certs.append(young_loeve_check(comp, driver, constants=exps.young0))
    return certs
