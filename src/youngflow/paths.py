"""Sampled paths, discrete p-variation and Hoelder norms, control functions.

A path is stored as samples (t_i, x_i) and read as its piecewise linear
interpolant: SampledPath._interp interpolates from value columns built once
for at and greedy's bisection, and _window_samples is the one cut of a
window [s, t] (an end within the time tolerance of the domain's end keeps
that end's sample), which restrict, p_variation and the control read.
Variation-type quantities are computed over partitions drawn from the
sample points; for p >= 1 interior points of a linear segment never
increase the supremum, so this is the exact p-variation of the interpolant.
For the same reason a scalar path loses nothing when it is reduced to its
endpoints and strict turning points before the p-variation DP (Butkus &
Norvaisa, Lith. Math. J. 58, 2018), and each DP step then scans only the
suffix extrema that can still win; vector paths run the DP over every
earlier sample.  The scalar DP runs in blocks of a few hundred steps: a
Python walk of the suffix-extremum stacks lists every step's candidates,
one numpy call rounds all the block's legs |x_i - x_j|^p (_leg_powers, the
one place a leg is rounded), and each step in order takes its max of
V_i + leg, in numpy or in Python floats, which round alike.  So V is
bit-equal to the one-step-at-a-time DP.
p_variation, whose DP needs only the final power, first drops the
turning-point pairs (i, i+1) with L1^p + L2^p + L3^p <= |y_{i+2} - y_{i-1}|^p,
which no optimal partition needs (_prune_pairs: the lemma, its proof, the
passes and their stop rule, and what is proven in floating point); on a
Brownian path three in four turning points go.  The DP rows (_powers, which
greedy and the control read) keep every turning point.
ControlFunction.from_p_variation runs the DP once per path, p and left end
s, over [s, path end], and reads each window [s, t] off that row with one
last DP step from the cut's sample count and end value.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DataError,
    DomainError,
    JoinError,
    ParameterError,
    SizeError,
)

_TIME_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """Closed time interval [lo, hi] with lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ParameterError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ParameterError(f"interval has lo={self.lo} > hi={self.hi}")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, t: float) -> bool:
        return self.lo - _TIME_TOL <= t <= self.hi + _TIME_TOL


WindowLike = Union[Interval, Tuple[float, float], None]


def as_interval(window: WindowLike) -> Optional[Interval]:
    if window is None or isinstance(window, Interval):
        return window
    lo, hi = window
    return Interval(float(lo), float(hi))


@dataclass(frozen=True)
class SampledPath:
    """A path sampled at strictly increasing times.

    Parameters
    ----------
    times : array, shape (n,)
        Strictly increasing sample times, n >= 2.
    values : array, shape (n,), (n, d) or (n, d, m)
        Sample values.  A 1-d input is normalised to shape (n, 1).
        The (n, d, m) layout holds matrix-valued paths such as the
        composition g(t, x_t); norms are Frobenius norms in that case.

    The arrays, the caller's included, are frozen; _interp reads writeable
    views kept before the freeze (_xp, _fp), since np.interp copies read-only input.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1 or len(times) < 2:
            raise ParameterError("a path needs at least two sample times")
        if len(times) != len(values):
            raise ParameterError("times and values must have equal length")
        if not np.all(times[1:] > times[:-1]):
            raise ParameterError("sample times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise DataError("path contains non-finite entries")
        object.__setattr__(self, "_xp", times.view())
        object.__setattr__(self, "_fp", values.view())
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def value_shape(self) -> Tuple[int, ...]:
        return self.values.shape[1:]

    @cached_property
    def domain(self) -> Interval:
        return Interval(float(self.times[0]), float(self.times[-1]))

    def _flat_values(self) -> np.ndarray:
        return self.values.reshape(len(self.times), -1)

    @cached_property
    def _cols(self) -> list:
        """The contiguous flat value columns np.interp reads; views of _fp if scalar."""
        return [np.ascontiguousarray(c) for c in self._fp.reshape(len(self.times), -1).T]

    @cached_property
    def _turns(self) -> tuple:
        """A scalar path's direction changes, for greedy's walk model: the
        first and the second move of each pair of consecutive moves in
        opposite directions (a move is a step i -> i + 1 that changes the
        value) and the direction (1 or -1) of each pair's first move, as
        arrays, and the direction of the last move (0 if the path has none)."""
        v = self._cols[0]
        moves = np.flatnonzero(v[1:] != v[:-1])
        up = v[moves + 1] > v[moves]
        flips = np.flatnonzero(up[1:] != up[:-1])
        last = (1 if up[-1] else -1) if len(up) else 0
        return moves[flips], moves[flips + 1], np.where(up[flips], 1, -1), last

    @cached_property
    def _dp_rows(self) -> dict:
        """ControlFunction.from_p_variation's DP rows of this path, by p and
        left end; arrays only, so every control of the path shares them."""
        return {}

    def at(self, t) -> np.ndarray:
        """Linear interpolation at time(s) t in the domain, copying no sample;
        a time within the domain's tolerance outside it reads the end value."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.times[0], self.times[-1]
        span = max(hi - lo, 1.0)
        if np.any(t_arr < lo - _TIME_TOL * span) or np.any(t_arr > hi + _TIME_TOL * span):
            raise DomainError(
                f"time(s) outside path domain [{lo}, {hi}]"
            )
        out = self._interp(t_arr).reshape((len(t_arr),) + self.value_shape)
        return out[0] if np.ndim(t) == 0 else out

    def _interp(self, t) -> np.ndarray:
        """The flat values at the times t, shape (len(t), k), interpolated
        from the views np.interp reads; t is not checked against the domain."""
        cols = [np.interp(t, self._xp, c) for c in self._cols]
        return cols[0][:, None] if len(cols) == 1 else np.stack(cols, axis=-1)

    def restrict(self, window: WindowLike) -> "SampledPath":
        """The window's cut (_window_samples) as a path; the path itself for
        no window or one that covers the domain up to the time tolerance."""
        times, values = _window_samples(self, as_interval(window) or self.domain)
        return self if times is self.times else SampledPath(times, values)

    def reversed_clock(self) -> "SampledPath":
        """The path u -> x(a + b - u) on the same window [a, b]."""
        a, b = self.times[0], self.times[-1]
        return SampledPath((a + b) - self.times[::-1], self.values[::-1])


def thin_indices(n: int, cap: int) -> np.ndarray:
    """At most cap evenly spaced indices into range(n), both ends included,
    sorted and unique."""
    return np.linspace(0, n - 1, min(n, cap)).astype(int)


def _window_samples(path: SampledPath, window: Interval):
    """The samples (times, values) of the window cut out of the path by its
    time tolerance tol: the window, clamped to the domain, is [a, b]; the
    samples strictly inside it by more than tol are kept, and a or b is added,
    its value interpolated, unless a kept sample lies within tol of it.  An
    end within tol of the domain's end keeps that end's sample instead, so a
    window covering the domain up to tol cuts to the path's own arrays.  A
    window no longer than tol, or one that this cut leaves with fewer than
    two samples, gives two samples of the value at its centre."""
    lo, hi = path.times[0], path.times[-1]
    tol = _TIME_TOL * max(hi - lo, 1.0)
    if window.lo < lo - tol or window.hi > hi + tol:
        raise DomainError(
            f"window [{window.lo}, {window.hi}] outside path domain [{lo}, {hi}]"
        )
    first, last = window.lo <= lo + tol, window.hi >= hi - tol
    if first and last:
        return path.times, path.values
    a = min(max(window.lo, lo), hi)
    b = min(max(window.hi, lo), hi)
    if b - a > tol:
        i0 = 0 if first else int(np.searchsorted(path.times, a + tol))
        i1 = len(path.times) if last else int(np.searchsorted(path.times, b - tol, side="right"))
        head = bool(i0 >= len(path.times) or abs(path.times[i0] - a) > tol)
        tail = bool(i1 == 0 or abs(path.times[i1 - 1] - b) > tol)
        ends = [a] * head + [b] * tail
        end_values = path.at(ends) if ends else path.values[:0]
        times = np.concatenate([ends[:head], path.times[i0:i1], ends[head:]])
        if len(times) >= 2:
            values = np.concatenate([end_values[:head], path.values[i0:i1], end_values[head:]])
            return times, values
    v = path.at(0.5 * (a + b))
    return np.array([a, a + max(tol, 1e-300)]), np.stack([v, v])


def merge_times(*time_arrays) -> np.ndarray:
    """Sorted union of sample times, merging points closer than _TIME_TOL
    times the largest time's magnitude (at least 1)."""
    allt = np.sort(np.concatenate([np.asarray(t, float) for t in time_arrays]))
    scale = max(abs(allt[0]), abs(allt[-1]), 1.0)
    keep = np.concatenate([[True], np.diff(allt) > _TIME_TOL * scale])
    return allt[keep]


def _leg_powers(pts: np.ndarray, value: np.ndarray, p: float) -> np.ndarray:
    """The leg powers |value - pts[i]|^p of the points pts, shape (m, k): the
    one place the p-variation DPs round a leg.  value has shape (k,), or
    (r, k) for a stack of ends (giving shape (r, m)); for scalar points it may
    also hold one end per point, shape (m,)."""
    if pts.shape[1] == 1:
        d = np.abs(pts[:, 0] - value)
    else:
        diff = pts - value[..., None, :]
        d = np.sqrt(np.einsum("...ik,...ik->...i", diff, diff))
    return d ** p


def _endpoint_power(pts: np.ndarray, V: np.ndarray, value: np.ndarray, p: float):
    """The p-variation DP step: max_i V[i] + |value - pts[i]|^p, the
    sup-partition power over the points pts, shape (m, k), with their
    powers V, ending at a fresh value, shape (k,).  A stack of values,
    shape (r, k), takes the step from the same points for each of them and
    gives the r powers as an array: the elementwise operations and the max
    round the same way at any shape, so each equals its one-value step."""
    legs = _leg_powers(pts, value, p)
    if value.ndim == 1:
        return float(np.maximum.reduce(V + legs))
    return np.maximum.reduce(V + legs, axis=1)


def _turning_indices(v: np.ndarray) -> np.ndarray:
    """First, last and strict turning points of a scalar sequence.

    A flat step belongs to the run before it, so a plateau at a turn is
    kept once, at its first sample.
    """
    moves = np.flatnonzero(np.diff(v))
    up = v[moves + 1] > v[moves]
    turns = moves[:-1][up[:-1] != up[1:]] + 1
    return np.concatenate([[0], turns, [len(v) - 1]])


# A block of DP steps ends after _BLOCK_STEPS steps, or once it holds
# _BLOCK_PAIRS legs, which are held at once: a drifting path keeps O(m)
# candidates per step.  A step with more than _LONG_STEP candidates takes its
# max in numpy, a shorter one in Python floats.
_BLOCK_STEPS = 256
_BLOCK_PAIRS = 1 << 14
_LONG_STEP = 64


def _scalar_powers(x: np.ndarray, p: float) -> np.ndarray:
    """The DP powers V of the scalar samples x, shape (m, 1), each step taken
    over the starts that can still win, not over every earlier sample.

    Inserting a sample that lies outside the range of its two neighbours in
    a partition never lowers the sum: one of the two new legs is at least as
    long as the old one.  So an up-step to x_j needs only the strict suffix
    minima of x[:j] after k*, the last sample above x_j; k* is the top of the
    suffix-maximum stack once x_j has popped it.  A down-step mirrors this,
    and an equal later value beats an earlier one, so the stacks are strict.
    Both facts hold in floating point when pow and + round monotonically.

    The stacks depend on x alone, so the steps run in blocks of three passes.
    1. A Python walk of the stacks appends each step's candidates, by index,
       to one list and records their count.
    2. One _leg_powers call rounds every leg of the block.
    3. Each step, in order, takes its max of V[i] + leg over its candidates:
       in numpy for a long step, in Python floats through a memoryview of V
       for a short one.  Every candidate precedes its step, so its power is
       final when the step runs.
    This is bit-equal to the one-step-at-a-time DP over every turning point:
    the candidates are the same, numpy's pow rounds an element the same way
    at any array length or stride, and Python's float + and max are the IEEE
    operations of numpy's add and maximum.reduce (x is finite, so no NaN
    arises, and no power is -0.0).  Equality with the plain DP over every
    sample is only tested (it holds at p >= 1.5; near p = 1 the two can
    differ in the last bit).  The cost is O(m c) for c candidates per step,
    with one leg call per block.
    """
    xs = x[:, 0].tolist()
    m = len(xs)
    V = np.zeros(m)
    Vm = memoryview(V)
    # the strict suffix minima and maxima of x[:j], as indices; x[j - 1] tops both
    lows, highs = [0], [0]
    j0 = 1
    while j0 < m:
        # pass 1: every step's candidates, in step order
        cands, counts = [], []
        for j in range(j0, min(m, j0 + _BLOCK_STEPS)):
            v, n = xs[j], len(cands)
            if v > xs[j - 1]:
                highs.pop()
                while highs and xs[highs[-1]] <= v:
                    highs.pop()
                cands += lows[bisect.bisect_right(lows, highs[-1]) if highs else 0 :]
            elif v < xs[j - 1]:
                lows.pop()
                while lows and xs[lows[-1]] >= v:
                    lows.pop()
                cands += highs[bisect.bisect_right(highs, lows[-1]) if lows else 0 :]
            else:
                # a flat step, which only a constant path keeps, has no candidate
                lows.pop()
                highs.pop()
            counts.append(len(cands) - n)
            lows.append(j)
            highs.append(j)
            if len(cands) >= _BLOCK_PAIRS:
                break
        j1 = j + 1
        # pass 2: every leg of the block
        at = np.array(cands, dtype=np.intp)
        legs = _leg_powers(x[at], np.repeat(x[j0:j1, 0], counts), p)
        # pass 3: each step's max, in order
        Lm = memoryview(legs)
        k = 0
        for i, c in zip(range(j0, j1), counts):
            if c > _LONG_STEP:
                Vm[i] = np.maximum.reduce(V[at[k : k + c]] + legs[k : k + c])
            elif c:
                b = -math.inf
                for q in range(k, k + c):
                    s = Vm[cands[q]] + Lm[q]
                    if s > b:
                        b = s
                Vm[i] = b
            else:
                Vm[i] = Vm[i - 1]
            k += c
        j0 = j1
    return V


# _prune_pairs stops after a pass that removes fewer than this share of the points
_PRUNE_SHARE = 1 / 16


def _prune_pairs(y: np.ndarray, p: float) -> np.ndarray:
    """The strictly alternating turning-point values y, p > 1, without the
    oscillation pairs that no optimal partition needs: the DP over the values
    kept ends at the same power as the DP over y.

    Lemma.  Let (i, i+1) be an interior pair of y_0..y_m (1 <= i, i+1 <= m-1)
    with legs L1 = |y_i - y_{i-1}|, L2 = |y_{i+1} - y_i|, L3 = |y_{i+2} - y_{i+1}|
    and E = |y_{i+2} - y_{i-1}| = |L1 - L2 + L3|.  If
    L1^p + L2^p + L3^p <= E^p, then L2 < min(L1, L3) and some optimal
    partition contains neither i nor i+1.
    Proof.  If L2 >= L1, then E = |L3 - (L2 - L1)| <= max(L3, L2), so E^p is
    below the sum; likewise if L2 >= L3.  So E = L1 - L2 + L3, and after a
    sign flip y_{i-1} < y_{i+1} < y_i < y_{i+2}.  Inserting a point that lies
    outside the range of its two neighbours never lowers a partition's sum,
    as one of its two new legs is at least the old leg.
    - A partition holding i but not i+1, with successor r: if y_r >= y_{i+1},
      insert i+1 (below y_i and y_r); else insert i+2 (above y_i > y_r) and
      then i+1 (below y_i and y_{i+2}).
    - Holding i+1 but not i, with predecessor l: if y_l <= y_i, insert i
      (above y_{i+1} and y_l); else insert i-1 (below y_{i+1} < y_l), then i.
    - Holding both, with neighbours l and r: insert i-1 if y_l > y_{i-1} and
      i+2 if y_r < y_{i+2}.  The new neighbours give A = y_i - y_l >= L1 and
      C = y_r - y_{i+1} >= L3, and dropping the pair trades A^p + L2^p + C^p
      for (A + C - L2)^p.  f(A, C) = (A + C - L2)^p - A^p - L2^p - C^p has
      df/dA = p((A + C - L2)^{p-1} - A^{p-1}) >= 0 as C > L2, and likewise
      df/dC >= 0 as A > L2, so f(A, C) >= f(L1, L3) >= 0.
    After the drop y_{i-1} and y_{i+2} are adjacent and still alternate.

    Passes.  A numpy pass tests every interior pair at once and removes every
    pair that qualifies.  Two qualifying pairs never share a point (pair i+1
    would need L3 < L2).  Two that are 2 apart share a leg: dropping one
    lengthens an outer leg of the other, to L1 - L2 + L3 >= L3, and f is
    nondecreasing in both outer legs, so taken one at a time each still
    qualifies when its turn comes.  The passes stop when no pair qualifies,
    or after a pass that removes fewer than _PRUNE_SHARE of the points,
    which bounds the work at O(m / _PRUNE_SHARE) on a path whose removals
    cascade.  The three work arrays are allocated once per call; a pass
    allocates only its mask and the values it keeps.

    Floating point.  A pair qualifies when the computed
    E^p - (L1^p + L2^p + L3^p) is at least
    slack = 8 (p + 8) eps U + 64 tiny, with eps = 2^-52, tiny the least
    subnormal and U = R^{p-1} TV (R the range of y, TV its total variation),
    which bounds every partition's sum, as each leg |D|^p <= R^{p-1} |D|.
    The insertions above only lengthen legs, so they hold in floating point
    when subtraction, pow and + round monotonically.  If moreover pow is
    within 4 ulps and p < 10^6, each leg power is off by a relative
    (p + 8) eps / 2 at most, and the slack covers those errors twice: once in
    the test, so the lemma's hypothesis holds for the exact legs of the
    stored doubles, and once in the trade, whose three roundings of
    fl(fl(fl(T + A^p) + L2^p) + C^p) then stay below the one of
    fl(T + (A + C - L2)^p) for every prefix sum T, since T + (A + C - L2)^p
    <= U.  So the DP's final power over the kept values is the same double
    as over y.  Pow's accuracy is assumed, not checked.
    """
    n = len(y)
    if n < 4:
        return y
    powers, spans, gaps = np.empty((3, n))
    with np.errstate(over="ignore"):
        legs = np.abs(np.subtract(y[1:], y[:-1], out=powers[: n - 1]), out=powers[: n - 1])
        bound = np.ptp(y) ** (p - 1) * legs.sum()
        if not 4 * bound < np.inf:
            # no headroom: a leg power, a sum of three or a DP power may overflow
            return y
    slack = 8 * (p + 8) * np.finfo(float).eps * bound + 64 * np.finfo(float).smallest_subnormal
    while n >= 4:
        # the leg powers, then per pair (i, i+1), at entry i - 1, E^p and the
        # gap E^p - (L1^p + L2^p + L3^p)
        P, E, G = powers[: n - 1], spans[: n - 3], gaps[: n - 3]
        np.power(np.abs(np.subtract(y[1:], y[:-1], out=P), out=P), p, out=P)
        np.power(np.abs(np.subtract(y[3:], y[:-3], out=E), out=E), p, out=E)
        np.subtract(E, np.add(np.add(P[:-2], P[1:-1], out=G), P[2:], out=G), out=G)
        drop = np.flatnonzero(G >= slack) + 1
        if not len(drop):
            break
        keep = np.ones(n, dtype=bool)
        keep[drop] = keep[drop + 1] = False
        y = y[keep]
        if 2 * len(drop) < _PRUNE_SHARE * n:
            break
        n = len(y)
    return y


def _powers(flat: np.ndarray, p: float) -> Tuple[np.ndarray, np.ndarray]:
    """The p-variation DP over flat, shape (n, k), p >= 1: the indices it keeps
    (a scalar path's ends and turning points, or every sample) and their powers."""
    if p < 1:
        raise ParameterError(f"p-variation needs p >= 1, got {p}")
    if flat.shape[1] == 1:
        kept = _turning_indices(flat[:, 0])
        return kept, _scalar_powers(flat[kept], p)
    V = np.zeros(len(flat))
    for j in range(1, len(flat)):
        V[j] = _endpoint_power(flat[:j], V[:j], flat[j], p)
    return np.arange(len(flat)), V


def _variation(flat: np.ndarray, p: float, power: bool = False) -> float:
    """p-variation of the samples flat, shape (n, k), p >= 1: the DP kernel
    behind p_variation, with or without power.

    A scalar path with p > 1 runs the DP over its turning points after
    _prune_pairs has dropped the interior pairs (i, i+1) whose legs satisfy
    L1^p + L2^p + L3^p <= |y_{i+2} - y_{i-1}|^p by a slack: some optimal
    partition avoids them (the lemma and its proof are in _prune_pairs).
    Each numpy pass drops every qualifying pair at once; the passes stop
    when none qualifies or after one that drops under _PRUNE_SHARE of the
    points.
    Proven in floating point, given monotone subtraction, + and pow and a
    pow within 4 ulps: the final power is the same double as the DP's over
    every turning point.  Not proven: that it equals the plain DP over
    every sample, since the turning-point reduction is exact only in real
    arithmetic; the tests find equality at p >= 1.5, and at p = 1 + 2^-52
    the two can differ in the last bit.  The rows (_powers, greedy's budget
    rows and the control's rows) need every turning point's power, so they
    run the DP without the pre-pass.
    """
    if p == 1.0:
        # triangle inequality: the full partition is maximal
        return float(np.sum(np.linalg.norm(np.diff(flat, axis=0), axis=1)))
    if flat.shape[1] == 1 and p > 1:
        y = _prune_pairs(flat[_turning_indices(flat[:, 0]), 0], p)
        V = _scalar_powers(y[:, None], p)
    else:
        V = _powers(flat, p)[1]
    return float(V[-1]) if power else float(V[-1] ** (1.0 / p))


def p_variation(
    path: SampledPath,
    p: float,
    window: WindowLike = None,
    power: bool = False,
) -> float:
    """Exact discrete p-variation seminorm over a window.

    Dynamic programme over sample points: V[j] = max_{i<j} V[i] + |x_j - x_i|^p,
    which realises the supremum over all sub-partitions; a scalar path runs
    it over the turning points that _prune_pairs keeps, in blocks (see
    _variation and _scalar_powers), a vector path over every sample.
    _window_samples cuts the window, or the domain.

    Parameters
    ----------
    path : SampledPath
    p : float, >= 1
    window : Interval or (lo, hi), optional
    power : bool
        If True return the p-th power (the control value) instead of the root.
    """
    values = _window_samples(path, as_interval(window) or path.domain)[1]
    return _variation(values.reshape(len(values), -1), p, power)


def p_variation_norm(path: SampledPath, p: float, window: WindowLike = None) -> float:
    """Full p-variation norm |x_a| + |||x|||_{p-var} over the window."""
    sub = path.restrict(window)
    return float(np.linalg.norm(sub._flat_values()[0])) + p_variation(sub, p)


def p_variation_bruteforce(path: SampledPath, p: float, window: WindowLike = None) -> float:
    """Exhaustive reference p-variation over all sub-partitions (n <= 20)."""
    if p < 1:
        raise ParameterError(f"p-variation needs p >= 1, got {p}")
    sub = path.restrict(window)
    flat = sub._flat_values()
    n = len(flat)
    if n > 20:
        raise SizeError(f"brute force limited to 20 sample points, got {n}")
    diff = flat[:, None, :] - flat[None, :, :]
    dist_p = np.linalg.norm(diff, axis=2) ** p
    interior = list(range(1, n - 1))
    best = dist_p[0, n - 1]
    for r in range(1, len(interior) + 1):
        combos = np.array(list(itertools.combinations(interior, r)))
        idx = np.empty((len(combos), r + 2), dtype=int)
        idx[:, 0] = 0
        idx[:, 1:-1] = combos
        idx[:, -1] = n - 1
        sums = dist_p[idx[:, :-1], idx[:, 1:]].sum(axis=1)
        best = max(best, float(sums.max()))
    return float(best ** (1.0 / p))


def holder_norm(path: SampledPath, alpha: float, window: WindowLike = None) -> float:
    """Discrete alpha-Hoelder seminorm: max over sample pairs of |x_t-x_s|/(t-s)^alpha."""
    if not (0 < alpha <= 1):
        raise ParameterError(f"Hoelder exponent must lie in (0, 1], got {alpha}")
    sub = path.restrict(window)
    flat = sub._flat_values()
    times = sub.times
    best = 0.0
    for j in range(len(times) - 1):
        dt = times[j + 1 :] - times[j]
        dv = np.linalg.norm(flat[j + 1 :] - flat[j], axis=1)
        best = max(best, float(np.max(dv / dt ** alpha)))
    return best


def concatenate(first: SampledPath, second: SampledPath) -> SampledPath:
    """Join two paths sharing their junction time and value, up to _TIME_TOL
    relative to the junction's magnitude (at least 1)."""
    t_gap = abs(first.times[-1] - second.times[0])
    if t_gap > _TIME_TOL * max(1.0, abs(first.times[-1])):
        raise JoinError(
            f"junction times differ: {first.times[-1]} vs {second.times[0]}"
        )
    if first.value_shape != second.value_shape:
        raise JoinError("paths have different value shapes")
    v_gap = np.max(np.abs(first.values[-1] - second.values[0]))
    if v_gap > _TIME_TOL * max(1.0, float(np.max(np.abs(first.values[-1])))):
        raise JoinError(f"junction values differ by {v_gap}")
    times = np.concatenate([first.times, second.times[1:]])
    values = np.concatenate([first.values, second.values[1:]])
    return SampledPath(times, values)


def metric_d(
    w1: SampledPath,
    w2: SampledPath,
    radius_cap: int,
    p: float,
) -> float:
    """Truncated whole-line metric sum_{n<=cap} 2^-n ||w1-w2|| / (1 + ||w1-w2||).

    ||.|| is the full p-variation norm on [-n, n] clamped to the common
    domain.  Truncation error of the infinite sum is at most 2^-radius_cap.
    """
    if radius_cap < 1 or int(radius_cap) != radius_cap:
        raise ParameterError("radius_cap must be a positive integer")
    lo = max(w1.times[0], w2.times[0])
    hi = min(w1.times[-1], w2.times[-1])
    if lo >= hi:
        raise DomainError("paths share no common time window")
    total = 0.0
    for n in range(1, int(radius_cap) + 1):
        win = Interval(max(-float(n), lo), min(float(n), hi))
        nrm = difference_pvar_norm(w1, w2, p, win)
        total += 2.0 ** (-n) * nrm / (1.0 + nrm)
    return total


def difference_pvar_norm(w1: SampledPath, w2: SampledPath, p: float, window: WindowLike) -> float:
    """Full p-variation norm of w1 - w2 on a window (union grid)."""
    grid = merge_times(
        w1.restrict(window).times, w2.restrict(window).times
    )
    diff = w1.at(grid) - w2.at(grid)
    dpath = SampledPath(grid, diff)
    return p_variation_norm(dpath, p)


@dataclass(frozen=True)
class ControlFunction:
    """A superadditive, diagonal-vanishing function on the time simplex."""

    evaluator: Callable[[float, float], float]
    label: str = "control"

    def __call__(self, s: float, t: float) -> float:
        if t < s:
            raise ParameterError("control requires s <= t")
        return float(self.evaluator(s, t))

    @classmethod
    def zero(cls) -> "ControlFunction":
        return cls(lambda s, t: 0.0, "zero")

    @classmethod
    def linear(cls, rate: float = 1.0) -> "ControlFunction":
        if rate < 0:
            raise ParameterError("linear control needs a nonnegative rate")
        return cls(lambda s, t: rate * (t - s), f"{rate}*(t-s)")

    @classmethod
    def power(cls, theta: float, scale: float = 1.0) -> "ControlFunction":
        if theta < 1:
            raise ParameterError("(t-s)^theta is superadditive only for theta >= 1")
        return cls(lambda s, t: scale * (t - s) ** theta, f"{scale}*(t-s)^{theta}")

    @classmethod
    def from_p_variation(cls, path: SampledPath, p: float) -> "ControlFunction":
        """The control (s, t) -> |||path|||^p_{p-var,[s,t]}, bit-equal to
        p_variation(path, p, (s, t), power=True).

        The row of s, the DP over the samples of [s, path end], runs once
        per path and p: the rows live on the path (SampledPath._dp_rows), so
        every control of it shares them for the path's lifetime.
        The window's samples, cut by _window_samples as p_variation cuts
        them, are the row's up to the last before t, then a sample or a point
        on the row's next segment.  So the window's DP keeps no point the
        row's does not, with equal powers, and its last step is one exact max
        over the row's kept points before t, which reads only the cut's
        sample count and end value.  A two-sample cut and p = 1 take
        p_variation's own branch; every other window, one that covers the
        path included, is one step off its row.  p_variation's pair
        pre-pass keeps the final power (see _variation); the rows run
        without it.
        """
        rows = path._dp_rows.setdefault(p, {})

        def ev(s, t):
            values = _window_samples(path, Interval(s, t))[1]
            flat = values.reshape(len(values), -1)
            if p == 1.0 or len(flat) <= 2:
                return _variation(flat, p, power=True)
            if s not in rows:
                row = _window_samples(path, Interval(s, path.times[-1]))[1]
                row = row.reshape(len(row), -1)
                kept, V = _powers(row, p)
                rows[s] = (row[kept], kept, V)
            pts, kept, V = rows[s]
            k = int(np.searchsorted(kept, len(flat) - 1))
            return _endpoint_power(pts[:k], V[:k], flat[-1], p)

        return cls(ev, f"pvar^{p}")

    def diagonal_defect(self, times: Sequence[float]) -> float:
        return max(abs(self(float(t), float(t))) for t in times)

    def superadditivity_defect(self, times: Sequence[float]) -> float:
        """max over sampled triples s<=t<=u of w(s,t)+w(t,u)-w(s,u)."""
        ts = np.asarray(sorted(times), dtype=float)
        ts = ts[thin_indices(len(ts), 25)]
        worst = -np.inf
        for i in range(len(ts)):
            for j in range(i, len(ts)):
                for k in range(j, len(ts)):
                    gap = self(ts[i], ts[j]) + self(ts[j], ts[k]) - self(ts[i], ts[k])
                    worst = max(worst, gap)
        return float(worst)


def dominated_variation_bound(
    path: SampledPath,
    p: float,
    controls: Sequence[Tuple[float, ControlFunction]],
    window: WindowLike = None,
    max_anchors: int = 32,
) -> bool:
    """Check |||x|||_{p-var,[s,t]} <= sum_j C_j w_j(s,t)^{1/p} on sampled windows.

    The pointwise version of the same bound on increments is the caller's
    hypothesis; given it, the conclusion holds for every window, and this
    routine verifies it on all anchor pairs drawn from the sample times.
    """
    sub = path.restrict(window)
    omega = ControlFunction.from_p_variation(sub, p)
    ts = sub.times[thin_indices(len(sub.times), max_anchors)]
    for s, t in itertools.combinations(ts.tolist(), 2):
        lhs = omega(s, t) ** (1.0 / p)
        rhs = sum(c * w(s, t) ** (1.0 / p) for c, w in controls)
        if lhs > rhs + 1e-10:
            return False
    return True
