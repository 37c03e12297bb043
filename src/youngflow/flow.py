"""Cauchy operator, two-parameter flow axioms, and non-intersection checks.

The state transport X(t1, t2, w, x) solves forward when t1 <= t2 and
inverts the flow through the backward equation when t1 > t2.  It moves a
whole stack of states at once: the greedy partition depends on the window
and the direction, not on the state, so one is built per window, and
independent transports advance in lockstep (lockstep_transport).  The
flow axioms (identity, inversion, composition) are verified as residuals
on probe states; homeomorphy is checked operationally through the
inversion round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .coefficients import CoefficientField, ExponentSet, derived_constants
from .errors import ParameterError, PreconditionError
from .paths import _TIME_TOL, SampledPath, WindowLike, as_interval, p_variation, p_variation_norm
from .solver import SolveOptions, _gronwall_constant, _leg, _lockstep, solve_forward_batch
from .young import Certificate


def _transport_lanes(field: CoefficientField, driver: SampledPath, lanes,
                     opts: Optional[SolveOptions], exponents: Optional[ExponentSet]):
    """solver._lockstep's lanes for the transports (x, times): x, (d,) or
    (B, d), moves from times[0] to times[1], on to times[2] and so on."""
    built = []
    for x, times in lanes:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim > 2 or x.shape[-1] != field.dim_d:
            raise ParameterError(f"states of shape {x.shape}, field expects (d,) or (B, d) with "
                                 f"d = {field.dim_d}")
        x = x.reshape(-1, field.dim_d)
        built.append((x, [_leg(field, driver, a, b, opts, exponents)
                          for a, b in zip(times[:-1], times[1:]) if a != b]))
    return built


def lockstep_transport(
    field: CoefficientField,
    driver: SampledPath,
    lanes: Sequence[Tuple[np.ndarray, Sequence[float]]],
    opts: Optional[SolveOptions] = None,
    exponents: Optional[ExponentSet] = None,
) -> List[np.ndarray]:
    """Transport independent stacks together: lane (x, times) moves its
    states x, (d,) or (B, d), from times[0] to times[1], on to times[2] and
    so on, and its end stack (B, d) comes back in lane order.  The lanes
    advance chunk by chunk in one Picard stack (solver._lockstep), and each
    end equals its chain of cauchy_operator calls bit for bit.
    """
    (_, ends), = _lockstep([_transport_lanes(field, driver, lanes, opts, exponents)], opts)
    return ends


def cauchy_operator(
    field: CoefficientField,
    driver: SampledPath,
    t1: float,
    t2: float,
    x,
    opts: Optional[SolveOptions] = None,
    exponents: Optional[ExponentSet] = None,
) -> np.ndarray:
    """Transport the state x, shape (d,), or the stack x, shape (B, d), from
    time t1 to time t2 along the dynamics; the result has the shape of x.
    The one-lane call of lockstep_transport: only the end states are
    computed.
    """
    end = lockstep_transport(field, driver, [(x, (t1, t2))], opts, exponents)[0]
    return end if np.ndim(x) == 2 else end[0]


@dataclass
class FlowCheckReport:
    times: Tuple[float, float, float]
    identity_residuals: np.ndarray
    inversion_residuals: np.ndarray
    composition_residuals: np.ndarray
    tol: float
    continuity_table: List[Tuple[float, float]] = dc_field(default_factory=list)

    @property
    def identity_residual(self) -> float:
        return float(np.max(self.identity_residuals))

    @property
    def inversion_residual(self) -> float:
        return float(np.max(self.inversion_residuals))

    @property
    def composition_residual(self) -> float:
        return float(np.max(self.composition_residuals))

    @property
    def ok(self) -> bool:
        return (
            self.identity_residual == 0.0
            and self.inversion_residual <= self.tol
            and self.composition_residual <= self.tol
        )

    def to_json(self) -> dict:
        return {
            "times": list(self.times),
            "identity_residual": self.identity_residual,
            "inversion_residual": self.inversion_residual,
            "composition_residual": self.composition_residual,
            "tol": self.tol,
            "ok": bool(self.ok),
            "continuity_table": [[float(a), float(b)] for a, b in self.continuity_table],
        }


def flow_axiom_check(
    field: CoefficientField,
    driver: SampledPath,
    times: Tuple[float, float, float],
    probes: Sequence,
    tol: float = 1e-5,
    opts: Optional[SolveOptions] = None,
    exponents: Optional[ExponentSet] = None,
    continuity_sizes: Optional[Sequence[float]] = None,
) -> FlowCheckReport:
    """Residuals of the flow axioms at one time triple over probe states.

    Per probe x: |X(s,s,x) - x| (exact zero, no solve), the inversion
    round trip |X(t,s,X(s,t,x)) - x| and the composition gap
    |X(u,t,X(s,u,x)) - X(s,t,x)|.  X(s,t), whose stack holds the continuity
    table's perturbed first probes too, and X(s,u) -> X(u,t) are two lanes
    of one lockstep transport; the backward X(t,s) follows alone.
    """
    if len(probes) == 0:
        raise ParameterError("flow_axiom_check needs at least one probe state")
    s, u, t = (float(v) for v in times)
    P = np.stack([np.atleast_1d(np.asarray(probe, dtype=float)) for probe in probes])
    norms = lambda diff: [float(np.linalg.norm(row)) for row in diff]
    ident = norms(cauchy_operator(field, driver, s, s, P, opts, exponents) - P)
    sizes = list(continuity_sizes or [])
    moved = P[:1] + np.outer(sizes, np.eye(1, P.shape[1]))  # base + eps e1
    x_st, x_sut = lockstep_transport(field, driver, [(np.concatenate([P, moved]), (s, t)),
                                                     (P, (s, u, t))], opts, exponents)
    x_st, moved = x_st[:len(P)], x_st[len(P):]
    invs = norms(cauchy_operator(field, driver, t, s, x_st, opts, exponents) - P)
    comps = norms(x_sut - x_st)
    table = [(float(eps), resp) for eps, resp in zip(sizes, norms(moved - x_st[0]))]
    return FlowCheckReport(
        times=(s, u, t),
        identity_residuals=np.array(ident),
        inversion_residuals=np.array(invs),
        composition_residuals=np.array(comps),
        tol=tol,
        continuity_table=table,
    )


def difference_growth_log_constant(
    field: CoefficientField,
    driver: SampledPath,
    exponents: ExponentSet,
    window: WindowLike,
    N0: float,
) -> float:
    """log of the Lipschitz constant tying states at window ends.

    The difference z of two solutions satisfies the q-variation self-bound
    with control A = 0 and coefficient c_z = M'_{N0} (K0+1) (2 + 2 N0^delta),
    hence |z_t| <= |z_s| (1 + exp(C_z ((t-s)^p + |||w|||^p))) with
    C_z = 4^p c_z^p ln 2.  Returns log of that factor (it can overflow).
    """
    window = as_interval(window)
    cons = derived_constants(field, window.lo, window.hi, exponents.K0)
    c_z = cons.M_prime(N0) * (exponents.K0 + 1.0) * (2.0 + 2.0 * N0 ** exponents.delta)
    C_z = _gronwall_constant(c_z, exponents.p)
    theta = (window.hi - window.lo) ** exponents.p + p_variation(driver, exponents.p, window,
                                                                 power=True)
    return float(np.logaddexp(0.0, C_z * theta))


def non_intersection_check(
    field: CoefficientField,
    driver: SampledPath,
    t0: float,
    x0,
    x0_prime,
    window: WindowLike,
    opts: Optional[SolveOptions] = None,
    exponents: Optional[ExponentSet] = None,
) -> Certificate:
    """Minimum separation of two trajectories against a positive floor.

    Both trajectories start at t0, which must be window.lo, and the floor
    comes from transporting the separation back to window.lo: if the paths
    came within eps at some time, the backward continuity estimate would
    force |x0 - x0'| <= C eps, so the separation never drops below
    |x0 - x0'| / C.  A violated floor is reported in the certificate, not
    raised.
    """
    window = as_interval(window)
    if abs(t0 - window.lo) > _TIME_TOL * max(window.length, 1.0):
        raise ParameterError(f"non_intersection_check starts at window.lo = {window.lo}, "
                             f"got t0 = {t0}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    x0p = np.atleast_1d(np.asarray(x0_prime, dtype=float))
    if np.allclose(x0, x0p):
        raise PreconditionError("non_intersection_check needs distinct initial states")
    both = solve_forward_batch(field, driver, window.lo, np.stack([x0, x0p]), window.hi,
                               opts, exponents)
    sep = np.linalg.norm(both.values[:, 0] - both.values[:, 1], axis=1)
    min_sep = float(np.min(sep))
    argmin_t = float(both.times[int(np.argmin(sep))])

    N0 = max(p_variation_norm(SampledPath(both.times, both.values[:, b]), exponents.q)
             for b in (0, 1))
    log_C = difference_growth_log_constant(field, driver, exponents, window, N0)
    log_floor = math.log(float(np.linalg.norm(x0 - x0p))) - log_C
    floor = math.exp(max(log_floor, -700.0))
    ok = min_sep >= floor and min_sep > 0.0
    return Certificate(
        name="non_intersection",
        lhs=float(floor),
        rhs=float(min_sep),
        ok=bool(ok),
        window=(window.lo, window.hi),
        extra={
            "min_separation": min_sep,
            "argmin_time": argmin_t,
            "log_floor": float(log_floor),
            "log_constant": float(log_C),
            "N0": float(N0),
        },
    )
