"""Riemann-Stieltjes sums, Young integrals and sewing-estimate certificates.

The integral of x against a driver w with variation exponents q, p exists
whenever theta = 1/p + 1/q > 1, and the defect of the one-step sum obeys

    | int_s^t x dw  -  x_s (w_t - w_s) |  <=  K |||x|||_{q-var} |||w|||_{p-var}

with K = (1 - 2^(1-theta))^(-1).  Both sides are computable from samples,
and the estimate holds verbatim for sums along finite partitions, which is
what this module checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import ParameterError, RegularityError, ShapeError
from .paths import (
    SampledPath,
    WindowLike,
    as_interval,
    merge_times,
    p_variation,
)


@dataclass(frozen=True)
class YoungConstants:
    """Exponent pair (p, q) with theta = 1/p + 1/q > 1 and K = (1-2^{1-theta})^{-1}."""

    p: float
    q: float

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ParameterError("variation exponents must be >= 1")
        if self.theta <= 1:
            raise RegularityError(
                f"1/p + 1/q = {self.theta} <= 1: Young pairing not defined"
            )

    @property
    def theta(self) -> float:
        return 1.0 / self.p + 1.0 / self.q

    @property
    def K(self) -> float:
        return 1.0 / (1.0 - 2.0 ** (1.0 - self.theta))


@dataclass(frozen=True)
class IntegralResult:
    value: np.ndarray
    partition_size: int
    defect_bound: float
    refinement_gap: float
    converged: bool
    coarse_values: Tuple[Tuple[int, float], ...] = field(default=())


@dataclass(frozen=True)
class Certificate:
    """A checked inequality lhs <= rhs (+tol), serialisable to JSON."""

    name: str
    lhs: float
    rhs: float
    ok: bool
    window: Tuple[float, float]
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ok": bool(self.ok),
            "window": list(self.window),
        }
        if self.extra:
            out["extra"] = {
                k: (bool(v) if isinstance(v, (bool, np.bool_)) else v)
                for k, v in self.extra.items()
            }
        return out


def _pair_terms(x_vals: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Per-step products x * dw for the supported shape pairings."""
    if x_vals.ndim == 3:  # (n, d, m) matrix against (n, m) increments
        if x_vals.shape[2] != dw.shape[1]:
            raise ShapeError(
                f"integrand columns {x_vals.shape[2]} != driver dimension {dw.shape[1]}"
            )
        return np.einsum("ndm,nm->nd", x_vals, dw)
    if x_vals.ndim == 2 and x_vals.shape[1] == 1:
        return x_vals * dw  # scalar integrand, vector driver
    if x_vals.ndim == 2 and dw.shape[1] == 1:
        return x_vals * dw  # vector integrand, scalar driver
    raise ShapeError(
        f"cannot pair integrand shape {x_vals.shape[1:]} with driver "
        f"dimension {dw.shape[1]}"
    )


_RULES = {
    "left": lambda x: x[:-1],
    "right": lambda x: x[1:],
    "midpoint": lambda x: 0.5 * (x[:-1] + x[1:]),
}


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """Partial sums of the per-step terms along axis 0, starting from a zero row."""
    out = np.zeros((len(terms) + 1,) + terms.shape[1:])
    np.cumsum(terms, axis=0, out=out[1:])
    return out


def _rs_terms(
    integrand: SampledPath,
    driver: SampledPath,
    window: WindowLike,
    rule: str,
):
    """The finest common grid, both paths on it and the per-step RS terms.

    rule selects the evaluation point xi_i on [t_i, t_{i+1}]: left, right
    or midpoint (for the linear interpolant the midpoint value is the
    average of the endpoint values).
    """
    if rule not in _RULES:
        raise ParameterError(f"unknown rule {rule!r}")
    window = as_interval(window)
    grid = merge_times(integrand.restrict(window).times, driver.restrict(window).times)
    x_vals, w_vals = integrand.at(grid), driver.at(grid)
    terms = _pair_terms(_RULES[rule](x_vals), np.diff(w_vals, axis=0))
    return grid, x_vals, w_vals, terms


def rs_sum(
    integrand: SampledPath,
    driver: SampledPath,
    window: WindowLike = None,
    rule: str = "left",
) -> np.ndarray:
    """Riemann-Stieltjes sum over the finest common sample grid (see _rs_terms)."""
    return _rs_terms(integrand, driver, window, rule)[3].sum(axis=0)


def partial_sums_path(
    integrand: SampledPath,
    driver: SampledPath,
    window: WindowLike = None,
    rule: str = "left",
) -> SampledPath:
    """The path t -> sum of RS terms up to t on the common grid."""
    grid, _, _, terms = _rs_terms(integrand, driver, window, rule)
    return SampledPath(grid, _running_sum(terms))


def reverse_integral(
    integrand: SampledPath,
    driver: SampledPath,
    window: WindowLike = None,
    rule: str = "left",
) -> np.ndarray:
    """The orientation-reversed integral: same terms with negated increments."""
    return -rs_sum(integrand, driver, window, rule)


def young_integral(
    integrand: SampledPath,
    driver: SampledPath,
    window: WindowLike = None,
    refine_tol: float = 1e-8,
    constants: Optional[YoungConstants] = None,
) -> IntegralResult:
    """Left-rule Young integral on the finest common grid with a Cauchy check.

    Dyadic coarsenings of the grid are evaluated to exhibit convergence;
    converged is False when the full and half resolution values still differ
    by refine_tol or more.  defect_bound is the sewing-estimate right-hand
    side K |||x|||_{q-var} |||w|||_{p-var} for the supplied constants
    (total-variation exponents p = q = 1 if none are given).
    """
    if refine_tol <= 0:
        raise ParameterError("refine_tol must be positive")
    if constants is None:
        constants = YoungConstants(1.0, 1.0)
    grid, x_vals, w_vals, terms = _rs_terms(integrand, driver, window, "left")
    value = terms.sum(axis=0)

    coarse: List[Tuple[int, float]] = []
    stride = 2
    while (len(grid) - 1) // stride >= 4:
        idx = np.unique(np.concatenate([np.arange(0, len(grid), stride), [len(grid) - 1]]))
        v = _pair_terms(_RULES["left"](x_vals[idx]), np.diff(w_vals[idx], axis=0)).sum(axis=0)
        coarse.append((len(idx), float(np.linalg.norm(v - value))))
        stride *= 2
    gap = coarse[0][1] if coarse else 0.0

    x_path = SampledPath(grid, x_vals)
    w_path = SampledPath(grid, w_vals)
    bound = constants.K * p_variation(x_path, constants.q) * p_variation(w_path, constants.p)
    return IntegralResult(
        value=value,
        partition_size=len(grid),
        defect_bound=float(bound),
        refinement_gap=gap,
        converged=bool(gap < refine_tol),
        coarse_values=tuple(coarse),
    )


def young_loeve_check(
    integrand: SampledPath,
    driver: SampledPath,
    window: WindowLike = None,
    constants: Optional[YoungConstants] = None,
    tol: float = 1e-10,
) -> Certificate:
    """Certify the sewing defect bound and the integral-path variation bound.

    defect = |int x dw - x_s (w_t - w_s)| against K |||x|||_q |||w|||_p, and
    additionally |||int_a^. x dw|||_p <= |||w|||_p (|x_a| + (K+1) |||x|||_q).
    """
    if constants is None:
        raise ParameterError("young_loeve_check needs explicit YoungConstants")
    grid, x_vals, w_vals, terms = _rs_terms(integrand, driver, window, "left")
    x_path = SampledPath(grid, x_vals)
    w_path = SampledPath(grid, w_vals)
    integral = terms.sum(axis=0)
    one_step = _pair_terms(x_vals[:1], (w_vals[-1] - w_vals[0])[None])[0]
    defect = float(np.linalg.norm(integral - one_step))

    K = constants.K
    var_x = p_variation(x_path, constants.q)
    var_w = p_variation(w_path, constants.p)
    bound = K * var_x * var_w

    yl1_lhs = p_variation(SampledPath(grid, _running_sum(terms)), constants.p)
    x_a = float(np.linalg.norm(x_vals.reshape(len(grid), -1)[0]))
    yl1_rhs = var_w * (x_a + (K + 1.0) * var_x)

    ok = defect <= bound + tol and yl1_lhs <= yl1_rhs + tol
    return Certificate(
        name="young_loeve",
        lhs=defect,
        rhs=float(bound),
        ok=bool(ok),
        window=(float(grid[0]), float(grid[-1])),
        extra={
            "defect": defect,
            "bound": float(bound),
            "yl1_lhs": float(yl1_lhs),
            "yl1_rhs": float(yl1_rhs),
            "yl1_ok": bool(yl1_lhs <= yl1_rhs + tol),
            "K": float(K),
        },
    )
