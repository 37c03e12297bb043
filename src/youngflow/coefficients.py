"""Coefficient pairs (f, g), their regularity constants, and exponent selection.

A coefficient field declares the constants of its own regularity
hypotheses (Lipschitz / local Hoelder / time modulus for g, local
Lipschitz and linear growth for f).  They are user-declared and probed
numerically; exact constants for black-box callables are uncomputable.

All field callables are vectorised over the leading axis:

    f(ts (n,), xs (n, d))   -> (n, d)
    g(ts, xs)               -> (n, d, m)
    g_x(ts, xs)             -> (n, d, m, d)     d/dx_k of g_ij

`select_exponents` turns (p, alpha, beta, delta) into the admissible
pair (q0, q): midpoints in 1/q coordinates of

    1 - 1/p < 1/q0 < min(beta, delta*alpha, delta/p, 1/2)
    1/(q0*delta) <= 1/q < min(alpha, 1/p)

which forces 1/p + 1/q0 > 1, q0*beta > 1, q0 >= q0*delta >= q > p
and q*alpha > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import InfeasibleExponentsError, ParameterError, PreconditionError
from .paths import (
    ControlFunction,
    Interval,
    SampledPath,
    WindowLike,
    as_interval,
    p_variation,
)
from .young import Certificate, YoungConstants

# slack of the composed-path certificates' comparisons
_CERT_TOL = 1e-10


def _as_const_fn(value: Union[float, Callable[[float], float]]) -> Callable[[float], float]:
    if callable(value):
        return value
    return lambda N, _v=float(value): _v


@dataclass(frozen=True)
class GronwallData:
    """Structure of the field used to instantiate self-bound certificates.

    mode "linear": f(t,x) = a1_coeff*x + phi(t), g(t,x) = a2_coeff*x + psi(t)
    with constant matrices (scalars here); the inhomogeneity bounds are
    sup|phi|, sup|psi| and a Lipschitz constant of psi in time.
    mode "bounded": |f| <= f_bound and |g| <= g_bound everywhere.
    """

    mode: str
    a1: float = 0.0
    a2: float = 0.0
    drift_inhom: float = 0.0
    noise_inhom: float = 0.0
    noise_inhom_lip: float = 0.0
    f_bound: float = 0.0
    g_bound: float = 0.0

    def __post_init__(self):
        if self.mode not in ("linear", "bounded"):
            raise ParameterError(f"unknown gronwall mode {self.mode!r}; choose linear or bounded")


@dataclass(frozen=True)
class CoefficientField:
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dim_d: int
    dim_m: int
    L_g: float
    M_N: Callable[[float], float]
    delta: float
    beta: float
    h: ControlFunction
    L_N: Callable[[float], float]
    a: float
    b: Callable[[np.ndarray], np.ndarray]
    b_norm: Callable[[float, float], float]
    alpha: float
    name: str = "field"
    gronwall: Optional[GronwallData] = None

    def __post_init__(self):
        if not (0 < self.delta <= 1 and 0 < self.beta <= 1):
            raise ParameterError("delta and beta must lie in (0, 1]")
        if not (0.5 <= self.alpha < 1):
            raise ParameterError("alpha must lie in [1/2, 1)")

    def eval_f(self, ts, xs) -> np.ndarray:
        ts = np.asarray(ts, float)
        out = np.asarray(self.f(ts, np.asarray(xs, float)), float)
        return out.reshape(ts.size, self.dim_d)

    def eval_g(self, ts, xs) -> np.ndarray:
        ts = np.asarray(ts, float)
        out = np.asarray(self.g(ts, np.asarray(xs, float)), float)
        return out.reshape(ts.size, self.dim_d, self.dim_m)

    def eval_g_x(self, ts, xs) -> np.ndarray:
        out = np.asarray(self.g_x(np.asarray(ts, float), np.asarray(xs, float)), float)
        return out.reshape(len(np.atleast_1d(ts)), self.dim_d, self.dim_m, self.dim_d)

    def time_reversed(self, t0: float, t1: float) -> "CoefficientField":
        """The field of the inverse-flow problem on the reversed clock
        u -> t0 + t1 - u: running dy = -f_hat du + g_hat d(w o rho) forward
        on the reversed clock traces the original trajectories backwards.
        """
        rho = lambda u: (t0 + t1) - np.asarray(u, float)
        f, g, g_x, b, h = self.f, self.g, self.g_x, self.b, self.h
        return replace(
            self,
            f=lambda ts, xs: -f(rho(ts), xs),
            g=lambda ts, xs: g(rho(ts), xs),
            g_x=lambda ts, xs: g_x(rho(ts), xs),
            h=ControlFunction(
                lambda s, t: h(min(rho(t), rho(s)), max(rho(t), rho(s))),
                f"reversed({h.label})",
            ),
            b=lambda ts: b(rho(ts)),
            name=f"{self.name}-reversed",
        )


def scalar_field(
    f,
    g,
    g_x,
    *,
    L_g: float,
    M_N,
    delta: float,
    beta: float,
    h: ControlFunction,
    L_N,
    a: float,
    b=None,
    b_norm=None,
    alpha: float = 0.75,
    name: str = "scalar",
    gronwall: Optional[GronwallData] = None,
) -> CoefficientField:
    """Wrap elementwise scalar callables f(t,x), g(t,x), g_x(t,x) into a field.

    The callables must accept numpy arrays (broadcasting elementwise);
    b defaults to 0 with b_norm 0.
    """
    bf = (lambda ts: np.zeros_like(np.asarray(ts, float))) if b is None else b
    bn = (lambda t0, t1: 0.0) if b_norm is None else b_norm
    return CoefficientField(
        f=lambda ts, xs: np.asarray(f(ts, xs[:, 0]), float)[:, None],
        g=lambda ts, xs: np.asarray(g(ts, xs[:, 0]), float)[:, None, None],
        g_x=lambda ts, xs: np.asarray(g_x(ts, xs[:, 0]), float)[:, None, None, None],
        dim_d=1,
        dim_m=1,
        L_g=L_g,
        M_N=_as_const_fn(M_N),
        delta=delta,
        beta=beta,
        h=h,
        L_N=_as_const_fn(L_N),
        a=a,
        b=bf,
        b_norm=bn,
        alpha=alpha,
        name=name,
        gronwall=gronwall,
    )


# ----------------------------------------------------------------------
# built-in fields (scalar, d = m = 1), selectable by name


def linear_field(
    af: float = -0.5,
    b0: float = 0.1,
    c: float = 0.4,
    d0: float = 0.2,
    alpha: float = 0.75,
    beta: float = 0.75,
    name: str = "linear",
) -> CoefficientField:
    """f(t,x) = af*x + b0,  g(t,x) = c*x + d0."""
    return scalar_field(
        f=lambda t, x: af * x + b0,
        g=lambda t, x: c * x + d0,
        g_x=lambda t, x: c * np.ones_like(x),
        L_g=abs(c),
        M_N=0.0,
        delta=1.0,
        beta=beta,
        h=ControlFunction.zero(),
        L_N=abs(af),
        a=abs(af),
        b=lambda ts: abs(b0) * np.ones_like(np.asarray(ts, float)),
        b_norm=lambda t0, t1: abs(b0) * (t1 - t0) ** (1 - alpha),
        alpha=alpha,
        name=name,
        gronwall=GronwallData(
            mode="linear",
            a1=abs(af),
            a2=abs(c),
            drift_inhom=abs(b0),
            noise_inhom=abs(d0),
            noise_inhom_lip=0.0,
        ),
    )


# sup |d/du (2 tanh(u) (1 - tanh(u)^2))| ... the Hoelder constant of
# (tanh)' is sup|(tanh^2)'| = 4/(3 sqrt 3); padded slightly for safety.
_TANH_DDX = 4.0 / (3.0 * math.sqrt(3.0)) * (1.0 + 1e-9)


def bounded_smooth_field(
    af: float = 0.3,
    c: float = 0.5,
    nu: float = 1.0,
    beta: float = 0.75,
    alpha: float = 0.75,
    name: str = "bounded-smooth",
) -> CoefficientField:
    """f(t,x) = af*tanh(x),  g(t,x) = c*cos(nu t)*tanh(x)."""
    lip_t = 2.0 * abs(c) * abs(nu)  # time modulus of g and g_x together
    return scalar_field(
        f=lambda t, x: af * np.tanh(x),
        g=lambda t, x: c * np.cos(nu * t) * np.tanh(x),
        g_x=lambda t, x: c * np.cos(nu * t) * (1.0 - np.tanh(x) ** 2),
        L_g=abs(c),
        M_N=abs(c) * _TANH_DDX,
        delta=1.0,
        beta=beta,
        h=ControlFunction.power(1.0 / beta, lip_t ** (1.0 / beta)),
        L_N=abs(af),
        a=abs(af),
        alpha=alpha,
        name=name,
        gronwall=GronwallData(mode="bounded", f_bound=abs(af), g_bound=abs(c)),
    )


def time_varying_field(
    af: float = 0.3,
    b1: float = 0.1,
    nu_b: float = 1.0,
    c: float = 0.35,
    c1: float = 0.15,
    nu_g: float = 1.5,
    alpha: float = 0.75,
    beta: float = 0.75,
    name: str = "time-varying",
) -> CoefficientField:
    """f(t,x) = af*x + b1*sin(nu_b t),  g(t,x) = c*x + c1*sin(nu_g t)."""
    lip_t = abs(c1) * abs(nu_g)
    return scalar_field(
        f=lambda t, x: af * x + b1 * np.sin(nu_b * t),
        g=lambda t, x: c * x + c1 * np.sin(nu_g * t),
        g_x=lambda t, x: c * np.ones_like(x),
        L_g=abs(c),
        M_N=0.0,
        delta=1.0,
        beta=beta,
        h=ControlFunction.power(1.0 / beta, lip_t ** (1.0 / beta)),
        L_N=abs(af),
        a=abs(af),
        b=lambda ts: abs(b1) * np.abs(np.sin(nu_b * np.asarray(ts, float))),
        b_norm=lambda t0, t1: abs(b1) * (t1 - t0) ** (1 - alpha),
        alpha=alpha,
        name=name,
        gronwall=GronwallData(
            mode="linear",
            a1=abs(af),
            a2=abs(c),
            drift_inhom=abs(b1),
            noise_inhom=abs(c1),
            noise_inhom_lip=lip_t,
        ),
    )


BUILTIN_FIELDS = {
    "linear": linear_field,
    "bounded-smooth": bounded_smooth_field,
    "time-varying": time_varying_field,
}


# ----------------------------------------------------------------------
# exponents


@dataclass(frozen=True)
class ExponentSet:
    p: float
    q0: float
    q: float
    alpha: float
    beta: float
    delta: float

    @property
    def p_prime(self) -> float:
        return max(self.p, 1.0 / self.alpha)

    @property
    def young0(self) -> YoungConstants:
        """Pairing of the driver with the composed integrand g(., x_.)."""
        return YoungConstants(self.p, self.q0)

    @property
    def youngq(self) -> YoungConstants:
        """Pairing of the driver with solution-regularity paths."""
        return YoungConstants(self.p, self.q)

    @property
    def K0(self) -> float:
        return self.young0.K

    def validate(self) -> None:
        p, q0, q = self.p, self.q0, self.q
        alpha, beta, delta = self.alpha, self.beta, self.delta
        checks = [
            ("1 < p < 2", 1 < p < 2),
            ("0 < delta <= 1", 0 < delta <= 1),
            ("0 < beta <= 1", 0 < beta <= 1),
            ("1/2 <= alpha < 1", 0.5 <= alpha < 1),
            ("delta > p - 1", delta > p - 1),
            ("beta > 1 - 1/p", beta > 1 - 1 / p),
            ("delta*alpha > 1 - 1/p", delta * alpha > 1 - 1 / p),
            ("1/q0 > 1 - 1/p", 1 / q0 > 1 - 1 / p),
            (
                "1/q0 < min(beta, delta*alpha, delta/p, 1/2)",
                1 / q0 < min(beta, delta * alpha, delta / p, 0.5),
            ),
            ("1/q >= 1/(q0*delta)", 1 / q >= 1 / (q0 * delta) - 1e-12),
            ("1/q < min(alpha, 1/p)", 1 / q < min(alpha, 1 / p)),
            ("1/p + 1/q0 > 1", 1 / p + 1 / q0 > 1),
            ("q0*beta > 1", q0 * beta > 1),
            ("q0 >= q0*delta >= q > p", q0 >= q0 * delta >= q - 1e-12 and q > p),
            ("q*alpha > 1", q * alpha > 1),
        ]
        for label, ok in checks:
            if not ok:
                raise InfeasibleExponentsError(f"exponent condition violated: {label}")


def select_exponents(p: float, alpha: float, beta: float, delta: float) -> ExponentSet:
    """Choose (q0, q) as interval midpoints in 1/q coordinates and validate."""
    if not 1 < p < 2:
        raise InfeasibleExponentsError(f"exponent condition violated: 1 < p < 2 (p={p})")
    for label, ok in [
        (f"delta > p - 1 (delta={delta}, p={p})", delta > p - 1),
        (f"beta > 1 - 1/p (beta={beta}, p={p})", beta > 1 - 1 / p),
        (
            f"delta*alpha > 1 - 1/p (delta*alpha={delta * alpha}, p={p})",
            delta * alpha > 1 - 1 / p,
        ),
    ]:
        if not ok:
            raise InfeasibleExponentsError(f"exponent condition violated: {label}")
    lo0 = 1 - 1 / p
    hi0 = min(beta, delta * alpha, delta / p, 0.5)
    if not lo0 < hi0:
        raise InfeasibleExponentsError(
            f"exponent condition violated: empty interval for 1/q0 ({lo0} >= {hi0})"
        )
    inv_q0 = 0.5 * (lo0 + hi0)
    q0 = 1.0 / inv_q0
    lo1 = 1.0 / (q0 * delta)
    hi1 = min(alpha, 1 / p)
    if not lo1 < hi1:
        raise InfeasibleExponentsError(
            f"exponent condition violated: empty interval for 1/q ({lo1} >= {hi1})"
        )
    inv_q = 0.5 * (lo1 + hi1)
    exps = ExponentSet(p=p, q0=q0, q=1.0 / inv_q, alpha=alpha, beta=beta, delta=delta)
    exps.validate()
    return exps


# ----------------------------------------------------------------------
# derived constants


@dataclass(frozen=True)
class DerivedConstants:
    """Window-anchored aggregates of the declared field constants.

    M = max(L_g, a*(t1-t0)^(1-alpha), |g(t0,0)| + h(t0,t1)^beta, ||b||)
    M_prime(N) = max(L_N(N), M_N(N), M) and mu_star = 1/(2 M (K+2)).
    """

    M: float
    M_prime: Callable[[float], float]
    mu_star: float
    K: float
    window: Interval


def derived_constants(field: CoefficientField, t0: float, t1: float, K: float) -> DerivedConstants:
    g00 = float(np.linalg.norm(field.eval_g(np.array([t0]), np.zeros((1, field.dim_d)))[0]))
    M = max(
        field.L_g,
        field.a * (t1 - t0) ** (1 - field.alpha),
        g00 + field.h(t0, t1) ** field.beta,
        field.b_norm(t0, t1),
    )
    M_prime = lambda N: max(field.L_N(N), field.M_N(N), M)
    mu_star = math.inf if M == 0 else 1.0 / (2.0 * M * (K + 2.0))
    return DerivedConstants(M=float(M), M_prime=M_prime, mu_star=mu_star, K=K, window=Interval(t0, t1))


# ----------------------------------------------------------------------
# hypothesis probing and composition certificates


def verify_hypotheses(
    field: CoefficientField,
    t0: float,
    t1: float,
    box_radius: float = 2.0,
    n_probes: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Spot-check the declared regularity constants on random probes.

    Returns the maximum defect (lhs - rhs) per hypothesis; all should be
    <= 0 up to roundoff for honestly declared constants.
    """
    rng = rng or np.random.default_rng(0)
    d = field.dim_d
    N = box_radius
    ts = rng.uniform(t0, t1, n_probes)
    ss = rng.uniform(t0, t1, n_probes)
    ss, ts2 = np.minimum(ss, ts), np.maximum(ss, ts)
    xs = rng.uniform(-N, N, (n_probes, d))
    ys = rng.uniform(-N, N, (n_probes, d))

    def nrm(arr):
        return np.linalg.norm(arr.reshape(len(arr), -1), axis=1)

    g_tx, g_ty = field.eval_g(ts, xs), field.eval_g(ts, ys)
    gx_tx, gx_ty = field.eval_g_x(ts, xs), field.eval_g_x(ts, ys)
    g_sx, gx_sx = field.eval_g(ss, xs), field.eval_g_x(ss, xs)
    g_tx2, gx_tx2 = field.eval_g(ts2, xs), field.eval_g_x(ts2, xs)
    f_tx, f_ty = field.eval_f(ts, xs), field.eval_f(ts, ys)
    dxy = np.linalg.norm(xs - ys, axis=1)

    h_pow = np.array([field.h(float(s), float(t)) ** field.beta for s, t in zip(ss, ts2)])
    defects = {
        "H1_lipschitz_g": float(np.max(nrm(g_tx - g_ty) - field.L_g * dxy)),
        "H1_holder_g_x": float(
            np.max(nrm(gx_tx - gx_ty) - field.M_N(N) * dxy ** field.delta)
        ),
        "H1_time_modulus": float(
            np.max(nrm(g_tx2 - g_sx) + nrm(gx_tx2 - gx_sx) - h_pow)
        ),
        "H2_lipschitz_f": float(np.max(nrm(f_tx - f_ty) - field.L_N(N) * dxy)),
        "H2_growth_f": float(
            np.max(nrm(f_tx) - field.a * np.linalg.norm(xs, axis=1) - field.b(ts))
        ),
    }
    return defects


def composed_path(field: CoefficientField, x: SampledPath, window: WindowLike = None) -> SampledPath:
    """The matrix-valued path t -> g(t, x_t) on x's grid."""
    sub = x.restrict(window)
    return SampledPath(sub.times, field.eval_g(sub.times, sub.values))


def composed_variation_bound(
    field: CoefficientField,
    x: SampledPath,
    window: WindowLike,
    exponents: ExponentSet,
) -> Certificate:
    """Certify |||g(., x_.)|||_{q0-var} <= M (1 + |||x|||_{q-var}) on the window."""
    window = as_interval(window) or x.domain
    sub = x.restrict(window)
    cons = derived_constants(field, window.lo, window.hi, exponents.K0)
    comp = composed_path(field, sub)
    lhs = p_variation(comp, exponents.q0)
    var_x = p_variation(sub, exponents.q)
    rhs = cons.M * (1.0 + var_x)

    g_vals = field.eval_g(sub.times, sub.values)
    g_norm = np.linalg.norm(g_vals.reshape(len(sub.times), -1), axis=1)
    growth_gap = float(np.max(g_norm - cons.M * (1.0 + np.linalg.norm(sub.values, axis=1))))
    return Certificate(
        name="composed_variation",
        lhs=float(lhs),
        rhs=float(rhs),
        ok=bool(lhs <= rhs + _CERT_TOL and growth_gap <= _CERT_TOL),
        window=(window.lo, window.hi),
        extra={"M": cons.M, "growth_gap": growth_gap},
    )


def composed_difference_bound(
    field: CoefficientField,
    x: SampledPath,
    y: SampledPath,
    window: WindowLike,
    exponents: ExponentSet,
    rng: Optional[np.random.Generator] = None,
) -> Certificate:
    """Certify the q0-variation bound for g(., x_.) - g(., y_.).

    Requires x and y to start at the same value; also spot-checks the
    pointwise four-point inequality on random probe quadruples.
    """
    window = as_interval(window) or x.domain
    xs, ys = x.restrict(window), y.restrict(window)
    if np.linalg.norm(xs.values[0] - ys.values[0]) > 1e-9:
        raise PreconditionError("composed_difference_bound needs x_{t0} = y_{t0}")
    grid = xs.times
    yv = y.at(grid)
    xv = xs.values
    N = float(max(np.max(np.linalg.norm(xv, axis=1)), np.max(np.linalg.norm(yv, axis=1))))
    cons = derived_constants(field, window.lo, window.hi, exponents.K0)
    gx_path = SampledPath(grid, field.eval_g(grid, xv))
    gy_path = SampledPath(grid, field.eval_g(grid, yv))
    diff = SampledPath(grid, gx_path.values - gy_path.values)
    lhs = p_variation(diff, exponents.q0)
    dvar = p_variation(SampledPath(grid, xv - yv), exponents.q)
    var_x = p_variation(xs, exponents.q)
    var_y = p_variation(SampledPath(grid, yv), exponents.q)
    Mp = cons.M_prime(N)
    rhs = Mp * dvar * (2.0 + var_x ** exponents.delta + var_y ** exponents.delta)

    rng = rng or np.random.default_rng(1)
    n_fp = 200
    s_t = np.sort(rng.uniform(window.lo, window.hi, (n_fp, 2)), axis=1)
    quads = rng.uniform(-N, N, (n_fp, 4, field.dim_d))
    fp_gap = -math.inf
    g = field.eval_g
    for k in range(n_fp):
        s, t = s_t[k]
        if t - s < 1e-9:
            continue
        x1, x2, x3, x4 = quads[k]
        four = (
            g(np.array([s]), x1[None])[0]
            - g(np.array([s]), x3[None])[0]
            - g(np.array([t]), x2[None])[0]
            + g(np.array([t]), x4[None])[0]
        )
        lhs_fp = float(np.linalg.norm(four))
        rhs_fp = (
            field.L_g * float(np.linalg.norm(x1 - x2 - x3 + x4))
            + float(np.linalg.norm(x2 - x4)) * field.h(s, t) ** field.beta
            + field.M_N(N)
            * float(np.linalg.norm(x2 - x4))
            * (
                float(np.linalg.norm(x1 - x2)) ** field.delta
                + float(np.linalg.norm(x3 - x4)) ** field.delta
            )
        )
        fp_gap = max(fp_gap, lhs_fp - rhs_fp)
    return Certificate(
        name="composed_difference",
        lhs=float(lhs),
        rhs=float(rhs),
        ok=bool(lhs <= rhs + _CERT_TOL and fp_gap <= _CERT_TOL),
        window=(window.lo, window.hi),
        extra={"M_prime": Mp, "four_point_gap": float(fp_gap), "N": N},
    )
