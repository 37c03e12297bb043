"""Output checks that recompute the expected results with numpy alone.

Nothing here imports youngflow: each check takes the program's output as
plain arrays or CSV files and returns a list of problems, empty when the
output is correct.  The tolerances are the ones the workloads promise.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# scenario -> (x0, closed form x(t) for x0 at t0 = 0, tolerance); tolerance 0
# means exact equality
CLOSED_FORMS = {
    "zero": (0.7, lambda t, x0: np.full_like(t, x0), 0.0),
    "pure-drift": (1.0, lambda t, x0: x0 * np.exp(-t), 1e-6),
    "linear-sine": (1.0, lambda t, x0: x0 * np.exp(np.sin(t)), 1e-5),
}
VERIFY_ROWS = {
    ("zero", 0), ("pure-drift", 0), ("linear-sine", 0), ("bounded-smooth", 0),
    ("time-varying", 0), ("flow-linear", 0), ("fbm-linear", 0), ("fbm-linear", 1),
}
FIXED_POINT_TOL = 1e-10
FLOW_TOL = 1e-5
HURST_TOL = 0.05


def read_solution(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Times and first state column of a `t,x1,...` solution CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def closed_form_problems(solutions: dict) -> list[str]:
    """`solutions` maps scenario name -> (times, states) of its seed-0 solve."""
    problems = []
    for name, (x0, exact, tol) in CLOSED_FORMS.items():
        if name not in solutions:
            problems.append(f"{name}: no solution")
            continue
        t, x = solutions[name]
        err = float(np.max(np.abs(x - exact(t, x0))))
        if not err <= tol:
            problems.append(f"{name}: closed-form error {err:.3g} > {tol:g}")
    return problems


def summary_problems(rows: list[dict]) -> list[str]:
    """Rows of verify_summary.csv, as csv.DictReader gives them."""
    problems = []
    seen = {(r["scenario"], int(r["seed"])) for r in rows}
    if seen != VERIFY_ROWS:
        problems.append(f"summary rows {sorted(seen)} != {sorted(VERIFY_ROWS)}")
    for r in rows:
        where = f"{r['scenario']} seed {r['seed']}"
        residual = float(r["max_fixed_point_residual"])
        if not residual <= FIXED_POINT_TOL:
            problems.append(f"{where}: fixed-point residual {residual:.3g}")
        composition = r["flow_composition_residual"]
        if composition == "" or not float(composition) <= FLOW_TOL:
            problems.append(f"{where}: flow composition residual {composition!r}")
    return problems


def verify_problems(exit_code: int, out_dir: Path) -> list[str]:
    """Everything checked on one `youngflow verify --seeds 0,1` output tree."""
    problems = [] if exit_code == 0 else [f"verify exited with {exit_code}"]
    solutions = {}
    for name in CLOSED_FORMS:
        path = out_dir / name / "seed_0" / "solution.csv"
        if path.exists():
            solutions[name] = read_solution(path)
    problems += closed_form_problems(solutions)
    summary = out_dir / "verify_summary.csv"
    if not summary.exists():
        return problems + ["no verify_summary.csv"]
    with summary.open(newline="", encoding="utf-8") as fh:
        problems += summary_problems(list(csv.DictReader(fh)))
    return problems


def flow_residual_problems(identity, inversion, composition, tol: float = FLOW_TOL) -> list[str]:
    """Flow axioms: X(s,s,x) = x exactly, round trip and composition within tol."""
    problems = []
    if np.max(identity) != 0.0:
        problems.append(f"identity residual {np.max(identity):.3g} != 0")
    if not np.max(inversion) <= tol:
        problems.append(f"inversion residual {np.max(inversion):.3g} > {tol:g}")
    if not np.max(composition) <= tol:
        problems.append(f"composition residual {np.max(composition):.3g} > {tol:g}")
    return problems


def exact_linear_transport(knots, w, coefficients, t1: float, t2: float, x: float) -> float:
    """State at t2 of dx = (af x + b0) dt + (c x + d0) dw started at (t1, x).

    w is the piecewise-linear interpolant of (knots, w).  On a segment of
    slope s the equation is the linear ODE x' = (af + c s) x + (b0 + d0 s),
    solved in closed form; t2 < t1 runs the same formula backwards.
    """
    af, b0, c, d0 = coefficients
    knots = np.asarray(knots, dtype=float)
    slopes = np.diff(w) / np.diff(knots)
    lo, hi = min(t1, t2), max(t1, t2)
    stops = np.concatenate([[lo], knots[(knots > lo) & (knots < hi)], [hi]])
    if t2 < t1:
        stops = stops[::-1]
    for a, b in zip(stops[:-1], stops[1:]):
        seg = int(np.searchsorted(knots, 0.5 * (a + b))) - 1
        k = af + c * slopes[seg]
        m = b0 + d0 * slopes[seg]
        h = float(b - a)
        if k == 0.0:
            x = x + m * h
        else:
            x = x * math.exp(k * h) + m * math.expm1(k * h) / k
    return float(x)


def transport_problems(program: float, exact: float, tol: float = FLOW_TOL) -> list[str]:
    gap = abs(program - exact)
    return [] if gap <= tol else [f"transport {program!r} vs exact {exact!r}: gap {gap:.3g}"]


def hurst_estimate(w: np.ndarray) -> float:
    """H from lag-1 and lag-2 mean-square increments: E|w_{i+2}-w_i|^2 / E|w_{i+1}-w_i|^2 = 4^H."""
    m1 = np.mean((w[1:] - w[:-1]) ** 2)
    m2 = np.mean((w[2:] - w[:-2]) ** 2)
    return 0.5 * math.log2(m2 / m1)


def fbm_problems(w: np.ndarray, hurst: float, tol: float = HURST_TOL) -> list[str]:
    problems = [] if w[0] == 0.0 else [f"w_0 = {float(w[0])!r}, not 0"]
    est = hurst_estimate(w)
    if not abs(est - hurst) <= tol:
        problems.append(f"estimated H {est:.4f} vs H {hurst:.4f}")
    return problems


def p_variation_problems(w: np.ndarray, p: float, value: float) -> list[str]:
    """The p-variation of a sampled path lies between the p-sum of the full
    partition and the total variation, and is at least |w_T - w_0|."""
    steps = np.abs(np.diff(w))
    p_sum = float(np.sum(steps ** p) ** (1.0 / p))
    total = float(np.sum(steps))
    net = float(abs(w[-1] - w[0]))
    slack = 1e-9 * total
    problems = []
    if not p_sum - slack <= value <= total + slack:
        problems.append(f"p-variation {value!r} outside [{p_sum!r}, {total!r}]")
    if not value >= net - slack:
        problems.append(f"p-variation {value!r} < |w_T - w_0| = {net!r}")
    return problems
