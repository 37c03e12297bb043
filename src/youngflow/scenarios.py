"""Bundled solve scenarios used by the verification suite and the CLI.

The deterministic bundle exercises closed forms, certificates, flow
axioms and round trips at tolerances matched to each grid:

    zero          no dynamics, everything exact
    pure-drift    f = -x, g = 0, trapezoid round trip is self-inverse
    linear-sine   f = 0, g(t,x) = x against sin t, solution x0 e^{sin t}
    bounded-smooth tanh field with time-varying diffusion
    time-varying  linear field with sinusoidal inhomogeneities
    flow-linear   light linear field sized for many transport solves

fBm-driven runs use the `fbm-linear` configuration per seed; those are
certificate workloads, not round-trip oracles, and are kept out of the
deterministic bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .coefficients import (
    CoefficientField,
    ExponentSet,
    bounded_smooth_field,
    linear_field,
    select_exponents,
    time_varying_field,
)
from .drivers import FbmSpec, analytic_driver, fbm_sample
from .errors import ParameterError
from .paths import SampledPath
from .solver import SolveOptions, SolveReport, solve_forward


@dataclass(frozen=True)
class Scenario:
    name: str
    field_factory: Callable[[], CoefficientField]
    driver_factory: Callable[[Optional[int]], SampledPath]
    p: float
    t0: float
    T: float
    x0: float
    opts: SolveOptions = SolveOptions()
    closed_form: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    flow_triple: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    exponent_params: Optional[Tuple[float, float, float, float]] = None

    def make_field(self) -> CoefficientField:
        return self.field_factory()

    def make_driver(self, seed: Optional[int] = None) -> SampledPath:
        return self.driver_factory(seed)

    def exponents(self) -> ExponentSet:
        if self.exponent_params is not None:
            return select_exponents(*self.exponent_params)
        f = self.make_field()
        return select_exponents(self.p, f.alpha, f.beta, f.delta)


@dataclass
class ScenarioRun:
    scenario: Scenario
    field: CoefficientField
    driver: SampledPath
    exponents: ExponentSet
    report: SolveReport


def _sine_driver(n: int, t0: float, t1: float, amp: float = 1.0, freq: float = 1.0):
    return lambda seed=None: analytic_driver(
        "sine", {"amp": amp, "freq": freq}, np.linspace(t0, t1, n)
    )


def _scenarios() -> Dict[str, Scenario]:
    out = {}
    out["zero"] = Scenario(
        name="zero",
        field_factory=lambda: linear_field(0.0, 0.0, 0.0, 0.0, name="zero"),
        driver_factory=_sine_driver(501, 0.0, 1.0),
        p=4.0 / 3.0,
        t0=0.0,
        T=1.0,
        x0=0.7,
        closed_form=lambda ts, x0: np.full((len(ts), 1), x0),
        flow_triple=(0.2, 0.5, 0.8),
    )
    out["pure-drift"] = Scenario(
        name="pure-drift",
        field_factory=lambda: linear_field(-1.0, 0.0, 0.0, 0.0, name="pure-drift"),
        driver_factory=_sine_driver(4001, 0.0, 2.0),
        p=4.0 / 3.0,
        t0=0.0,
        T=2.0,
        x0=1.0,
        closed_form=lambda ts, x0: (x0 * np.exp(-(ts - ts[0])))[:, None],
        flow_triple=(0.3, 1.0, 1.7),
    )
    out["linear-sine"] = Scenario(
        name="linear-sine",
        field_factory=lambda: linear_field(0.0, 0.0, 1.0, 0.0, name="multiplicative"),
        driver_factory=_sine_driver(10001, 0.0, 2.0),
        p=4.0 / 3.0,
        t0=0.0,
        T=2.0,
        x0=1.0,
        closed_form=lambda ts, x0: (x0 * np.exp(np.sin(ts) - np.sin(ts[0])))[:, None],
        flow_triple=(0.3, 1.0, 1.7),
    )
    out["bounded-smooth"] = Scenario(
        name="bounded-smooth",
        field_factory=lambda: bounded_smooth_field(0.3, 0.5, 1.0),
        driver_factory=_sine_driver(3001, 0.0, 1.5, amp=0.5, freq=1.3),
        p=4.0 / 3.0,
        t0=0.0,
        T=1.5,
        x0=0.4,
        flow_triple=(0.2, 0.7, 1.3),
    )
    out["time-varying"] = Scenario(
        name="time-varying",
        field_factory=lambda: time_varying_field(-0.25, 0.1, 1.0, 0.35, 0.15, 1.5),
        driver_factory=_sine_driver(2401, 0.0, 1.2, amp=0.4, freq=2.0),
        p=4.0 / 3.0,
        t0=0.0,
        T=1.2,
        x0=0.8,
        flow_triple=(0.15, 0.6, 1.05),
    )
    out["flow-linear"] = Scenario(
        name="flow-linear",
        field_factory=lambda: linear_field(-0.3, 0.0, 0.4, 0.1, name="flow-linear"),
        driver_factory=_sine_driver(3001, 0.0, 2.0, amp=0.4, freq=1.0),
        p=4.0 / 3.0,
        t0=0.0,
        T=2.0,
        x0=1.0,
        flow_triple=(0.25, 0.9, 1.6),
    )
    out["fbm-linear"] = Scenario(
        name="fbm-linear",
        field_factory=lambda: linear_field(),
        driver_factory=lambda seed: fbm_sample(
            FbmSpec(hurst=0.75, horizon=1.0, samples=2049, seed=0 if seed is None else seed)
        ),
        p=1.5,
        t0=0.0,
        T=1.0,
        x0=1.0,
        flow_triple=(0.2, 0.5, 0.85),
    )
    return out


SCENARIOS = _scenarios()

DETERMINISTIC_BUNDLE = [
    "zero",
    "pure-drift",
    "linear-sine",
    "bounded-smooth",
    "time-varying",
    "flow-linear",
]

FLOW_BUNDLE = ["zero", "flow-linear"]


def run_scenario_object(
    scenario: Scenario,
    seed: Optional[int] = None,
    certify: bool = True,
    opts: Optional[SolveOptions] = None,
) -> ScenarioRun:
    field = scenario.make_field()
    driver = scenario.make_driver(seed)
    exponents = scenario.exponents()
    report = solve_forward(
        field,
        driver,
        scenario.t0,
        np.atleast_1d(scenario.x0),
        scenario.T,
        opts=opts or scenario.opts,
        exponents=exponents,
        certify=certify,
    )
    return ScenarioRun(scenario, field, driver, exponents, report)


def run_scenario(
    name: str,
    seed: Optional[int] = None,
    certify: bool = True,
    opts: Optional[SolveOptions] = None,
) -> ScenarioRun:
    return run_scenario_object(SCENARIOS[name], seed=seed, certify=certify, opts=opts)


def closed_form_error(run: ScenarioRun) -> float:
    """Max deviation of the solved path from the scenario's closed form."""
    if run.scenario.closed_form is None:
        raise ParameterError(f"scenario {run.scenario.name!r} has no closed form")
    ts = run.report.solution.times
    target = run.scenario.closed_form(ts, run.scenario.x0)
    return float(np.max(np.abs(run.report.solution.values - target)))
