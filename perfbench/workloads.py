"""The benchmark's workloads: inputs made from the seed, rounds of operations.

A workload builds its inputs in its constructor (that is set-up) and hands
out rounds: the same list of operations every time, each an `Op` whose
`run` is the only part that is timed.  `check` returns the problems found
in the output, and `cleanup` removes what the operation left on disk.
Every operation starts with youngflow's fBm factor cache emptied, as in a
fresh process, so an operation's work and a run's memory peak do not depend
on what ran before it.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    cleanup: Callable[[object], None] = lambda output: None


def clear_factor_cache():
    cached = getattr(sys.modules.get("youngflow.drivers"), "_fgn_cholesky", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


# one `verify` takes about 25 s on the reference machine (perfbench/README.md);
# two per round give each run 50 s of work, over which a shared host's speed,
# which drifts by 10-15% from one 10 s stretch to the next, averages out
# better than over one
VERIFY_OPS = 2


class Verify:
    """`youngflow verify --seeds 0,1` in-process, into a fresh directory.

    The north-star run: its inputs are the bundled scenarios and fBm seeds
    0 and 1 whatever the benchmark seed, so every layer does real work:
    greedy, Picard, certificates, CSV writes, flow probes and fBm at 2049.
    A round makes the same run VERIFY_OPS times.
    """

    def __init__(self, seed: int, scratch: Path):
        from youngflow import cli
        self.cli = cli
        self.scratch = scratch

    def round_ops(self):
        return [Op(f"verify --seeds 0,1 ({i} of {VERIFY_OPS})", self._run, self._check,
                   self._cleanup) for i in range(1, VERIFY_OPS + 1)]

    def _run(self):
        out = Path(tempfile.mkdtemp(prefix="verify-", dir=self.scratch))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(["verify", "--out", str(out), "--seeds", "0,1"])
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise
        return code, out

    def _check(self, output):
        code, out = output
        return checks.verify_problems(code, out)

    def _cleanup(self, output):
        shutil.rmtree(output[1], ignore_errors=True)


# flow-linear as the scenario bundle defines it: f = af x + b0, g = c x + d0,
# driven by 0.4 sin t sampled at 3001 points on [0, 2]
FLOW_LINEAR = (-0.3, 0.0, 0.4, 0.1)
FLOW_KNOTS = np.linspace(0.0, 2.0, 3001)
FLOW_DRIVER = 0.4 * np.sin(FLOW_KNOTS)


# about 1.1 s of solving per probe and triple on the reference machine; 6 probes
# keep a round near 20 s
TRANSPORT_PROBES = 6


class Transport:
    """`flow_axiom_check` on flow-linear, TRANSPORT_PROBES probes per call, one
    call per time triple of acceptance criterion 9.  The solver's forward and
    backward transport does the work; no certificates, no I/O, no fBm."""

    def __init__(self, seed: int, scratch: Path):
        from youngflow import flow, scenarios
        self.flow = flow
        self.scenario = scenarios.SCENARIOS["flow-linear"]
        self.field = self.scenario.make_field()
        self.driver = self.scenario.make_driver(None)
        self.exponents = self.scenario.exponents()
        t0, span = self.scenario.t0, self.scenario.T - self.scenario.t0
        self.triples = [
            self.scenario.flow_triple,
            (t0 + 0.1 * span, t0 + 0.5 * span, t0 + 0.9 * span),
            (t0 + 0.05 * span, t0 + 0.35 * span, t0 + 0.6 * span),
        ]
        self.probes = np.random.default_rng(seed).uniform(-1.5, 1.5, (TRANSPORT_PROBES, 1))

    def round_ops(self):
        return [Op(f"flow_axiom_check {triple}", lambda triple=triple: self._run(triple),
                   lambda report, triple=triple: self._check(triple, report))
                for triple in self.triples]

    def _run(self, triple):
        return self.flow.flow_axiom_check(
            self.field, self.driver, triple, self.probes, tol=checks.FLOW_TOL,
            opts=self.scenario.opts, exponents=self.exponents)

    def _check(self, triple, report):
        problems = checks.flow_residual_problems(
            report.identity_residuals, report.inversion_residuals,
            report.composition_residuals)
        # a forward and a backward transport against the closed form
        s, u, t = triple
        for a, b, x in ((s, t, self.probes[0, 0]), (t, u, self.probes[1, 0])):
            state = self.flow.cauchy_operator(
                self.field, self.driver, a, b, [x], opts=self.scenario.opts,
                exponents=self.exponents)
            exact = checks.exact_linear_transport(FLOW_KNOTS, FLOW_DRIVER, FLOW_LINEAR, a, b, x)
            problems += checks.transport_problems(float(state[0]), exact)
        return problems


# the largest first, so that its factor meets an empty cache; the four n=4097
# samples make the round's median operation, which a single slow one cannot move
FBM_SIZES = (8193, 4097, 4097, 4097, 4097)
FBM_HURST = (0.55, 0.70)
FBM_P = 1.9  # above 1/H for every H drawn
BROWNIAN_SIZE = 20001
BROWNIAN_PATHS = 2
BROWNIAN_P = 2.5


class FbmPaths:
    """Cold fBm samples with their p-variation, and long Brownian-like paths.

    Every fBm operation draws a (Hurst, n) pair not sampled before in the
    process, so the Cholesky factor is computed, not taken from the cache.
    The Hurst check needs n >= 4097: at n = 2049 the lag-1/lag-2 estimate
    has a spread of 0.015, too close to its 0.05 gate.
    """

    def __init__(self, seed: int, scratch: Path):
        from youngflow import drivers, paths
        self.drivers = drivers
        self.paths = paths
        self.rng = np.random.default_rng(seed)
        self.sampled = set()

    def _fresh_hurst(self, n):
        while True:
            hurst = float(self.rng.uniform(*FBM_HURST))
            if (hurst, n) not in self.sampled:
                self.sampled.add((hurst, n))
                return hurst

    def round_ops(self):
        ops = []
        for n in FBM_SIZES:
            spec = self.drivers.FbmSpec(hurst=self._fresh_hurst(n), horizon=1.0, samples=n,
                                        seed=int(self.rng.integers(2 ** 31)))
            ops.append(Op(f"fbm H={spec.hurst:.4f} n={n}",
                          lambda spec=spec: self._fbm(spec),
                          lambda out, spec=spec: self._check_fbm(spec, out)))
        for _ in range(BROWNIAN_PATHS):
            seed = int(self.rng.integers(2 ** 31))
            ops.append(Op(f"brownian p-variation n={BROWNIAN_SIZE}",
                          lambda seed=seed: self._brownian(seed), self._check_brownian))
        return ops

    def _fbm(self, spec):
        path = self.drivers.fbm_sample(spec)
        return path.values[:, 0], self.paths.p_variation(path, FBM_P)

    def _brownian(self, seed):
        grid = np.linspace(0.0, 1.0, BROWNIAN_SIZE)
        path = self.drivers.analytic_driver("brownian_like", {"seed": seed}, grid)
        return path.values[:, 0], self.paths.p_variation(path, BROWNIAN_P)

    def _check_fbm(self, spec, output):
        w, value = output
        return checks.fbm_problems(w, spec.hurst) + checks.p_variation_problems(w, FBM_P, value)

    def _check_brownian(self, output):
        w, value = output
        problems = [] if w[0] == 0.0 else [f"w_0 = {float(w[0])!r}, not 0"]
        return problems + checks.p_variation_problems(w, BROWNIAN_P, value)


WORKLOADS = {"verify": Verify, "transport": Transport, "fbm-paths": FbmPaths}
