"""The tracer reaches every module that imports a function by name, keeps
self times that add up, and leaves youngflow as it found it.

    python3 -m pytest perfbench/test_tracing.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
youngflow = pytest.importorskip("youngflow")

import tracing  # noqa: E402
from youngflow import cli, flow, greedy, paths, scenarios, solver, young  # noqa: E402

IMPORTERS = [
    (cli, "greedy_sequence"), (solver, "greedy_sequence"),
    (greedy, "p_variation"), (solver, "p_variation"), (young, "p_variation"),
    (flow, "p_variation"), (cli, "p_variation"),
    (cli, "cauchy_operator"), (scenarios, "fbm_sample"), (cli, "fbm_sample"),
    (scenarios, "solve_forward"),
]


def test_wrappers_reach_every_importer_and_are_removed():
    originals = [(module, name, getattr(module, name)) for module, name in IMPORTERS]
    at = paths.SampledPath.at
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, name, original in originals:
            assert getattr(module, name).__wrapped__ is original, (module.__name__, name)
        assert paths.SampledPath.at.__wrapped__ is at
        run = scenarios.run_scenario("zero")
    finally:
        tracer.uninstall()
    for module, name, original in originals:
        assert getattr(module, name) is original
    assert paths.SampledPath.at is at

    metrics = tracer.layer_metrics()
    assert tracer.hook_errors == {}
    assert metrics["solver.solve_forward_calls"] == 1
    assert metrics["solver.chunks"] == len(run.report.iters_per_interval)
    assert metrics["greedy.intervals"] >= run.report.greedy.n_intervals
    assert metrics["solver.picard_slices"] >= metrics["solver.chunks"]
    assert metrics["solver.picard_iters"] >= metrics["solver.picard_slices"]
    assert metrics["paths.at_calls"] > 0 and metrics["coefficients.eval_points"] > 0
    assert metrics["paths.p_variation_calls"] > 0

    # every wrapped call's time is counted once: self times add up to the roots
    roots = sum(end - start for _, _, parent, _, start, end in tracer.spans if parent is None)
    assert sum(tracer.self_time.values()) == pytest.approx(roots, abs=1e-6)
    by_id = {span[1]: span for span in tracer.spans}
    gronwall = next(s for s in tracer.spans if s[3] == "solver.gronwall")
    assert by_id[gronwall[2]][3] == "solver.certificates"
