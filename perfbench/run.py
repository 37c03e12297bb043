"""youngflow benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 10 --trace 0

Builds the workload's inputs from --seed (set-up), then runs whole rounds of
its operations until --seconds have passed, timing each operation (wall and
CPU time) from outside through youngflow's public functions and checking
every output.
The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 they are the per-layer
ones, from wrappers installed around youngflow's functions, per round.  A
traced run first makes one untraced round, so that it can report its own
overhead.  Run details and traces are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

LOADED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# BLAS threads are fixed before numpy loads (BENCHMARK.json's command sets one
# thread); youngflow's own thread pool stays off
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.pop("YOUNGFLOW_THREADS", None)


def seconds_since_process_start() -> float:
    """From the kernel's start time of this process (10 ms ticks), else from
    the moment this module was loaded."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - LOADED


class OpResult(NamedTuple):
    label: str
    seconds: float
    cpu_seconds: float
    error: str | None
    problems: list

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def run_round(workload, tracer, clear_factor_cache) -> list[OpResult]:
    results = []
    for op in workload.round_ops():
        clear_factor_cache()
        if tracer:
            tracer.op = op.label
            tracer.install()
        output, error = None, None
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # counted as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - start
            cpu_seconds = time.process_time() - cpu_start
            if tracer:
                tracer.uninstall()
        problems = []
        if error is None:
            try:
                problems = op.check(output)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            finally:
                op.cleanup(output)
        results.append(OpResult(op.label, seconds, cpu_seconds, error, problems))
        status = "ok" if not (error or problems) else f"FAILED {error or problems}"
        print(f"{op.label}: {seconds:.4f} s {status}", flush=True)
    return results


def per_round(value, rounds: int):
    if isinstance(value, int) and value % rounds == 0:
        return value // rounds
    return value / rounds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    package = ROOT / "src" / "youngflow"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no youngflow sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import youngflow
    if Path(youngflow.__file__).resolve().parent != package:
        print(f"perfbench: imported youngflow from {youngflow.__file__}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS, clear_factor_cache

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    # the first BLAS call of a process can be several times slower than the next
    a = np.random.default_rng(0).standard_normal((256, 256))
    np.linalg.cholesky(a @ a.T + 256.0 * np.eye(256))
    setup_s = seconds_since_process_start()

    tracer = Tracer() if args.trace else None
    reference = run_round(workload, None, clear_factor_cache) if tracer else []
    ops, rounds = [], 0
    started = time.perf_counter()
    while rounds == 0 or time.perf_counter() - started < args.seconds:
        ops += run_round(workload, tracer, clear_factor_cache)
        rounds += 1

    if tracer:
        values = {k: per_round(v, rounds) for k, v in tracer.layer_metrics().items()}
        metric_specs = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            # CPU time, not wall time: the process runs on one thread, and on
            # a shared host its wall time also counts the time it waits for a
            # core (steal) or for writes to reach the disk.  The mean over the
            # whole rounds, not the median: a median picks one operation of a
            # round and so measures only a few seconds of the run
            "op_s": sum(op.cpu_seconds for op in ops) / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metric_specs = spec["end_to_end"]
    result = {
        "correct": not any(op.problems for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "setup_s": setup_s,
        "ops": [op._asdict() for op in ops],
        "machine": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        traced = sum(op.seconds for op in ops) / rounds
        untraced = sum(op.seconds for op in reference)
        # the same operation traced and untraced; the median is robust to
        # one slow operation such as a cold n=8193 factor
        per_op = statistics.median(
            t.seconds - u.seconds for t, u in zip(ops, reference * rounds))
        details["overhead"] = {"traced_round_s": traced, "untraced_round_s": untraced,
                               "round_s": traced - untraced, "per_op_median_s": per_op}
        details["reference_ops"] = [op._asdict() for op in reference]
        details["layers"] = {
            layer: {"calls": tracer.calls[layer], "total_s": tracer.total[layer],
                    "self_s": tracer.self_time[layer]}
            for layer in sorted(tracer.calls)}
        details["counts"] = dict(tracer.counts)
        details["hook_errors"] = tracer.hook_errors
        for layer, error in tracer.hook_errors.items():
            print(f"counter of {layer} not recorded: {error}")
        details["spans"] = tracer.spans
        print(f"tracing overhead: {traced - untraced:.4f} s per round "
              f"({traced:.4f} traced, {untraced:.4f} untraced), "
              f"median {per_op:.4f} s per operation")
    (OUT / f"{name}.json").write_text(json.dumps(details) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
