"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workload verify --seeds 1-10

Runs BENCHMARK.json's command untraced once per seed, one run after the
other, and prints per end-to-end metric the median, the quartiles and the
spread (Q3 - Q1) / median, with `statistics.quantiles(values, n=4)`, next
to the metric's bound.  Also prints the share of failed operations.  The
figures are saved to perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(seed, json.dumps(result), flush=True)
    summary = {"workload": args.workload, "runs": runs, "metrics": {}}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary["metrics"][metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                              "spread": spread, "bound": metric["bound"]}
        print(f"{metric['name']}: median {median:.6g} {metric['unit']}, "
              f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.4f} (bound {metric['bound']})")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    out = ROOT / "perfbench" / "out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
