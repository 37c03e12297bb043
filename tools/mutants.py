"""Replay the mutations that tests are claimed to fail on, and report each.

Every row of MUTANTS names a mutation: one exact text replacement in one
file of src/ or tests/, and the tests that must fail on it.  Each mutant is
applied to a fresh temporary copy of src/ and tests/ (its old text must
occur there exactly once), and its tests run in that copy with
`pytest -x -W error`.  Hypothesis runs without its shrink phase, through a
profile that a plugin written into the copy registers, so tests/ is not
edited and a failing example costs no shrinking.  Stdlib only.

    python tools/mutants.py              # every mutant
    python tools/mutants.py --only NAME  # one mutant

Prints `killed` or `survived` per mutant with its seconds (`error` when
pytest itself fails, for instance on a test that does not exist).  Report
only: the exit status is 0 unless a mutant survived or erred.  A mutant that
survives is a finding about the tests, not a row to drop.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GREEDY = "src/youngflow/greedy.py"
SOLVER = "src/youngflow/solver.py"
COEFFICIENTS = "src/youngflow/coefficients.py"
T_GREEDY = "tests/test_greedy.py"
T_SOLVER = "tests/test_solver.py"
T_FLOW = "tests/test_flow.py"
T_CLI = "tests/test_cli.py"
LOCKSTEP_SHRINK = f"{T_SOLVER}::test_lockstep_lane_that_shrinks_in_a_padded_step_equals_its_own_transports"
SHRINK_FIXED_POINT = f"{T_SOLVER}::test_shrinking_solve_is_a_fixed_point_of_the_window_map"

# (name, file, old text, new text, tests)
MUTANTS = [
    ("predictions accepted unchecked", GREEDY,
     "n_ok = int(bad.min()) if len(bad) else len(run)",
     "n_ok = len(run)",
     [f"{T_GREEDY}::test_greedy_overturns_mispredicted_steps"]),
    ("model start value used for the next step", GREEDY,
     "w0s = np.concatenate([w, values[pos[:-1]]])",
     "w0s = np.array([step.w0 for step in run])",
     [f"{T_GREEDY}::test_greedy_steps_start_at_the_exact_driver_value"]),
    ("last predicted vertex not checked", GREEDY,
     "want[ends - 1] = False",
     "want[ends - 1] = below[ends - 1]",
     [f"{T_GREEDY}::test_greedy_overturns_mispredicted_steps"]),
    ("turning point after the crossing not read", GREEDY,
     "if min(stop, row) > limit or",
     "if j >= limit or",
     [f"{T_GREEDY}::test_greedy_model_reads_the_turning_point_after_the_crossing"]),
    ("root guess on a bracket end returned", GREEDY,
     "elif (c == a or c == b) and (g(math.nextafter(c, b if c == a else a)) < 0) != (c == b):",
     "elif False:",
     [f"{T_GREEDY}::test_greedy_root_guess_bisects_when_a_huge_g_rounds_it_onto_the_bracket_end"]),
    ("field result passed on in any dtype", COEFFICIENTS,
     "shape = (ts.size, self.dim_d)\n        if type(out) is np.ndarray and out.dtype is _FLOAT and",
     "shape = (ts.size, self.dim_d)\n        if type(out) is np.ndarray and",
     ["tests/test_coefficients.py::test_field_wrappers_pass_on_float_arrays_and_coerce_the_rest"]),
    ("live mask dropped", SOLVER,
     "np.copyto(x, fx, where=is_live)",
     "np.copyto(x, fx)",
     [f"{T_SOLVER}::test_transport_slice_on_the_solve_map_is_bit_equal_to_the_loop"]),
    ("lane end read at the step's last row", SOLVER,
     "            states[l] = vals[-1]\n",
     "            states[l] = res.values[-1, c]\n",
     [LOCKSTEP_SHRINK]),
    ("padded rows given the real increment", SOLVER,
     "            times[k:n, c] = times[k - 1, c]\n",
     "            times[k:n, c] = times[k - 1, c]\n"
     "            coef[:, k - 1:n - 1, c] = coef[:, k - 2:k - 1, c]\n",
     ["tests/test_flow.py::test_lockstep_lanes_equal_their_separate_transports"]),
    ("failed member re-solved on the step's longest slice", SOLVER,
     "lane = _Slice(res.values[:k, c], res.iters,\n" + " " * 26
     + "*(v if v is None else v[c] for v in res[2:]))\n" + " " * 12
     + "# its failed members shrink on the lane's own rows, as in its own transport\n"
     + " " * 12 + "part = (times[:k, c], coef[:, :k - 1, c.start:c.start + 1],\n" + " " * 20
     + "None if dw is None else dw[:k - 1, c])\n" + " " * 12 + "try:\n" + " " * 16
     + "vals, *out = _solve_span(leg.field, leg.ts[a:b + 1], part,",
     "lane = _Slice(res.values[:, c], res.iters, *(v if v is None else v[c] for v in res[2:]))\n"
     + " " * 12 + "try:\n" + " " * 16
     + "vals, *out = _solve_span(leg.field, max((s.ts[i:j + 1] for s, i, j in chunks), key=len),"
     " (times[:n, c], coef[:, :n - 1, c.start:c.start + 1],"
     " None if dw is None else dw[:n - 1, c]),",
     [LOCKSTEP_SHRINK]),
    ("failed lane's slice run again before it shrinks", SOLVER,
     "diagnostics=diagnostics, first=lane)",
     "diagnostics=diagnostics)",
     [LOCKSTEP_SHRINK]),
    ("transport lane's SolveError raised before the solve lane ends", SOLVER,
     "                if not diagnostics:\n                    raise\n",
     "                raise\n",
     [f"{T_CLI}::test_run_config_composition_error_keeps_the_solve_files"]),
    ("a lane's residuals read across the stack's columns", SOLVER,
     "residuals = np.maximum.reduce(np.abs(apply_f(x) - x), axis=(0, 2))",
     "residuals = np.maximum.reduce(np.abs(apply_f(x) - x), axis=(0, 2)).max() + np.zeros(B)",
     [f"{T_FLOW}::test_solve_lane_beside_transport_lanes_equals_its_separate_solve_and_transports"]),
    ("right half reads the span's first rows", SOLVER,
     "right = (times[k:, failed], coef[:, k:], None if dw is None else dw[k:, failed])",
     "right = (times[:n - k, failed], coef[:, :n - k - 1],"
     " None if dw is None else dw[:n - k - 1, failed])",
     [SHRINK_FIXED_POINT]),
    ("right half's coefficients from row 0", SOLVER,
     "right = (times[k:, failed], coef[:, k:],",
     "right = (times[k:, failed], coef[:, :n - k - 1],",
     [SHRINK_FIXED_POINT]),
    ("picard_tol dropped from the go-on test", SOLVER,
     "go_floor, go_cap = max(floor + [opts.picard_tol]),",
     "go_floor, go_cap = max(floor),",
     [f"{T_SOLVER}::test_member_that_stalls_below_picard_tol_stops_as_in_the_loop"]),
    ("divergence cap dropped from the go-on test", SOLVER,
     "                    and max(live_changes) <= go_cap):",
     "                    and True):",
     [f"{T_SOLVER}::test_member_past_the_divergence_cap_fails_while_its_mates_go_on"]),
    ("dt and dw swapped", SOLVER,
     "        coef[1] = (ws[1:] - ws[:-1])[:, :, None]\n",
     "        coef[0], coef[1] = (ws[1:] - ws[:-1])[:, :, None], coef[0].copy()\n",
     [f"{T_SOLVER}::test_picard_slice_is_bit_equal_to_the_per_iteration_loop"]),
    ("a column group's f and g read with the first group's field", SOLVER,
     "            for field, cols, shape, t, dw_g, drift, noise in parts:\n",
     "            for (_, cols, shape, t, dw_g, drift, noise), field in zip(parts, [parts[0][0]] * len(parts)):\n",
     [f"{T_FLOW}::test_runs_of_different_fields_equal_their_own_solves_and_transports"]),
    ("the ball DP reads the first member's q", SOLVER,
     "_variation(fx[:, b], q[b])",
     "_variation(fx[:, b], q[0])",
     [f"{T_SOLVER}::test_ball_screen_reads_each_members_own_q"]),
    ("the ball DP run again for a member already outside", SOLVER,
     "if (ball_ok[b] and (x0_norm[b]",
     "if (True and (x0_norm[b]",
     [f"{T_SOLVER}::test_ball_screen_runs_no_dp_for_a_member_already_outside"]),
    ("a run's SolveError ends every run", SOLVER,
     "for i in range(l if l == first[r] else first[r] + 1, first[r + 1]):",
     "for i in range(len(steps)):",
     [f"{T_CLI}::test_run_config_seeds_fail_alone_in_one_stack",
      f"{T_CLI}::test_verify_runs_fail_alone_in_one_stack"]),
    ("a step's dw read from the lane's driver one row early", SOLVER,
     "ts, leg.driver._interp(ts), leg.clock)",
     "ts, leg.driver._interp(leg.ts[a - 1:b] if a else ts), leg.clock)",
     [SHRINK_FIXED_POINT]),
    ("failed member not reset", SOLVER,
     "                        x[:, b] = x0[b]\n",
     "",
     [f"{T_SOLVER}::test_diverging_member_leaves_its_stack_mates_bit_equal"]),
]

PLUGIN = '''from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p.name not in ("shrink", "explain")])
settings.load_profile("mutants")
'''


def run(name, path, old, new, tests):
    """'killed', 'survived' or 'error', and the seconds the tests took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        target = tmp / path
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {path}, not once")
        target.write_text(text.replace(old, new))
        (tmp / "mutants_plugin.py").write_text(PLUGIN)
        env = dict(os.environ, PYTHONPATH=f"{tmp / 'src'}{os.pathsep}{tmp}",
                   PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "mutants_plugin",
               "-p", "no:cacheprovider", "-W", "error",
               "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning", *tests]
        start = time.perf_counter()
        code = subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        seconds = time.perf_counter() - start
    return {0: "survived", 1: "killed"}.get(code, "error"), seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="NAME", help="run the one mutant of this name")
    args = parser.parse_args(argv)
    rows = [row for row in MUTANTS if args.only in (None, row[0])]
    if not rows:
        raise SystemExit(f"no mutant named {args.only!r}")
    outcomes = []
    for row in rows:
        outcome, seconds = run(*row)
        outcomes.append(outcome)
        print(f"{outcome:8s} {seconds:6.1f} s  {row[0]}", flush=True)
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
