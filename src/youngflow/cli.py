"""Command-line interface: path analysis, solving, and batch verification.

Subcommands: pvar, integrate, greedy, solve, flow-check, fbm, verify.
Runs are deterministic given inputs and seeds; batch artifacts are CSV
and JSON only.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import io as yio
from .coefficients import BUILTIN_FIELDS, select_exponents
from .drivers import FbmSpec, analytic_driver, fbm_sample
from .errors import SolveError, YoungflowError
# cauchy_operator stays in cli's namespace, where perfbench's tracer wraps it
from .flow import _transport_lanes, cauchy_operator, flow_axiom_check  # noqa: F401
from .greedy import counting_bound, greedy_sequence
from .paths import p_variation
from .scenarios import (
    DETERMINISTIC_BUNDLE,
    SCENARIOS,
    Scenario,
    run_scenario,
)
from .solver import SolveOptions, _leg, _lockstep, _report, solve_backward, solve_forward
from .young import YoungConstants, young_integral, young_loeve_check

SUMMARY_COLUMNS = [
    "seed",
    "greedy_interval_count",
    "count_bound",
    "max_picard_iters",
    "max_fixed_point_residual",
    "gronwall_ok",
    "growth_ok",
    "flow_composition_residual",
]


class ConfigError(Exception):
    pass


def _parse_window(text: str):
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--window expects 'a,b', got {text!r}") from exc
    return a, b


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _as(kind, value, key: str):
    """kind(value), or a ConfigError naming the config key the value came from."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: expected a number, got {value!r}") from exc


def _as_count(value, key: str) -> int:
    """value, or the integer a string spells, as a non-negative integer, or a
    ConfigError naming the key: a bool, a fraction or a negative is none."""
    if isinstance(value, str):
        value = _as(int, value, key)
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or value < 0:
        raise ConfigError(f"config key {key!r}: expected a non-negative integer, got {value!r}")
    return int(value)


def _solve_options(cfg: dict, base: SolveOptions) -> SolveOptions:
    solve_cfg = cfg.get("solve", {})
    if not isinstance(solve_cfg, dict):
        raise ConfigError("config key 'solve': must be an object")
    allowed = {f.name for f in fields(SolveOptions)} - {"grid"}
    unknown = set(solve_cfg) - allowed
    if unknown:
        raise ConfigError(f"config key 'solve': unknown fields {sorted(unknown)}")
    for key, value in solve_cfg.items():
        if type(value) not in (int, float) and not (key == "mu_override" and value is None):
            raise ConfigError(f"config key 'solve.{key}': expected a number, got {value!r}")
    return replace(base, **solve_cfg)


def _scenario_from_config(cfg: dict) -> Scenario:
    """Resolve a config to a scenario: a bundled name or a custom block."""
    if "scenario" in cfg:
        name = cfg["scenario"]
        if name not in SCENARIOS:
            raise ConfigError(
                f"config key 'scenario': unknown scenario {name!r}; "
                f"choose from {sorted(SCENARIOS)}"
            )
        return SCENARIOS[name]

    field_cfg = cfg.get("field")
    driver_cfg = cfg.get("driver")
    if not isinstance(field_cfg, dict) or not isinstance(driver_cfg, dict):
        raise ConfigError(
            "config needs either 'scenario' or both 'field' and 'driver' objects"
        )
    fname = field_cfg.get("name")
    if fname not in BUILTIN_FIELDS:
        raise ConfigError(
            f"config key 'field.name': unknown field {fname!r}; "
            f"choose from {sorted(BUILTIN_FIELDS)}"
        )
    params = field_cfg.get("params", {})
    try:
        probe_field = BUILTIN_FIELDS[fname](**params)
    except TypeError as exc:
        raise ConfigError(f"config key 'field.params': {exc}") from exc

    window = cfg.get("window")
    if (
        not isinstance(window, list)
        or len(window) != 2
        or not _as(float, window[0], "window") < _as(float, window[1], "window")
    ):
        raise ConfigError("config key 'window': expected [t0, T] with t0 < T")
    t0, T = float(window[0]), float(window[1])

    kind = driver_cfg.get("kind")
    if kind == "fbm":
        hurst = _as(float, driver_cfg.get("hurst", 0.75), "driver.hurst")
        samples = _as_count(driver_cfg.get("samples", 1025), "driver.samples")
        horizon = _as(float, driver_cfg.get("horizon", T), "driver.horizon")
        if horizon < T:
            raise ConfigError("config key 'driver.horizon': must cover the window")

        def make_driver(seed, _h=hurst, _n=samples, _hor=horizon):
            return fbm_sample(FbmSpec(hurst=_h, horizon=_hor, samples=_n,
                                      seed=0 if seed is None else seed))
    elif kind in ("linear", "sine", "power", "brownian_like"):
        n = _as_count(driver_cfg.get("n", 1001), "driver.n")
        dparams = driver_cfg.get("params", {})
        if not isinstance(dparams, dict):
            raise ConfigError("config key 'driver.params': must be an object")
        dparams = {k: _as_count(v, f"driver.params.{k}") if k == "seed"
                   else _as(float, v, f"driver.params.{k}") for k, v in dparams.items()}

        def make_driver(seed, _k=kind, _p=dparams, _n=n, _a=t0, _b=T):
            params = dict(_p)
            if _k == "brownian_like" and seed is not None:
                params.setdefault("seed", seed)
            return analytic_driver(_k, params, np.linspace(_a, _b, _n))
    else:
        raise ConfigError(
            f"config key 'driver.kind': unknown kind {kind!r}; "
            "choose fbm, linear, sine, power or brownian_like"
        )

    exps_cfg = cfg.get("exponents", "auto")
    p = _as(float, cfg.get("p", 1.5), "p")
    if exps_cfg == "auto":
        exponent_params = (p, probe_field.alpha, probe_field.beta, probe_field.delta)
    elif isinstance(exps_cfg, dict):
        try:
            exponent_params = tuple(
                _as(float, exps_cfg[k], f"exponents.{k}") for k in ("p", "alpha", "beta", "delta")
            )
        except KeyError as exc:
            raise ConfigError(f"config key 'exponents': missing {exc}") from exc
    else:
        raise ConfigError("config key 'exponents': 'auto' or {p, alpha, beta, delta}")
    try:
        select_exponents(*exponent_params)
    except YoungflowError as exc:
        raise ConfigError(f"config key 'exponents': {exc}") from exc

    x0 = cfg.get("x0", 1.0)
    x0 = [_as(float, v, "x0") for v in x0] if isinstance(x0, list) else _as(float, x0, "x0")
    span = T - t0
    return Scenario(
        name=str(cfg.get("name", "custom")),
        field_factory=lambda _f=fname, _p=params: BUILTIN_FIELDS[_f](**_p),
        driver_factory=make_driver,
        p=p,
        t0=t0,
        T=T,
        x0=x0,
        flow_triple=(t0 + 0.15 * span, t0 + 0.5 * span, t0 + 0.85 * span),
        exponent_params=exponent_params,
    )


# the summary row of a seed whose solve raised SolveError, less its seed
_ERROR_ROW = {
    "greedy_interval_count": 0,
    "count_bound": 0.0,
    "max_picard_iters": 0,
    "max_fixed_point_residual": float("inf"),
    "gronwall_ok": False,
    "growth_ok": False,
    "flow_composition_residual": "",
}


def _write_seed(scenario: Scenario, seed: int, field, driver, exps, solve, ends, out_dir: Path):
    """Certify one seed's solve and write its artifacts under out_dir/seed_<seed>;
    returns its summary row and whether every certificate holds.  The solve's
    SolveError is raised before the writes, the transports' after them."""
    if isinstance(solve, SolveError):
        raise solve
    x0 = np.atleast_1d(np.asarray(scenario.x0, dtype=float))
    report = _report(field, driver, solve, x0, scenario.t0, scenario.T, exps, True)
    seed_dir = out_dir / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    yio.path_to_csv(report.solution, seed_dir / "solution.csv")
    yio.write_json(report.to_json(), seed_dir / "report.json")
    yio.write_json(report.greedy.to_json(), seed_dir / "greedy.json")
    yio.write_json([c.to_json() for c in report.certificates], seed_dir / "certificates.json")

    for end in ends:  # the transports fail in one step: lane order is step order
        if isinstance(end, SolveError):
            raise end
    chain, direct = ends
    var = p_variation(driver, exps.p, (report.t0, report.T))
    bound = counting_bound(report.T - report.t0, var, exps.alpha, report.mu, exps.p_prime)
    gron, grow = report.certificate("gronwall"), report.certificate("growth")
    row = {
        "seed": seed,
        "greedy_interval_count": report.greedy.n_full(),
        "count_bound": bound,
        "max_picard_iters": report.max_iters,
        "max_fixed_point_residual": report.max_residual,
        "gronwall_ok": bool(gron and gron.ok),
        "growth_ok": bool(grow and grow.ok),
        "flow_composition_residual": float(np.linalg.norm(chain[0] - direct[0])),
    }
    return row, all(c.ok for c in report.certificates)


def _seed_lanes(scenario: Scenario, field, driver, exps, opts: SolveOptions):
    """The lanes of one seed's run: its solve, X(s,u) -> X(u,t) and X(s,t)."""
    x0, (s, u, t) = np.atleast_1d(np.asarray(scenario.x0, dtype=float)), scenario.flow_triple
    return [(x0[None], [_leg(field, driver, scenario.t0, scenario.T, opts, exps)]),
            *_transport_lanes(field, driver, [(x0, (s, u, t)), (x0, (s, t))], opts, exps)]


def _run_configs(configs):
    """Run every seed of the configs, each (scenario, seeds, opts, out_dir),
    writing its artifacts and each config's summary.csv under its out_dir;
    returns each config's all-certificates-ok and its summary rows.  Each
    seed is a run of solver._lockstep lanes (_seed_lanes), and the runs of
    configs with equal options, d and m share one lockstep, a config's seeds
    one field.  A run is certified, written (_write_seed) and released as
    soon as it ends, and a SolveError ends its run alone; any other error
    is raised at once, and the runs not yet ended leave no files.
    """
    runs, rows, oks = [], [{} for _ in configs], [True] * len(configs)
    for c, (scenario, seeds, _, out_dir) in enumerate(configs):
        out_dir.mkdir(parents=True, exist_ok=True)
        field, exps = scenario.make_field(), scenario.exponents()
        runs += [(c, seed, field, scenario.make_driver(seed), exps) for seed in sorted(seeds)]
    keys = [(configs[c][2], field.dim_d, field.dim_m) for c, _, field, _, _ in runs]
    for key in [k for i, k in enumerate(keys) if k not in keys[:i]]:
        stack = [i for i, k in enumerate(keys) if k == key]
        # built inline: the lockstep alone holds the legs, and drops a run's once it ends
        for r, (solve, *ends) in _lockstep([_seed_lanes(configs[runs[i][0]][0], *runs[i][2:],
                                                        key[0]) for i in stack], key[0], True):
            (c, seed, field, driver, exps), runs[stack[r]] = runs[stack[r]], None
            scenario, _, _, out_dir = configs[c]
            try:
                row, ok = _write_seed(scenario, seed, field, driver, exps, solve, ends, out_dir)
            except SolveError as exc:
                row, ok = {"seed": seed, **_ERROR_ROW}, False
                yio.write_json({"seed": seed, "error": str(exc)},
                               out_dir / f"seed_{seed}_error.json")
            rows[c][seed], oks[c] = row, oks[c] and ok
    rows = [[by_seed[s] for s in sorted(by_seed)] for by_seed in rows]
    for (_, _, _, out_dir), config_rows in zip(configs, rows):
        yio.write_csv_table(config_rows, SUMMARY_COLUMNS, out_dir / "summary.csv")
    return oks, rows


def run_config(cfg: dict, out_dir: Path) -> bool:
    """Execute one experiment config over its seeds, its runs in one Picard
    stack (_run_configs); returns all-certificates-ok."""
    scenario = _scenario_from_config(cfg)
    seeds = cfg.get("seeds", [0])
    # type, not isinstance: a bool is an int
    if not isinstance(seeds, list) or not all(type(s) is int and s >= 0 for s in seeds):
        raise ConfigError("config key 'seeds': must be a list of non-negative integers")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"config key 'seeds': repeated seeds in {seeds}")
    opts = _solve_options(cfg, scenario.opts)
    return _run_configs([(scenario, seeds, opts, out_dir)])[0][0]


# ----------------------------------------------------------------------
# subcommand handlers


def _write_out(args, payload, name: str) -> None:
    """Write payload as JSON to <--out>/name when --out is given."""
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        yio.write_json(payload, out / name)


def _cmd_pvar(args) -> int:
    path = yio.path_from_csv(args.input)
    window = _parse_window(args.window) if args.window else None
    value = p_variation(path, args.p, window)
    print(repr(value))
    _write_out(args, {"p": args.p, "value": value, "window": list(window) if window else None},
               "pvar.json")
    return 0


def _cmd_integrate(args) -> int:
    integrand = yio.path_from_csv(args.input)
    driver = yio.path_from_csv(args.driver)
    window = _parse_window(args.window) if args.window else None
    constants = YoungConstants(args.p, args.q if args.q else args.p)
    result = young_integral(integrand, driver, window, constants=constants)
    cert = young_loeve_check(integrand, driver, window, constants=constants)
    value = [float(v) for v in result.value]
    print(repr(value))
    _write_out(args, {
        "value": value,
        "partition_size": result.partition_size,
        "defect_bound": result.defect_bound,
        "converged": bool(result.converged),
        "certificate": cert.to_json(),
    }, "integral.json")
    return 0


def _cmd_greedy(args) -> int:
    driver = yio.path_from_csv(args.input)
    window = _parse_window(args.window) if args.window else (
        float(driver.times[0]),
        float(driver.times[-1]),
    )
    seq = greedy_sequence(driver, window[0], window[1], args.lam, args.mu, args.p)
    payload = seq.to_json()
    print(json.dumps(payload))
    _write_out(args, payload, "greedy.json")
    return 0


def _cmd_solve(args) -> int:
    if args.config:
        cfg = _load_config(args.config)
        out_dir = Path(args.out or cfg.get("out_dir", "youngflow-out"))
        return 0 if run_config(cfg, out_dir) else 1
    if args.scenario:
        report = run_scenario(args.scenario, seed=args.seed).report
    else:
        if not (args.input and args.field and args.window and args.x0 is not None):
            raise ConfigError("solve needs --config, --scenario, or --input/--field/--window/--x0")
        driver = yio.path_from_csv(args.input)
        field = BUILTIN_FIELDS[args.field]()
        t0, T = _parse_window(args.window)
        exps = select_exponents(args.p, field.alpha, field.beta, field.delta)
        if args.backward:
            report = solve_backward(field, driver, T, [args.x0], t0, exponents=exps)
        else:
            report = solve_forward(field, driver, t0, [args.x0], T, exponents=exps)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        yio.path_to_csv(report.solution, out / "solution.csv")
        yio.write_json(report.to_json(), out / "report.json")
    print(
        json.dumps(
            {
                "final_time": float(report.solution.times[-1]),
                "final_value": [float(v) for v in report.solution.values[-1]],
                "max_residual": report.max_residual,
                "certificates_ok": all(c.ok for c in report.certificates),
            }
        )
    )
    return 0


def _cmd_flow_check(args) -> int:
    if args.probes < 0:
        raise ConfigError(f"--probes must be >= 0, got {args.probes}")
    scenario = SCENARIOS[args.scenario or "flow-linear"]
    field = scenario.make_field()
    rng = np.random.default_rng(args.seed or 0)
    probes = rng.uniform(-1.5, 1.5, (args.probes, field.dim_d))
    rep = flow_axiom_check(
        field,
        scenario.make_driver(args.seed),
        scenario.flow_triple,
        probes,
        tol=args.tol,
        opts=scenario.opts,
        exponents=scenario.exponents(),
    )
    payload = rep.to_json()
    print(json.dumps(payload))
    _write_out(args, payload, "flow_check.json")
    return 0 if rep.ok else 1


def _cmd_fbm(args) -> int:
    spec = FbmSpec(hurst=args.hurst, horizon=args.horizon, samples=args.samples, seed=args.seed or 0)
    path = fbm_sample(spec)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    yio.path_to_csv(path, out / "fbm.csv")
    yio.write_json(
        {
            "hurst": spec.hurst,
            "horizon": spec.horizon,
            "samples": spec.samples,
            "seed": spec.seed,
        },
        out / "fbm.json",
    )
    print(str(out / "fbm.csv"))
    return 0


def _cmd_verify(args) -> int:
    seeds = list(range(10)) if args.seeds is None else [
        _as_count(s, "--seeds") for s in args.seeds.split(",")
    ]
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds: repeated seeds in {args.seeds!r}")
    out_dir = Path(args.out or "youngflow-verify")
    out_dir.mkdir(parents=True, exist_ok=True)
    plan = [{"scenario": name, "seeds": [0]} for name in DETERMINISTIC_BUNDLE]
    plan.append({"scenario": "fbm-linear", "seeds": seeds})
    yio.write_json({"runs": plan}, out_dir / "verify_config.json")
    # every scenario's and seed's run in one Picard stack
    runs = [(SCENARIOS[cfg["scenario"]], cfg["seeds"], out_dir / cfg["scenario"]) for cfg in plan]
    oks, rows = _run_configs([(sc, seeds, sc.opts, out) for sc, seeds, out in runs])
    yio.write_csv_table([{"scenario": cfg["scenario"], **row} for cfg, cfg_rows in zip(plan, rows)
                         for row in cfg_rows], ["scenario", *SUMMARY_COLUMNS],
                        out_dir / "verify_summary.csv")
    all_ok = all(oks)
    print(f"verify: {'ok' if all_ok else 'FAILURES'} -> {out_dir / 'verify_summary.csv'}")
    return 0 if all_ok else 1


# every subcommand accepts the shared flag vocabulary; flags with no
# effect on a given subcommand are tolerated no-ops
_COMMON_FLAGS = {
    "--input": dict(default=None),
    "--p": dict(type=float, default=None),
    "--q": dict(type=float, default=None),
    "--window": dict(default=None),
    "--config": dict(default=None),
    "--out": dict(default=None),
    "--seed": dict(type=int, default=None),
}


def _ensure_common_flags(sp: argparse.ArgumentParser) -> None:
    existing = {opt for action in sp._actions for opt in action.option_strings}
    for flag, kwargs in _COMMON_FLAGS.items():
        if flag not in existing:
            sp.add_argument(flag, help=argparse.SUPPRESS, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youngflow",
        description="p-variation analysis, Young integration and Young-equation solving",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pvar", help="p-variation of a CSV path")
    sp.add_argument("--input", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--window", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_pvar)

    sp = sub.add_parser("integrate", help="Young integral of two CSV paths")
    sp.add_argument("--input", required=True, help="integrand CSV")
    sp.add_argument("--driver", required=True, help="driver CSV")
    sp.add_argument("--p", type=float, default=1.5)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--window", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_integrate)

    sp = sub.add_parser("greedy", help="greedy-time sequence of a CSV driver")
    sp.add_argument("--input", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--window", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_greedy)

    sp = sub.add_parser("solve", help="forward/backward solve (scenario, config, or CSV driver)")
    sp.add_argument("--config", default=None)
    sp.add_argument("--scenario", default=None, choices=sorted(SCENARIOS))
    sp.add_argument("--input", default=None, help="driver CSV for custom solves")
    sp.add_argument("--field", default=None, choices=sorted(BUILTIN_FIELDS))
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--p", type=float, default=1.5)
    sp.add_argument("--q", type=float, default=None)
    sp.add_argument("--window", default=None)
    sp.add_argument("--backward", action="store_true")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("flow-check", help="two-parameter flow axiom residuals")
    sp.add_argument("--scenario", default=None, choices=sorted(SCENARIOS))
    sp.add_argument("--probes", type=int, default=5)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_flow_check)

    sp = sub.add_parser("fbm", help="generate a fractional Brownian driver")
    sp.add_argument("--hurst", type=float, required=True)
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_fbm)

    sp = sub.add_parser("verify", help="run the bundled certificate suite")
    sp.add_argument("--out", default=None)
    sp.add_argument("--seeds", default=None, help="comma-separated fBm seeds")
    sp.set_defaults(func=_cmd_verify)
    for sub_parser in sub.choices.values():
        _ensure_common_flags(sub_parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except YoungflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
