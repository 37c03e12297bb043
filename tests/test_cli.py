import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from youngflow import SampledPath, analytic_driver, path_from_csv, path_to_csv
from youngflow import cli
from youngflow.cli import SUMMARY_COLUMNS, main, run_config, ConfigError
from youngflow.io import _CSV_BLOCK_ROWS


@pytest.fixture()
def linear_csv(tmp_path):
    dest = tmp_path / "linear.csv"
    path_to_csv(analytic_driver("linear", {}, np.linspace(0, 1, 11)), dest)
    return dest


def test_pvar_linear(linear_csv, capsys):
    rc = main(["pvar", "--input", str(linear_csv), "--p", "1", "--window", "0,1"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_pvar_missing_arg_exits_2(linear_csv):
    with pytest.raises(SystemExit) as exc:
        main(["pvar", "--input", str(linear_csv)])
    assert exc.value.code == 2


def test_greedy_closed_form(linear_csv, capsys):
    rc = main(["greedy", "--input", str(linear_csv), "--p", "1.5",
               "--lambda", "1", "--mu", "0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(payload["times"], [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-9)


def test_integrate_closed_form(tmp_path, capsys):
    grid = np.linspace(0, 1, 10001)
    f1 = tmp_path / "t.csv"
    f2 = tmp_path / "t2.csv"
    path_to_csv(analytic_driver("linear", {}, grid), f1)
    path_to_csv(analytic_driver("power", {"exponent": 2.0}, grid), f2)
    rc = main(["integrate", "--input", str(f1), "--driver", str(f2),
               "--p", "1.3", "--q", "1.3", "--out", str(tmp_path / "o")])
    assert rc == 0
    value = json.loads(capsys.readouterr().out.replace("'", '"'))[0]
    assert value == pytest.approx(2.0 / 3.0, abs=2e-4)
    report = json.loads((tmp_path / "o" / "integral.json").read_text())
    assert report["certificate"]["ok"] is True


def test_fbm_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["fbm", "--hurst", "0.75", "--samples", "129", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
    assert (out1 / "fbm.csv").read_bytes() == (out2 / "fbm.csv").read_bytes()
    sidecar = json.loads((out1 / "fbm.json").read_text())
    assert sidecar == {"hurst": 0.75, "horizon": 1.0, "samples": 129, "seed": 5}
    path = path_from_csv(out1 / "fbm.csv")
    assert path.values[0, 0] == 0.0


def test_solve_scenario_writes_artifacts(tmp_path, capsys):
    rc = main(["solve", "--scenario", "zero", "--out", str(tmp_path / "z")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificates_ok"] is True
    sol = path_from_csv(tmp_path / "z" / "solution.csv")
    assert np.all(sol.values == 0.7)
    report = json.loads((tmp_path / "z" / "report.json").read_text())
    assert report["direction"] == "forward"
    assert report["max_fixed_point_residual"] <= 1e-10


def test_solve_csv_driver_roundtrip(tmp_path, capsys):
    drv = tmp_path / "drv.csv"
    path_to_csv(analytic_driver("sine", {"amp": 0.4}, np.linspace(0, 1, 801)), drv)
    rc = main(["solve", "--input", str(drv), "--field", "linear",
               "--x0", "1.0", "--window", "0,1", "--p", "1.4",
               "--out", str(tmp_path / "s")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["final_time"] == pytest.approx(1.0)


def test_solve_csv_driver_backward(tmp_path, capsys):
    drv = tmp_path / "drv.csv"
    path_to_csv(analytic_driver("sine", {"amp": 0.4}, np.linspace(0, 1, 801)), drv)
    rc = main(["solve", "--input", str(drv), "--field", "linear", "--x0", "1.0",
               "--window", "0,1", "--p", "1.4", "--backward", "--out", str(tmp_path / "s")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert report["direction"] == "backward"
    # the terminal value x0 sits at the window's end, in the original time order
    assert out["final_time"] == 1.0 and out["final_value"] == [1.0]
    assert path_from_csv(tmp_path / "s" / "solution.csv").values[0, 0] != 1.0


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{\n  \"scenario\": \"zero\",\n  oops\n}")
    rc = main(["solve", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.json:3" in err  # line-referenced message


def test_unknown_scenario_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "nope", "seeds": [0]}))
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "scenario" in capsys.readouterr().err


def test_bad_seeds_config(tmp_path):
    with pytest.raises(ConfigError):
        run_config({"scenario": "zero", "seeds": "all"}, tmp_path / "o")


@pytest.mark.parametrize("seeds", ["a,b", "", "0,", "1.5", "-1", "0,-2"])
def test_verify_malformed_seeds_exit_2_naming_the_flag(tmp_path, capsys, seeds):
    rc = main(["verify", "--seeds", seeds, "--out", str(tmp_path / "v")])
    assert rc == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("seeds", [[-1], [True], [1, False]])
def test_config_negative_or_boolean_seeds_exit_2_naming_the_key(tmp_path, capsys, seeds):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "fbm-linear", "seeds": seeds}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config key 'seeds'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("row, message", [("0.5,abc", "could not convert"),
                                          ("0.5", "expected 2 columns, got 1")])
def test_pvar_malformed_csv_row_exits_1_naming_its_line(tmp_path, capsys, row, message):
    src = tmp_path / "f.csv"
    src.write_text(f"t,x1\n0.0,1.0\n\n{row}\n1.0,2.0\n")
    assert main(["pvar", "--input", str(src), "--p", "1.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "f.csv: line 4: " in err and message in err


def test_verify_repeated_seeds_exit_2_before_any_output(tmp_path, capsys):
    rc = main(["verify", "--seeds", "0,0", "--out", str(tmp_path / "v")])
    assert rc == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_config_repeated_seeds_exit_2_naming_the_key(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seeds"):
        run_config({"scenario": "zero", "seeds": [0, 0]}, tmp_path / "o")
    assert not (tmp_path / "o").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "zero", "seeds": [1, 0, 1]}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert "seeds" in capsys.readouterr().err


def test_verify_reports_a_failed_gronwall_hypothesis(tmp_path, monkeypatch):
    # with a2 = 0 the Gronwall hypothesis cannot hold for flow-linear's noise
    # term; the fBm scenario keeps its own field and certifies
    scenario = cli.SCENARIOS["flow-linear"]

    def field():
        base = scenario.make_field()
        return replace(base, gronwall=replace(base.gronwall, a2=0.0))

    monkeypatch.setattr(cli, "DETERMINISTIC_BUNDLE", ["flow-linear"])
    monkeypatch.setitem(cli.SCENARIOS, "flow-linear", replace(scenario, field_factory=field))
    out = tmp_path / "v"
    assert main(["verify", "--seeds", "0", "--out", str(out)]) == 1
    header, *rows = (out / "verify_summary.csv").read_text().splitlines()
    cells = {row.split(",")[0]: dict(zip(header.split(","), row.split(","))) for row in rows}
    assert sorted(cells) == ["fbm-linear", "flow-linear"]
    assert cells["flow-linear"]["gronwall_ok"] == "false"
    assert cells["fbm-linear"]["gronwall_ok"] == "true"


def test_run_config_summary_columns(tmp_path):
    ok = run_config(
        {"scenario": "fbm-linear", "seeds": [0, 1], "solve": {"oversample": 2}},
        tmp_path / "run",
    )
    assert ok
    text = (tmp_path / "run" / "summary.csv").read_text().splitlines()
    assert text[0] == ",".join(SUMMARY_COLUMNS)
    assert len(text) == 3
    first = text[1].split(",")
    assert first[0] == "0"
    assert first[5] == "true" and first[6] == "true"
    assert (tmp_path / "run" / "seed_0" / "solution.csv").exists()
    assert (tmp_path / "run" / "seed_0" / "report.json").exists()
    assert (tmp_path / "run" / "seed_0" / "greedy.json").exists()


def test_zero_row_interval_count_within_count_bound(tmp_path):
    assert run_config({"scenario": "zero", "seeds": [0]}, tmp_path / "z")
    header, row = (tmp_path / "z" / "summary.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert int(cells["greedy_interval_count"]) <= math.ceil(float(cells["count_bound"]))


def test_run_config_solve_error_row(tmp_path):
    # one Picard iteration cannot converge: the seed fails with SolveError
    out = tmp_path / "fail"
    ok = run_config({"scenario": "linear-sine", "seeds": [0],
                     "solve": {"picard_max_iters": 1}}, out)
    assert ok is False
    header, row = (out / "summary.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["seed"] == "0"
    assert math.isinf(float(cells["max_fixed_point_residual"]))
    assert cells["gronwall_ok"] == "false" and cells["growth_ok"] == "false"
    error = json.loads((out / "seed_0_error.json").read_text())
    assert error["seed"] == 0 and error["error"]


def test_error_row_template_plus_seed_names_the_summary_columns():
    assert ["seed", *cli._ERROR_ROW] == SUMMARY_COLUMNS


def test_run_config_writes_every_solve_error_in_seed_order(tmp_path):
    out = tmp_path / "fail"
    ok = run_config({"scenario": "linear-sine", "seeds": [1, 0],
                     "solve": {"picard_max_iters": 1}}, out)
    assert ok is False
    header, *rows = (out / "summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["0", "1"]
    for seed in (0, 1):
        error = json.loads((out / f"seed_{seed}_error.json").read_text())
        assert error["seed"] == seed and error["error"]


def test_run_config_custom_field_and_driver(tmp_path):
    cfg = {
        "name": "custom",
        "field": {"name": "linear", "params": {"af": -0.4, "c": 0.3, "d0": 0.1}},
        "driver": {"kind": "sine", "params": {"amp": 0.6, "freq": 1.2}, "n": 801},
        "window": [0.0, 1.5],
        "x0": 0.9,
        "exponents": {"p": 1.4, "alpha": 0.75, "beta": 0.75, "delta": 1.0},
        "seeds": [0],
        "solve": {"oversample": 4},
    }
    ok = run_config(cfg, tmp_path / "c")
    assert ok
    header = (tmp_path / "c" / "summary.csv").read_text().splitlines()[0]
    assert header == ",".join(SUMMARY_COLUMNS)


def test_run_config_rejects_bad_custom_blocks(tmp_path):
    with pytest.raises(ConfigError, match="field.name"):
        run_config({"field": {"name": "nope"}, "driver": {"kind": "sine"},
                    "window": [0, 1]}, tmp_path / "x")
    with pytest.raises(ConfigError, match="driver.kind"):
        run_config({"field": {"name": "linear"}, "driver": {"kind": "warp"},
                    "window": [0, 1]}, tmp_path / "x")
    with pytest.raises(ConfigError, match="exponents"):
        run_config({"field": {"name": "linear"}, "driver": {"kind": "sine"},
                    "window": [0, 1], "exponents": {"p": 1.5}}, tmp_path / "x")


_CUSTOM = {
    "field": {"name": "linear"},
    "driver": {"kind": "sine", "n": 201},
    "window": [0.0, 1.0],
    "seeds": [0],
}


@pytest.mark.parametrize(
    "key, patch",
    [
        ("x0", {"x0": "abc"}),
        ("x0", {"x0": [1.0, None]}),
        ("driver.samples", {"driver": {"kind": "fbm", "samples": "many"}}),
        ("driver.hurst", {"driver": {"kind": "fbm", "hurst": [0.7]}}),
        ("solve.oversample", {"solve": {"oversample": "4"}}),
        ("p", {"p": "abc"}),
        ("p", {"p": None}),
        ("window", {"window": ["a", "b"]}),
        ("exponents.alpha", {"exponents": {"p": 1.5, "alpha": "x", "beta": 0.75, "delta": 1.0}}),
        ("driver.params.amp", {"driver": {"kind": "sine", "params": {"amp": "x"}}}),
        ("driver.params", {"driver": {"kind": "sine", "params": "amp"}}),
        ("driver.samples", {"driver": {"kind": "fbm", "samples": 65.9}}),
        ("driver.samples", {"driver": {"kind": "fbm", "samples": True}}),
        ("driver.n", {"driver": {"kind": "sine", "n": 200.5}}),
        ("driver.n", {"driver": {"kind": "sine", "n": False}}),
        ("driver.n", {"driver": {"kind": "sine", "n": -3}}),
        ("driver.params.seed", {"driver": {"kind": "brownian_like", "params": {"seed": 1.5}}}),
        ("driver.params.seed", {"driver": {"kind": "brownian_like", "params": {"seed": -0.5}}}),
        ("driver.horizon", {"driver": {"kind": "fbm", "samples": 65, "horizon": 0.5}}),
        ("solve", {"solve": [4]}),
        ("solve", {"solve": {"oversample": 4, "warp": 1}}),
        ("field.params", {"field": {"name": "linear", "params": {"warp": 1.0}}}),
        ("window", {"window": [1.0, 0.0]}),
        ("exponents", {"exponents": "manual"}),
        ("exponents", {"exponents": {"p": 2.5, "alpha": 0.75, "beta": 0.75, "delta": 1.0}}),
    ],
)
def test_malformed_config_value_exits_2_naming_its_key(tmp_path, capsys, key, patch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_CUSTOM, **patch}))
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["pvar", "--p", "1.5", "--window", "0;1"], None, "--window"),
        (["solve", "--config"], None, "missing.json"),
        (["solve", "--config"], "[1, 2]", "top level must be a JSON object"),
        (["solve", "--config"], json.dumps({"field": {"name": "linear"}}), "'field' and 'driver'"),
        (["solve", "--field", "linear", "--x0", "1.0"], None, "solve needs"),
    ],
)
def test_malformed_input_exits_2_with_a_config_error(linear_csv, tmp_path, capsys, argv, text, message):
    if argv[0] == "pvar":
        argv = argv + ["--input", str(linear_csv)]
    elif argv[-1] == "--config":
        cfg = tmp_path / ("missing.json" if text is None else "cfg.json")
        if text is not None:
            cfg.write_text(text)
        argv = argv + [str(cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _readme_custom_config():
    """The custom experiment of README's CLI section, with its fBm driver."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in readme.split("```json")[1:] if '"my-experiment"' in b)
    cfg = json.loads(block.split("```")[0])
    assert cfg["driver"]["kind"] == "fbm"
    return cfg


def test_readme_custom_config_runs_through_run_config(tmp_path):
    cfg = _readme_custom_config()
    assert run_config(cfg, tmp_path / "r")
    header, *rows = (tmp_path / "r" / "summary.csv").read_text().splitlines()
    assert header == ",".join(SUMMARY_COLUMNS)
    assert [row.split(",")[0] for row in rows] == [str(s) for s in cfg["seeds"]]
    scenario = cli._scenario_from_config(cfg)
    driver = scenario.make_driver(1)
    assert len(driver.times) == cfg["driver"]["samples"] and driver.times[-1] == cfg["window"][1]


def test_brownian_like_config_draws_one_path_per_seed(tmp_path):
    # a driver seed left out of the config is the run's seed; one given is kept
    cfg = {**_CUSTOM, "driver": {"kind": "brownian_like", "n": 201}, "seeds": [0, 1]}
    assert run_config(cfg, tmp_path / "b")
    solutions = [(tmp_path / "b" / f"seed_{s}" / "solution.csv").read_bytes() for s in (0, 1)]
    assert solutions[0] != solutions[1]
    drivers = [cli._scenario_from_config(cfg).make_driver(s) for s in (0, 1)]
    assert drivers[0].values.tobytes() != drivers[1].values.tobytes()
    fixed = cli._scenario_from_config({**cfg, "driver": {**cfg["driver"], "params": {"seed": 4}}})
    assert fixed.make_driver(0).values.tobytes() == fixed.make_driver(1).values.tobytes()


@pytest.mark.parametrize("solve", [{"oversample": math.inf}, {"oversample": math.nan},
                                   {"picard_tol": math.nan}, {"picard_max_iters": 2.5}])
def test_non_finite_or_fractional_solve_option_exits_1(tmp_path, capsys, solve):
    # Python's json reads and writes Infinity and NaN
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_CUSTOM, "solve": solve}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_run_config_reproducible(tmp_path):
    cfg = {"scenario": "fbm-linear", "seeds": [0, 1], "solve": {"oversample": 2}}
    run_config(cfg, tmp_path / "r1")
    run_config(cfg, tmp_path / "r2")
    assert (tmp_path / "r1" / "summary.csv").read_bytes() == (
        tmp_path / "r2" / "summary.csv"
    ).read_bytes()


def test_common_flags_tolerated_everywhere(linear_csv, tmp_path, capsys):
    # every subcommand accepts the shared flag vocabulary
    rc = main(["pvar", "--input", str(linear_csv), "--p", "1", "--q", "1.5",
               "--seed", "3", "--config", "unused.json"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["fbm", "--hurst", "0.75", "--samples", "65", "--seed", "1",
               "--out", str(tmp_path / "f"), "--p", "1.5", "--window", "0,1",
               "--input", "unused.csv", "--q", "2.0"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["greedy", "--input", str(linear_csv), "--p", "1.5",
               "--lambda", "1", "--mu", "0.5", "--seed", "7", "--q", "1.5"])
    assert rc == 0


def test_flow_check_zero(tmp_path, capsys):
    rc = main(["flow-check", "--scenario", "zero", "--probes", "3",
               "--out", str(tmp_path / "f")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["identity_residual"] == 0.0
    assert (tmp_path / "f" / "flow_check.json").exists()


def test_flow_check_solves_only_its_transports(monkeypatch, capsys):
    def whole_solve(*args, **kwargs):
        raise AssertionError("flow-check ran a scenario's forward solve")

    monkeypatch.setattr("youngflow.scenarios.solve_forward", whole_solve)
    assert main(["flow-check", "--scenario", "zero", "--probes", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_flow_check_without_probes_is_a_library_error(capsys):
    rc = main(["flow-check", "--scenario", "zero", "--probes", "0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_flow_check_negative_probes_is_a_config_error(capsys):
    rc = main(["flow-check", "--scenario", "zero", "--probes", "-1"])
    assert rc == 2
    assert "--probes" in capsys.readouterr().err


def test_path_csv_writes_the_whole_path_stack_block_by_block(tmp_path, monkeypatch):
    n = 2 * _CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    path = SampledPath(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.standard_normal((n, 2)))
    dest = tmp_path / "p.csv"
    path_to_csv(path, dest)
    data = np.column_stack([path.times, path.values])
    expected = "t,x1,x2\n" + "".join(",".join(map(repr, r)) + "\n" for r in data.tolist())
    assert dest.read_bytes() == expected.encode("utf-8")


def test_path_csv_bytes(tmp_path):
    dest = tmp_path / "p.csv"
    values = [[-0.0, 5e-324], [1e16, -0.0], [0.1 + 0.2, 1.5]]
    path_to_csv(SampledPath([0.0, 0.1 + 0.2, 1e16], values), dest)
    assert dest.read_bytes() == (
        b"t,x1,x2\n"
        b"0.0,-0.0,5e-324\n"
        b"0.30000000000000004,1e+16,-0.0\n"
        b"1e+16,0.30000000000000004,1.5\n"
    )
    # the same bytes as formatting each value on its own, across write blocks
    rng = np.random.default_rng(3)
    n = 2 * _CSV_BLOCK_ROWS + 3
    path = SampledPath(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.standard_normal((n, 3)) * 1e-8)
    path_to_csv(path, dest)
    rows = [",".join(repr(float(v)) for v in [t, *row]) for t, row in zip(path.times, path.values)]
    assert dest.read_text(encoding="utf-8") == "\n".join(["t,x1,x2,x3", *rows]) + "\n"
