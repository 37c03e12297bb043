"""Each output check accepts correct output and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py

The correct outputs are made here with numpy, not by youngflow.
"""

import numpy as np
import pytest

import checks


def _closed_form_solutions(shift=None):
    solutions = {}
    for name, (x0, exact, _) in checks.CLOSED_FORMS.items():
        t = np.linspace(0.0, 2.0, 4001)
        x = exact(t, x0)
        if shift and name == shift[0]:
            x = x + shift[1]
        solutions[name] = (t, x)
    return solutions


def _summary_rows():
    return [{"scenario": name, "seed": str(seed), "max_fixed_point_residual": "3e-12",
             "flow_composition_residual": "4e-07"}
            for name, seed in sorted(checks.VERIFY_ROWS)]


def test_closed_forms_accept_exact_solutions():
    assert checks.closed_form_problems(_closed_form_solutions()) == []


@pytest.mark.parametrize("shift", [("linear-sine", 1e-4), ("pure-drift", 2e-6), ("zero", 1e-15)])
def test_closed_forms_reject_shifted_solution(shift):
    problems = checks.closed_form_problems(_closed_form_solutions(shift))
    assert len(problems) == 1 and problems[0].startswith(shift[0])


def test_closed_forms_reject_missing_solution():
    solutions = _closed_form_solutions()
    del solutions["zero"]
    assert checks.closed_form_problems(solutions) == ["zero: no solution"]


def test_summary_accepts_good_rows_and_rejects_bad_ones():
    assert checks.summary_problems(_summary_rows()) == []
    rows = _summary_rows()
    rows[0]["max_fixed_point_residual"] = "2e-10"
    rows[1]["flow_composition_residual"] = "2e-05"
    rows[2]["flow_composition_residual"] = ""
    assert len(checks.summary_problems(rows)) == 3
    assert len(checks.summary_problems(_summary_rows()[1:])) == 1


def test_verify_output_tree(tmp_path):
    for name, (t, x) in _closed_form_solutions().items():
        (tmp_path / name / "seed_0").mkdir(parents=True)
        np.savetxt(tmp_path / name / "seed_0" / "solution.csv", np.column_stack([t, x]),
                   delimiter=",", header="t,x1", comments="", fmt="%.17g")
    rows = _summary_rows()
    columns = ["scenario", "seed", "max_fixed_point_residual", "flow_composition_residual"]
    lines = [",".join(columns)] + [",".join(r[c] for c in columns) for r in rows]
    (tmp_path / "verify_summary.csv").write_text("\n".join(lines) + "\n")
    assert checks.verify_problems(0, tmp_path) == []
    assert checks.verify_problems(1, tmp_path) == ["verify exited with 1"]
    (tmp_path / "verify_summary.csv").unlink()
    assert checks.verify_problems(0, tmp_path) == ["no verify_summary.csv"]


def test_flow_residuals():
    zero, small = np.zeros(10), np.full(10, 1e-7)
    assert checks.flow_residual_problems(zero, small, small) == []
    assert len(checks.flow_residual_problems(np.full(10, 1e-300), small, small)) == 1
    assert len(checks.flow_residual_problems(zero, np.full(10, 2e-5), small)) == 1
    assert len(checks.flow_residual_problems(zero, small, np.full(10, 2e-5))) == 1


def test_exact_transport_matches_closed_forms():
    knots = np.linspace(0.0, 2.0, 301)
    w = 0.4 * np.sin(3.0 * knots)
    # dx = x dw: x_t = x_s exp(w_t - w_s) on any path, in both directions
    for t1, t2 in ((0.25, 1.6), (1.6, 0.1), (0.0, 2.0)):
        got = checks.exact_linear_transport(knots, w, (0.0, 0.0, 1.0, 0.0), t1, t2, 1.3)
        expected = 1.3 * np.exp(np.interp(t2, knots, w) - np.interp(t1, knots, w))
        assert got == pytest.approx(expected, rel=1e-12)
    # dx = (-x + 0.5) dt: relaxation towards 0.5
    got = checks.exact_linear_transport(knots, w, (-1.0, 0.5, 0.0, 0.0), 0.3, 1.7, 2.0)
    assert got == pytest.approx(0.5 + 1.5 * np.exp(-1.4), rel=1e-12)
    there = checks.exact_linear_transport(knots, w, (-0.3, 0.1, 0.4, 0.1), 0.2, 1.9, 0.8)
    back = checks.exact_linear_transport(knots, w, (-0.3, 0.1, 0.4, 0.1), 1.9, 0.2, there)
    assert back == pytest.approx(0.8, rel=1e-12)


def test_transport_gap():
    assert checks.transport_problems(1.0 + 5e-7, 1.0) == []
    assert len(checks.transport_problems(1.0 + 2e-5, 1.0)) == 1


def _davies_harte_fbm(hurst, n, seed):
    """fBm at n points of [0, 1] by circulant embedding of fractional Gaussian noise."""
    m = n - 1
    k = np.arange(m + 1, dtype=float)
    gamma = 0.5 * ((k + 1) ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst) - 2 * k ** (2 * hurst))
    eigenvalues = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(2 * m) + 1j * rng.standard_normal(2 * m)
    noise = np.fft.fft(np.sqrt(np.maximum(eigenvalues, 0.0) / (2 * m)) * z).real[:m]
    return np.concatenate([[0.0], np.cumsum(noise)]) * m ** -hurst


def test_fbm_check_rejects_wrong_hurst_and_nonzero_start():
    w = _davies_harte_fbm(0.55, 4097, seed=3)
    assert checks.fbm_problems(w, 0.55) == []
    assert len(checks.fbm_problems(w, 0.70)) == 1
    assert len(checks.fbm_problems(w + 1e-3, 0.55)) == 1


def test_p_variation_bracket():
    w = np.cumsum(np.random.default_rng(5).standard_normal(200))
    steps = np.abs(np.diff(w))
    p_sum = np.sum(steps ** 1.5) ** (1 / 1.5)
    total = np.sum(steps)
    assert p_sum > abs(w[-1] - w[0])
    assert checks.p_variation_problems(w, 1.5, p_sum) == []
    assert checks.p_variation_problems(w, 1.5, total) == []
    assert len(checks.p_variation_problems(w, 1.5, total * 1.001)) == 1
    assert len(checks.p_variation_problems(w, 1.5, p_sum * 0.999)) == 1
    # a monotone path: every bound equals |w_T - w_0|
    assert len(checks.p_variation_problems(np.array([0.0, 1.0]), 1.5, 0.5)) == 2
