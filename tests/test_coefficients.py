import numpy as np
import pytest

from youngflow import (
    BUILTIN_FIELDS,
    ControlFunction,
    InfeasibleExponentsError,
    PreconditionError,
    SampledPath,
    bounded_smooth_field,
    composed_difference_bound,
    composed_path,
    composed_variation_bound,
    derived_constants,
    linear_field,
    scalar_field,
    select_exponents,
    time_varying_field,
    verify_hypotheses,
)
from youngflow.young import YoungConstants


def test_select_exponents_reference_case():
    exps = select_exponents(4.0 / 3.0, 0.75, 0.75, 1.0)
    # 1/q0 interval (1/4, 1/2) -> midpoint 3/8; 1/q interval [3/8, 3/4) -> 9/16
    assert exps.q0 == pytest.approx(8.0 / 3.0)
    assert exps.q == pytest.approx(16.0 / 9.0)
    exps.validate()
    # all chained relations
    assert 1 / exps.p + 1 / exps.q0 > 1
    assert exps.q0 * exps.beta > 1
    assert exps.q0 >= exps.q0 * exps.delta >= exps.q > exps.p
    assert exps.q * exps.alpha > 1


def test_select_exponents_boundary_infeasible():
    p = 4.0 / 3.0
    with pytest.raises(InfeasibleExponentsError) as err:
        select_exponents(p, 0.75, 0.75, p - 1.0)
    assert "delta > p - 1" in str(err.value)


def test_select_exponents_low_alpha_case():
    exps = select_exponents(1.5, 0.5, 0.9, 0.9)
    exps.validate()
    assert exps.q * exps.alpha > 1
    assert exps.p_prime == pytest.approx(2.0)  # max(p, 1/alpha) = 1/0.5


def test_validate_reports_violation():
    from youngflow.coefficients import ExponentSet

    bad = ExponentSet(p=1.5, q0=2.4, q=1.2, alpha=0.75, beta=0.75, delta=1.0)
    with pytest.raises(InfeasibleExponentsError):
        bad.validate()


def test_builtin_hypotheses_probe_clean():
    for name, factory in BUILTIN_FIELDS.items():
        field = factory()
        defects = verify_hypotheses(field, 0.0, 2.0, box_radius=3.0, n_probes=1000)
        for label, gap in defects.items():
            assert gap <= 1e-9, f"{name}: {label} defect {gap}"


def test_derived_constants_structure():
    field = linear_field()
    K = 12.0
    cons = derived_constants(field, 0.0, 1.0, K)
    assert cons.M >= field.L_g
    assert cons.M >= field.b_norm(0.0, 1.0)
    assert cons.mu_star == pytest.approx(1.0 / (2.0 * cons.M * (K + 2.0)))
    assert cons.M_prime(2.0) >= cons.M
    # horizon dependence enters through a T^{1-alpha} and the b-norm
    longer = derived_constants(field, 0.0, 4.0, K)
    assert longer.M >= cons.M


def test_zero_field_mu_star_infinite():
    field = linear_field(0.0, 0.0, 0.0, 0.0)
    cons = derived_constants(field, 0.0, 1.0, 12.0)
    assert cons.M == 0.0
    assert np.isinf(cons.mu_star)


def test_composed_variation_constant_path():
    field = bounded_smooth_field(nu=0.0)  # time-independent diffusion
    ts = np.linspace(0.0, 1.0, 50)
    const = SampledPath(ts, np.full(50, 0.3))
    exps = select_exponents(4.0 / 3.0, field.alpha, field.beta, field.delta)
    cert = composed_variation_bound(field, const, (0.0, 1.0), exps)
    assert cert.lhs == pytest.approx(0.0, abs=1e-14)
    assert cert.ok


def test_composed_variation_sin_diffusion(rng):
    field = scalar_field(
        f=lambda t, x: np.zeros_like(x),
        g=lambda t, x: np.sin(x),
        g_x=lambda t, x: np.cos(x),
        L_g=1.0,
        M_N=1.0,
        delta=1.0,
        beta=0.75,
        h=ControlFunction.zero(),
        L_N=0.0,
        a=0.0,
        name="sin-diffusion",
    )
    exps = select_exponents(4.0 / 3.0, field.alpha, field.beta, field.delta)
    for _ in range(5):
        ts = np.linspace(0.0, 1.0, 120)
        x = SampledPath(ts, np.cumsum(rng.standard_normal(120)) * 0.08)
        cert = composed_variation_bound(field, x, (0.0, 1.0), exps)
        assert cert.ok, (cert.lhs, cert.rhs, cert.extra)


def test_composed_difference_identical_paths():
    field = bounded_smooth_field()
    ts = np.linspace(0.0, 1.0, 60)
    x = SampledPath(ts, np.sin(2 * ts))
    exps = select_exponents(4.0 / 3.0, field.alpha, field.beta, field.delta)
    cert = composed_difference_bound(field, x, x, (0.0, 1.0), exps)
    assert cert.lhs == pytest.approx(0.0, abs=1e-14)
    assert cert.rhs == pytest.approx(0.0, abs=1e-12)
    assert cert.ok


def test_composed_difference_random_pairs(rng):
    field = scalar_field(
        f=lambda t, x: np.zeros_like(x),
        g=lambda t, x: np.cos(t) * np.tanh(x),
        g_x=lambda t, x: np.cos(t) * (1.0 - np.tanh(x) ** 2),
        L_g=1.0,
        M_N=0.7699,
        delta=1.0,
        beta=0.75,
        h=ControlFunction.power(1.0 / 0.75, 2.0 ** (1.0 / 0.75)),
        L_N=0.0,
        a=0.0,
        name="cos-tanh",
    )
    exps = select_exponents(4.0 / 3.0, field.alpha, field.beta, field.delta)
    ts = np.linspace(0.0, 1.0, 90)
    for _ in range(10):
        base = np.cumsum(rng.standard_normal(90)) * 0.1
        drift = (ts - ts[0]) * rng.uniform(-0.4, 0.4)
        x = SampledPath(ts, base)
        y = SampledPath(ts, base + drift)
        cert = composed_difference_bound(field, x, y, (0.0, 1.0), exps, rng=rng)
        assert cert.ok, (cert.lhs, cert.rhs, cert.extra)


def test_composed_difference_start_mismatch():
    field = bounded_smooth_field()
    ts = np.linspace(0.0, 1.0, 30)
    x = SampledPath(ts, np.zeros(30))
    y = SampledPath(ts, np.ones(30))
    exps = select_exponents(4.0 / 3.0, field.alpha, field.beta, field.delta)
    with pytest.raises(PreconditionError):
        composed_difference_bound(field, x, y, (0.0, 1.0), exps)


def test_growth_bound_of_g():
    field = linear_field()
    exps = select_exponents(4.0 / 3.0, field.alpha, field.beta, field.delta)
    ts = np.linspace(0.0, 1.0, 40)
    x = SampledPath(ts, 3.0 * np.sin(5 * ts))
    cert = composed_variation_bound(field, x, (0.0, 1.0), exps)
    assert cert.extra["growth_gap"] <= 1e-10


def test_time_reversed_field_evaluations():
    field = time_varying_field()
    rev = field.time_reversed(0.0, 2.0)
    ts = np.array([0.3, 1.1])
    xs = np.array([[0.5], [-0.2]])
    np.testing.assert_allclose(rev.eval_f(ts, xs), -field.eval_f(2.0 - ts, xs), atol=1e-14)
    np.testing.assert_allclose(rev.eval_g(ts, xs), field.eval_g(2.0 - ts, xs), atol=1e-14)
    # reversed time modulus keeps the control property
    assert rev.h(0.5, 0.5) == 0.0
    assert rev.h(0.2, 0.9) >= 0.0


def test_composed_path_shapes():
    field = linear_field()
    ts = np.linspace(0.0, 1.0, 25)
    x = SampledPath(ts, np.sin(ts))
    comp = composed_path(field, x)
    assert comp.values.shape == (25, 1, 1)


def test_young_pairings_of_exponent_set():
    exps = select_exponents(1.5, 0.75, 0.75, 1.0)
    assert exps.young0.theta > 1
    assert exps.youngq.theta > 1
    assert isinstance(exps.young0, YoungConstants)
    assert exps.K0 == pytest.approx(exps.young0.K)


def test_field_wrappers_pass_on_float_arrays_and_coerce_the_rest():
    # eval_f/eval_g hand back f's and g's own result when it is a float64
    # ndarray of the protocol's shape, and coerce any other dtype or shape
    from dataclasses import replace

    ts, xs = np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 1.0, 5)[:, None]
    field = linear_field()
    drift, noise = np.full((5, 1), 2.0), np.full((5, 1, 1), 3.0)
    own = replace(field, f=lambda t, x: drift, g=lambda t, x: noise)
    assert own.eval_f(ts, xs) is drift and own.eval_g(ts, xs) is noise
    other = replace(field, f=lambda t, x: np.arange(5)[:, None], g=lambda t, x: [1, 2, 3, 4, 5])
    f, g = other.eval_f(ts, xs), other.eval_g(ts, xs)
    assert f.dtype == float and f.shape == (5, 1) and f[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert g.dtype == float and g.shape == (5, 1, 1) and g[:, 0, 0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    flat = replace(field, f=lambda t, x: np.zeros(5))
    assert flat.eval_f(ts, xs).shape == (5, 1)
    # a scalar field's lambdas pass their callables' arrays on as columns
    sf = scalar_field(f=lambda t, x: 2.0 * x, g=lambda t, x: np.ones_like(x, dtype=np.int64),
                      g_x=lambda t, x: np.zeros_like(x), L_g=0.0, M_N=0.0, delta=1.0,
                      beta=0.75, h=ControlFunction.zero(), L_N=0.0, a=2.0)
    assert sf.eval_f(ts, xs)[:, 0].tolist() == (2.0 * xs[:, 0]).tolist()
    assert sf.eval_g(ts, xs).dtype == float
    # the reversed clock reads times as arrays or floats
    rev = field.time_reversed(0.0, 1.0)
    assert np.array_equal(rev.eval_f(ts, xs), -field.eval_f(1.0 - ts, xs))
    assert rev.b(0.25) == field.b(0.75)
