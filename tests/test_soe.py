import io
import logging

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit, gamma

from wemp.cli import main
from wemp.soe import (
    MAX_TERMS,
    SOEApproximation,
    build_soe,
    build_soe_for_terms,
    dump_soe_table,
    soe_error_bound,
    soe_residual,
    step_coefficients,
    validate_epsilon,
    _log1p_exp,
)


def synthetic_soe(rates, alpha=0.5, tau_f=1e-3):
    """Wrap a hand-picked rate array so step_coefficients can be probed."""
    rates = np.asarray(rates, dtype=np.float64)
    return SOEApproximation(alpha=alpha, tau_f=tau_f, epsilon=1.0,
                            weights=np.ones_like(rates), rates=rates,
                            n_terms=rates.size)


def kernel_integrand(s, t, alpha):
    """F(s; t) of the kernel representation in soe.py, without
    1/Gamma(alpha+1): e^(-t ln(1+e^s)) (ln(1+e^s))^alpha / (1 + e^(-s))."""
    ls = _log1p_exp(s)
    return np.exp(-t * ls) * ls ** alpha * expit(s)


def test_kernel_integrand_closed_form():
    # at s = 0, alpha = 1: e^(-t ln 2) (ln 2)^1 * 1/2, so ln(2)/4 for t = 1
    assert kernel_integrand(0.0, 1.0, 1.0) == pytest.approx(
        0.17328679513998632735, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n_terms", [3, 57, 201])
def test_build_terms_are_scaled_integrand_samples(alpha, n_terms):
    # the weights are the sinc samples of F(s; 0) at s_m = m pi / sqrt(n),
    # scaled to u = (alpha+1) t / tau_f, and the rates ln(1+e^s_m) so
    # scaled; the weights multiply their factors in another order, so they
    # match within 3 ulps (1.2 measured)
    tau_f = 1e-3
    n_half = (n_terms - 1) // 2
    step = np.pi / np.sqrt(n_half)
    s = np.arange(-n_half, n_half + 1) * step
    soe = build_soe_for_terms(alpha, tau_f, n_terms)
    scale = tau_f ** (-1.0 - alpha) * (alpha + 1.0) ** (1.0 + alpha)
    np.testing.assert_allclose(
        soe.weights, scale * step / gamma(alpha + 1.0)
        * kernel_integrand(s, 0.0, alpha), rtol=3 * np.finfo(float).eps,
        atol=0.0)
    np.testing.assert_allclose(
        soe.rates, (alpha + 1.0) / tau_f * np.logaddexp(0.0, s),
        rtol=1e-15, atol=0.0)


def test_build_terms_finite_past_the_overflow_switch():
    # 201 terms put the outer nodes at |s| = 10 pi > 30, where ln(1+e^s)
    # is taken as s + ln(1+e^(-s)) so that e^s cannot overflow
    soe = build_soe_for_terms(0.5, 1e-3, 201)
    assert np.pi * np.sqrt((soe.n_terms - 1) // 2) > 30.0
    assert np.all(np.isfinite(soe.weights)) and np.all(soe.weights > 0.0)
    assert np.all(np.isfinite(soe.rates)) and np.all(np.diff(soe.rates) > 0.0)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_kernel_integral_identity(alpha, t):
    # 1/Gamma(alpha+1) * int F(s; t) ds = t^(-1-alpha)
    integral, err = quad(kernel_integrand, -np.inf, np.inf, args=(t, alpha))
    assert err < 1e-7
    assert integral / gamma(alpha + 1.0) == pytest.approx(
        t ** (-1.0 - alpha), rel=1e-12)
    # the alpha = 0.5, t = 2 case has the closed form 2^(-3/2)
    if alpha == 0.5 and t == 2.0:
        assert t ** (-1.0 - alpha) == pytest.approx(0.3535533905932737622)


def test_error_bound_decreases():
    bounds = [soe_error_bound(0.5, 1e-3, n) for n in range(1, 40)]
    assert np.all(np.diff(bounds) < 0)


def test_build_soe_minimality():
    soe = build_soe(0.9, 1e-4, 1e-3)
    n_half = (soe.n_terms - 1) // 2
    assert soe_error_bound(0.9, 1e-4, n_half) <= 1e-3
    assert soe_error_bound(0.9, 1e-4, n_half - 1) > 1e-3
    assert soe.epsilon == soe_error_bound(0.9, 1e-4, n_half)


def test_build_soe_matches_fixed_count():
    a = build_soe(0.5, 1e-3, 1e-2)
    b = build_soe_for_terms(0.5, 1e-3, a.n_terms)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.rates, b.rates)
    assert a.epsilon == b.epsilon


@pytest.mark.parametrize("alpha,tau_f", [(0.1, 1e-3), (0.5, 1e-3), (0.9, 1e-4)])
def test_soe_structure(alpha, tau_f):
    soe = build_soe(alpha, tau_f, 1e-2)
    assert soe.n_terms % 2 == 1
    assert soe.weights.size == soe.rates.size == soe.n_terms
    assert np.all(soe.weights > 0)
    assert np.all(np.diff(soe.rates) > 0)
    assert soe.gamma_min == soe.rates[0] > 0


def test_residual_within_certificate():
    # the measured kernel error on [tau_f, 1] never exceeds the bound
    for alpha in (0.1, 0.5, 0.9):
        soe = build_soe(alpha, 1e-3, 1e-2)
        assert soe_residual(soe, 1.0) <= soe.epsilon


def test_residual_doubling_decay():
    # halving the quadrature step squares down the residual until roundoff
    residuals = [soe_residual(build_soe_for_terms(0.5, 1e-3, 2 * n + 1), 1.0)
                 for n in (4, 8, 16, 32, 64)]
    assert np.all(np.diff(residuals) < 0)
    assert residuals[0] == pytest.approx(43.2, rel=0.01)
    assert residuals[-1] == pytest.approx(1.804e-8, rel=0.01)


def test_residual_needs_valid_horizon():
    soe = build_soe(0.5, 1e-3, 1e-1)
    with pytest.raises(ValueError):
        soe_residual(soe, 1e-4)


def test_build_validation():
    with pytest.raises(ValueError):
        build_soe(1.5, 1e-3, 1e-2)
    with pytest.raises(ValueError):
        build_soe(0.5, -1e-3, 1e-2)
    with pytest.raises(ValueError):
        build_soe(0.5, 1e-3, 0.0)
    with pytest.raises(ValueError):
        build_soe_for_terms(0.5, 1e-3, 30)    # even
    with pytest.raises(ValueError):
        build_soe_for_terms(0.5, 1e-3, 1)     # too few
    with pytest.raises(ValueError):
        build_soe_for_terms(0.5, 1e-3, MAX_TERMS + 3)
    with pytest.raises(ValueError):
        build_soe(0.5, 1.0, 1e-280)           # unreachable tolerance
    with pytest.raises(ValueError):
        soe_error_bound(0.5, 1e-3, 14.5)      # not an integer
    with pytest.raises(ValueError):
        soe_error_bound(0.5, 1e-3, 0)         # below 1


@pytest.mark.parametrize("alpha,tau_f,match", [
    (1.5, 1e-3, "alpha must lie"), (float("nan"), 1e-3, "alpha must lie"),
    (0.5, float("nan"), "tau_f must be"), (0.5, -1e-3, "tau_f must be"),
    (0.5, float("inf"), "tau_f must be"), (0.5, 0.0, "tau_f must be")])
def test_build_for_terms_validates_alpha_and_tau_f(alpha, tau_f, match):
    # unchecked, a NaN tau_f gives an all-NaN sum, a negative one a
    # TypeError about a complex number, and alpha = 1.5 a sum
    with pytest.raises(ValueError, match=match):
        build_soe_for_terms(alpha, tau_f, 31)


@pytest.mark.parametrize("tau_f,epsilon", [
    ("1e-3", "nan"), ("inf", "1e-2"), ("nan", "1e-2")])
def test_soe_table_refuses_non_finite_input(capsys, tau_f, epsilon):
    # a NaN epsilon fails no `bound > epsilon` test, so build_soe's search
    # used to stop at 3 terms whatever the bound, and print that table
    assert main(["soe-table", "0.5", tau_f, epsilon]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "must be" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_build_logs_no_warning(caplog):
    # the sinc construction always puts its slowest rate far below
    # 0.5/tau_f, so that comparison is logged at debug level only
    with caplog.at_level(logging.DEBUG, logger="wemp.soe"):
        soe = build_soe(0.5, 1e-3, 1e-2)
    assert soe.gamma_min < 0.5 / 1e-3
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert any("slowest SOE rate" in r.getMessage() for r in caplog.records
               if r.levelno == logging.DEBUG)


def test_step_coefficient_identity_across_scales():
    # c1 + c2 = e^(-x) (1 - e^(-x)) / lambda for x = lambda tau, all regimes
    tau = 1e-3
    x = np.geomspace(1e-8, 10.0, 300)
    soe = synthetic_soe(x / tau)
    sc = step_coefficients(soe, tau)
    target = np.exp(-x) * (-np.expm1(-x)) / (x / tau)
    rel = np.abs(sc.c1 + sc.c2 - target) / target
    assert rel.max() < 1e-12


def test_step_coefficients_frozen_values():
    # high-precision reference values for the cancellation-prone region
    # (tau = 1, rate = x); the naive formula loses ~8 digits at x = 1e-4
    cases = {
        1e-8: (0.4999999916666667375, 0.49999999333333337917),
        1e-5: (0.49999166673749959167, 0.49999333337916645),
        1e-3: (0.49916737459184576966, 0.49933379145007914286),
        1e-2: (0.49173709345198330884, 0.49337895078929182647),
    }
    xs = np.array(sorted(cases))
    sc = step_coefficients(synthetic_soe(xs), 1.0)
    for i, x in enumerate(xs):
        c1_ref, c2_ref = cases[float(x)]
        assert sc.c1[i] == pytest.approx(c1_ref, rel=1e-13)
        assert sc.c2[i] == pytest.approx(c2_ref, rel=1e-13)


@pytest.mark.parametrize("lam,tau", [(2.0, 0.5), (80.0, 0.05), (1.0, 1e-2)])
def test_step_coefficients_are_interpolation_integrals(lam, tau):
    # c1 = int_0^tau e^(-lam (2 tau - s)) (1 - s/tau) ds and c2 the s/tau part
    sc = step_coefficients(synthetic_soe([lam]), tau)
    c1_ref, _ = quad(lambda s: np.exp(-lam * (2 * tau - s)) * (1 - s / tau), 0, tau)
    c2_ref, _ = quad(lambda s: np.exp(-lam * (2 * tau - s)) * (s / tau), 0, tau)
    assert sc.c1[0] == pytest.approx(c1_ref, rel=1e-10)
    assert sc.c2[0] == pytest.approx(c2_ref, rel=1e-10)
    assert sc.decay[0] == pytest.approx(np.exp(-lam * tau), rel=1e-15)


def test_step_coefficients_validation():
    with pytest.raises(ValueError):
        step_coefficients(synthetic_soe([1.0]), 0.0)


def test_validate_epsilon_ceilings():
    # T = 1: the 1/2 branch wins; T = 10 brings the ceiling down hard
    assert validate_epsilon(0.5, 0.4, 1.0, 1000) == pytest.approx(0.5)
    ceiling = validate_epsilon(0.5, 1e-3, 10.0, 10000)
    assert ceiling == pytest.approx(0.015811, rel=1e-4)
    with pytest.raises(ValueError):
        validate_epsilon(0.5, 0.6, 1.0, 1000)


def test_dump_soe_table_roundtrip():
    soe = build_soe(0.5, 1e-3, 1e-1)
    buf = io.StringIO()
    dump_soe_table(soe, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "j,omega,lambda"
    assert len(lines) == soe.n_terms + 1
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], np.arange(soe.n_terms))
    assert np.array_equal(parsed[:, 1], soe.weights)   # 17 digits round-trip
    assert np.array_equal(parsed[:, 2], soe.rates)
