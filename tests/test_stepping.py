import numpy as np
import pytest
from scipy.special import erfc, gamma

from wemp.soe import build_soe, step_coefficients
from wemp.stepping import (
    history_weights,
    l1_coefficients,
    l1_known_weights,
    mittag_leffler_neg,
    propagate_history_with,
    soe_caputo_known_part,
)


def test_l1_coefficient_values():
    coeffs = l1_coefficients(0.5, 4)
    j = np.arange(5.0)
    assert np.allclose(coeffs.b, np.sqrt(j + 1) - np.sqrt(j))
    assert coeffs.b[0] == 1.0
    assert coeffs.c_alpha == pytest.approx(gamma(1.5))
    with pytest.raises(ValueError):
        l1_coefficients(1.0, 4)
    with pytest.raises(ValueError):
        l1_coefficients(0.5, -1)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_l1_difference_lower_bound(alpha):
    # b_{j-1} - b_j >= alpha (1 - alpha) (n + 1)^(-alpha - 1) for 1 <= j <= n
    n = 200
    coeffs = l1_coefficients(alpha, n)
    diffs = coeffs.b[:-1] - coeffs.b[1:]
    floor = alpha * (1.0 - alpha) * (n + 1.0) ** (-alpha - 1.0)
    assert diffs.min() >= floor * (1.0 - 1e-12)
    assert np.all(np.diff(coeffs.b) < 0)


def test_known_weights_sum_to_one():
    coeffs = l1_coefficients(0.7, 50)
    for n in (0, 1, 7, 50):
        w = l1_known_weights(coeffs, n)
        assert w.size == n + 1
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ValueError):
        l1_known_weights(coeffs, 51)


def test_l1_weights_match_telescoped_form():
    # the weight form must equal the textbook sum of b_j differences
    alpha, tau, n = 0.4, 0.1, 3
    coeffs = l1_coefficients(alpha, n)
    rng = np.random.default_rng(0)
    states = rng.standard_normal((n + 2, 5))   # v^0 .. v^{n+1}
    scale = tau ** alpha * coeffs.c_alpha
    derivative = sum(coeffs.b[j] * (states[n + 1 - j] - states[n - j])
                     for j in range(n + 1)) / scale
    known = (l1_known_weights(coeffs, n) @ states[:n + 1]) / scale
    assert np.allclose(states[n + 1] / scale - known, derivative, atol=1e-13)


def test_first_step_equals_l1():
    # with empty history the compressed known part is v / (tau^alpha c_alpha)
    soe = build_soe(0.5, 1e-3, 1e-2)
    v = np.array([1.0, -2.0, 0.5])
    known = soe_caputo_known_part(np.zeros(3), soe, 1e-3, v, v, 1e-3)
    expected = v / (1e-3 ** 0.5 * gamma(1.5))
    assert np.allclose(known, expected, rtol=1e-14)


def test_history_exact_for_constant_state():
    # linear interpolation reproduces a constant exactly, so after n steps
    # psi_j = c (e^(-lam tau) - e^(-lam t_{n+1})) / lam
    soe = build_soe(0.3, 1e-2, 1e-1)
    tau = 0.05
    c = 2.5
    v = np.array([c])
    psi = np.zeros((soe.n_terms, 1))
    coeffs = step_coefficients(soe, tau)
    n = 6
    for _ in range(n):
        psi = propagate_history_with(psi, coeffs, np.stack((v, v)))
    lam = soe.rates
    t_np1 = (n + 1) * tau
    exact = c * (np.exp(-lam * tau) - np.exp(-lam * t_np1)) / lam
    assert np.allclose(psi[:, 0], exact, rtol=1e-12, atol=1e-300)


def test_history_linearity():
    soe = build_soe(0.5, 1e-3, 1e-1)
    sc = step_coefficients(soe, 1e-3)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 2))
    b = rng.standard_normal((4, 2))
    sa = sb = sab = np.zeros((soe.n_terms, 2))
    for k in range(3):
        sa = propagate_history_with(sa, sc, a[k:k + 2])
        sb = propagate_history_with(sb, sc, b[k:k + 2])
        sab = propagate_history_with(sab, sc, 2 * a[k:k + 2] - b[k:k + 2])
    assert np.allclose(sab, 2 * sa - sb, atol=1e-14)


@pytest.mark.parametrize("n_steps", [1, 2, "n_terms", 100])
def test_block_history_equals_chained_steps(n_steps):
    # K steps read in one block: the end-of-block update and each step's
    # weighted history match K chained one-step updates
    soe = build_soe(0.5, 1e-3, 1e-2)
    coeffs = step_coefficients(soe, 1e-3)
    K = soe.n_terms if n_steps == "n_terms" else n_steps
    rng = np.random.default_rng(6)
    psi = rng.standard_normal((soe.n_terms, 4))
    states = rng.standard_normal((K + 1, 4))
    far, near = history_weights(soe, coeffs, K)
    chained = psi
    for k in range(K):
        weighted = far[k] @ psi + near[k, :k + 1] @ states[:k + 1]
        expected = soe.weights @ chained
        assert (np.abs(weighted - expected).max()
                <= 1e-14 * np.abs(expected).max())
        chained = propagate_history_with(chained, coeffs, states[k:k + 2])
    block = propagate_history_with(psi, coeffs, states)
    assert np.abs(block - chained).max() <= 1e-14 * np.abs(chained).max()


def test_history_shape_validation():
    soe = build_soe(0.5, 1e-3, 1e-1)
    coeffs = step_coefficients(soe, 1e-3)
    psi = np.zeros((soe.n_terms, 2))
    with pytest.raises(ValueError, match="dof count"):
        propagate_history_with(psi, coeffs, np.ones((2, 3)))
    bad = np.zeros((soe.n_terms + 2, 2))
    with pytest.raises(ValueError, match="term count"):
        propagate_history_with(bad, coeffs, np.ones((2, 2)))
    with pytest.raises(ValueError, match="dof count"):
        soe_caputo_known_part(np.zeros(3), soe, 1e-3, np.ones(2), np.ones(2),
                              1e-3)


def test_mittag_leffler_values():
    # E_{1/2}(-sqrt(t)) at t = 1 has the closed form e * erfc(1)
    assert mittag_leffler_neg(0.5, 1.0) == pytest.approx(
        np.e * erfc(1.0), rel=1e-12)
    assert mittag_leffler_neg(0.5, 1.0) == pytest.approx(
        0.42758357615580700441, rel=1e-12)
    # alpha = 1 reduces to the plain exponential
    for t in (0.1, 0.5, 1.0):
        assert mittag_leffler_neg(1.0, t) == pytest.approx(np.exp(-t), rel=1e-12)
    assert mittag_leffler_neg(0.5, 0.0) == 1.0
