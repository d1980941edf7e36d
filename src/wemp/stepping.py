"""Time integrators for the Caputo derivative.

Two discretizations of D^alpha_t at t_{n+1}:

* the classical L1 form sum_j b_j (v^{n+1-j} - v^{n-j}) / (tau^alpha c_alpha),
  which needs the whole solution history, and
* the compressed form that splits off the local two-level difference and
  replaces the kernel on [0, t_n] by the sum of exponentials, carrying one
  scalar-per-term history integral psi_j that is updated by a cheap recurrence.

Each yields the "known part" of the step (the L1 one as weights on the
stored states): the implicit step then solves
(M/(tau^alpha c_alpha) + A) v_next = M @ known + F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma

from .soe import SOEApproximation, StepCoefficients

MITTAG_LEFFLER_TERMS = 200


@dataclass(frozen=True)
class L1Coefficients:
    alpha: float
    b: np.ndarray       # b_j = (j+1)^(1-alpha) - j^(1-alpha)
    c_alpha: float      # Gamma(2 - alpha)


def l1_coefficients(alpha: float, n: int) -> L1Coefficients:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    j = np.arange(n + 1, dtype=np.float64)
    b = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
    return L1Coefficients(alpha=alpha, b=b, c_alpha=float(gamma(2.0 - alpha)))


def l1_known_weights(coeffs: L1Coefficients, n: int) -> np.ndarray:
    """Weights w_i on the stored states v^0..v^n for the step n -> n+1.

    The discrete derivative rearranges to
    (v^{n+1} - sum_i w_i v^i) / (tau^alpha c_alpha) with w_0 = b_n and
    w_i = b_{n-i} - b_{n-i+1} for i >= 1. The weights sum to b_0 = 1.
    """
    b = coeffs.b
    if n >= b.size:
        raise ValueError(f"coefficients cover b_0..b_{b.size - 1}, need b_{n}")
    w = np.empty(n + 1)
    w[0] = b[n]
    if n >= 1:
        i = np.arange(1, n + 1)
        w[i] = b[n - i] - b[n - i + 1]
    return w


def propagate_history_with(psi: np.ndarray, coeffs: StepCoefficients,
                           v_prev: np.ndarray, v_next: np.ndarray) -> np.ndarray:
    """One recurrence update of the history integrals psi, (n_terms, dof).

    Row j approximates int_0^{t_n} e^(-lambda_j (t_{n+1} - s)) u(s) ds, so a
    history is anchored one step ahead; the update uses the precomputed
    per-step coefficients.
    """
    if psi.shape[0] != coeffs.decay.size:
        raise ValueError("history term count does not match the coefficients")
    if psi.shape[1] != np.shape(v_prev)[-1] or psi.shape[1] != np.shape(v_next)[-1]:
        raise ValueError("history and vectors disagree in dof count")
    out = coeffs.decay[:, None] * psi
    out += coeffs.c1[:, None] * v_prev
    out += coeffs.c2[:, None] * v_next
    return out


def soe_caputo_known_part(psi: np.ndarray, soe: SOEApproximation, tau: float,
                          v_curr: np.ndarray, v0: np.ndarray,
                          t_next: float) -> np.ndarray:
    """Known part of the compressed derivative for the step to t_next.

    known = alpha/(tau^alpha c_alpha) v_curr
          + (1/Gamma(1-alpha)) (v0 / t_next^alpha + alpha sum_j omega_j psi_j).

    At n = 0 (zero history, t_next = tau) this collapses to
    v_curr / (tau^alpha c_alpha), the L1 first step.
    """
    if psi.shape[0] != soe.n_terms:
        raise ValueError("history term count does not match the SOE")
    alpha = soe.alpha
    c_alpha = gamma(2.0 - alpha)
    g1 = gamma(1.0 - alpha)
    weighted = soe.weights @ psi
    return (alpha / (tau ** alpha * c_alpha) * np.asarray(v_curr, dtype=np.float64)
            + (np.asarray(v0, dtype=np.float64) / t_next ** alpha
               + alpha * weighted) / g1)


def mittag_leffler_neg(alpha: float, t: float) -> float:
    """E_alpha(-t^alpha) by its first MITTAG_LEFFLER_TERMS series terms; the
    exact solution of D^alpha u = -u, u(0) = 1. Adequate for t <= 1 where
    the series converges fast; used as the scalar oracle."""
    k = np.arange(MITTAG_LEFFLER_TERMS, dtype=np.float64)
    terms = (-(t ** alpha)) ** k / gamma(alpha * k + 1.0)
    return float(terms.sum())
