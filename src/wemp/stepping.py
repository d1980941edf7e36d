"""Time integrators for the Caputo derivative.

Two discretizations of D^alpha_t at t_{n+1}:

* the classical L1 form sum_j b_j (v^{n+1-j} - v^{n-j}) / (tau^alpha c_alpha),
  which needs the whole solution history, and
* the compressed form that splits off the local two-level difference and
  replaces the kernel on [0, t_n] by the sum of exponentials, carrying one
  scalar-per-term history integral psi_j that obeys the linear recurrence
  psi <- D psi + c1 v_old + c2 v_new, D = diag(e^(-lambda_j tau)).

Each yields the "known part" of the step (the L1 one as weights on the
stored states, the compressed one from the weighted history omega . psi):
the implicit step then solves (M/(tau^alpha c_alpha) + A) v_next
= M @ known + F.

The recurrence is linear, so K steps of it unroll exactly and a march reads
its history a block of steps at a time. From the block's start history
psi_0 and its states v_0..v_K,

    psi_K        = D^K psi_0 + sum_m E_m v_m        (propagate_history_with)
    omega . psi_k = (omega o D^k) . psi_0 + sum_{m<=k} e_km v_m
                                                     (history_weights),

so one product gives every step's far history, each step adds a near
window over the block's own states, and one product ends the block.
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


def _decay_powers(coeffs: StepCoefficients, n: int) -> np.ndarray:
    """D^0 .. D^n, one row each: (n + 1, n_terms)."""
    return coeffs.decay ** np.arange(n + 1, dtype=np.float64)[:, None]


def propagate_history_with(psi: np.ndarray, coeffs: StepCoefficients,
                           states: np.ndarray) -> np.ndarray:
    """The history integrals psi, (n_terms, dof), advanced over the K =
    len(states) - 1 steps through the states v_0..v_K, in one product.

    Row j approximates int_0^{t_n} e^(-lambda_j (t_{n+1} - s)) u(s) ds, so a
    history is anchored one step ahead. K steps of the per-step recurrence
    give D^K psi + sum_m E_m v_m with E_m = D^(K-1-m) c1 for m < K plus
    D^(K-m) c2 for m > 0; a 2-row stack is one step.
    """
    if psi.shape[0] != coeffs.decay.size:
        raise ValueError("history term count does not match the coefficients")
    if states.ndim != 2 or states.shape[0] < 2:
        raise ValueError("states must stack at least two vectors")
    if psi.shape[1] != states.shape[1]:
        raise ValueError("history and vectors disagree in dof count")
    n = states.shape[0] - 1
    powers = _decay_powers(coeffs, n)
    update = np.zeros((n + 1, psi.shape[0]))
    update[:-1] = powers[n - 1::-1] * coeffs.c1
    update[1:] += powers[n - 1::-1] * coeffs.c2
    out = powers[n][:, None] * psi
    out += update.T @ states
    return out


def history_weights(soe: SOEApproximation, coeffs: StepCoefficients,
                    n_steps: int) -> tuple:
    """(far, near): the weighted history omega . psi_k before each step k <
    n_steps of a block, far[k] @ psi_0 + near[k, :k + 1] @ states[:k + 1],
    from the block's start history psi_0 and states v_0..v_k.

    far[k] = omega o D^k, (n_steps, n_terms); near (n_steps, n_steps) is
    lower triangular with near[k, m] = p_{k-1-m} [m < k] + q_{k-m} [m > 0],
    p_j = far[j] . c1 and q_j = far[j] . c2.
    """
    far = soe.weights * _decay_powers(coeffs, n_steps - 1)
    p, q = far @ coeffs.c1, far @ coeffs.c2
    k, m = np.indices((n_steps, n_steps))
    lag = k - m
    near = (np.where(lag >= 1, p[np.clip(lag - 1, 0, None)], 0.0)
            + np.where((lag >= 0) & (m >= 1), q[np.clip(lag, 0, None)], 0.0))
    return far, near


def soe_caputo_known_part(weighted: np.ndarray, soe: SOEApproximation,
                          tau: float, v_curr: np.ndarray, v0: np.ndarray,
                          t_next: float) -> np.ndarray:
    """Known part of the compressed derivative for the step to t_next, from
    the weighted history weighted = omega . psi (history_weights).

    known = alpha/(tau^alpha c_alpha) v_curr
          + (1/Gamma(1-alpha)) (v0 / t_next^alpha + alpha weighted).

    At n = 0 (zero history, t_next = tau) this collapses to
    v_curr / (tau^alpha c_alpha), the L1 first step.
    """
    if np.shape(weighted) != np.shape(v_curr):
        raise ValueError("weighted history and state disagree in dof count")
    alpha = soe.alpha
    c_alpha = gamma(2.0 - alpha)
    g1 = gamma(1.0 - alpha)
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
