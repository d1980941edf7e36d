"""Sum-of-exponentials compression of the fractional history kernel.

The weakly singular kernel t^(-1-alpha) on [tau_f, inf) is approximated by
sum_j omega_j exp(-lambda_j t) through sinc quadrature of the integral
representation

    u^(-1-alpha) = 1/Gamma(alpha+1) * int_R F(s; u) ds,
    F(s; u) = exp(-u ln(1+e^s)) (ln(1+e^s))^alpha / (1 + e^(-s)).

The representation is applied at the rescaled time u = (alpha+1) t / tau_f,
so the quadrature rates ln(1+e^s_m) are multiplied by (alpha+1)/tau_f and
the weights by (alpha+1)^(1+alpha) * tau_f^(-1-alpha). With n_half >= 1 the
2*n_half+1 uniform nodes s_m = m*pi/sqrt(n_half), |m| <= n_half, truncate
the integral to |s| <= pi*sqrt(n_half); the rates are strictly increasing
and the weights stay positive. soe_error_bound is an upper bound on the
kernel error over all of [tau_f, inf) for those 2*n_half+1 terms, so the
term count does not depend on the final time. Also provides the per-step
recurrence coefficients for the exponential history update and the epsilon
feasibility bound for a target horizon.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gamma

log = logging.getLogger(__name__)

MAX_TERMS = 20000
RESIDUAL_POINTS = 10000


def _log1p_exp(s):
    """ln(1 + e^s), overflow-safe for large |s|."""
    s = np.asarray(s, dtype=np.float64)
    out = np.empty_like(s)
    small = s <= 30.0
    out[small] = np.log1p(np.exp(s[small]))
    out[~small] = s[~small] + np.log1p(np.exp(-s[~small]))
    return out


def soe_error_bound(alpha: float, tau_f: float, n_half: int) -> float:
    """Kernel error bound on [tau_f, inf) for 2*n_half+1 quadrature terms.

    n_half must be an integer >= 1; anything else raises ValueError.
    """
    if not isinstance(n_half, (int, np.integer)):
        raise ValueError(f"n_half must be an integer, got {n_half!r}")
    if n_half < 1:
        raise ValueError(f"n_half must be >= 1, got {n_half}")
    root = np.pi * np.sqrt(n_half)
    return tau_f ** (-1.0 - alpha) * (2.0 / (1.0 - np.exp(-root)) + 2.0) * np.exp(-root)


@dataclass(frozen=True)
class SOEApproximation:
    alpha: float
    tau_f: float
    epsilon: float              # the realized bound for the chosen term count
    weights: np.ndarray         # omega_j > 0
    rates: np.ndarray           # lambda_j > 0, strictly increasing
    n_terms: int

    @property
    def gamma_min(self) -> float:
        return float(self.rates[0])

    def kernel_error(self, t) -> np.ndarray:
        """Pointwise |t^(-1-alpha) - sum omega_j e^(-lambda_j t)|."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        approx = np.exp(-np.outer(t, self.rates)) @ self.weights
        return np.abs(t ** (-1.0 - self.alpha) - approx)


def _build_terms(alpha: float, tau_f: float, n_half: int):
    """Weights and rates for the 2*n_half+1 sinc nodes."""
    step = np.pi / np.sqrt(n_half)
    m = np.arange(-n_half, n_half + 1, dtype=np.float64)
    ls = _log1p_exp(m * step)
    # 1/(1+e^(-s)) to about 1 ulp
    sigma = expit(m * step)
    scale = (alpha + 1.0) ** (1.0 + alpha)
    weights = (tau_f ** (-1.0 - alpha) * scale * step / gamma(alpha + 1.0)
               * ls ** alpha * sigma)
    rates = (alpha + 1.0) / tau_f * ls
    return weights, rates


def _check_alpha_tau_f(alpha: float, tau_f: float) -> None:
    # written so that NaN fails each check
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < tau_f < np.inf:
        raise ValueError(f"tau_f must be finite and positive, got {tau_f}")


def build_soe(alpha: float, tau_f: float, epsilon: float) -> SOEApproximation:
    """Smallest odd term count whose bound meets epsilon on [tau_f, inf)."""
    _check_alpha_tau_f(alpha, tau_f)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n_half = 1
    while soe_error_bound(alpha, tau_f, n_half) > epsilon:
        n_half += 1
        if 2 * n_half + 1 > MAX_TERMS:
            raise ValueError(
                f"epsilon = {epsilon:.3e} needs more than {MAX_TERMS} terms "
                f"at tau_f = {tau_f:.3e}; loosen the tolerance")
    return build_soe_for_terms(alpha, tau_f, 2 * n_half + 1)


def build_soe_for_terms(alpha: float, tau_f: float, n_terms: int) -> SOEApproximation:
    """Build with a fixed odd term count; epsilon becomes the realized bound."""
    _check_alpha_tau_f(alpha, tau_f)
    if n_terms < 3 or n_terms % 2 == 0:
        raise ValueError(f"term count must be odd and >= 3, got {n_terms}")
    if n_terms > MAX_TERMS:
        raise ValueError(f"term count {n_terms} exceeds the cap {MAX_TERMS}")
    n_half = (n_terms - 1) // 2
    weights, rates = _build_terms(alpha, tau_f, n_half)
    eps = soe_error_bound(alpha, tau_f, n_half)
    soe = SOEApproximation(alpha=alpha, tau_f=tau_f, epsilon=float(eps),
                           weights=weights, rates=rates, n_terms=n_terms)
    # the sinc nodes always put the slowest rate far below 0.5/tau_f, so
    # this is a note for debugging, not a sign that anything is wrong
    if soe.gamma_min < 0.5 / tau_f:
        log.debug(
            "slowest SOE rate %.3e is below 0.5/tau_f = %.3e; "
            "long-history decay estimates are weaker than nominal",
            soe.gamma_min, 0.5 / tau_f)
    return soe


def soe_residual(soe: SOEApproximation, t_max: float) -> float:
    """Max kernel error on a grid of RESIDUAL_POINTS log-spaced points over
    [tau_f, t_max]."""
    if t_max <= soe.tau_f:
        raise ValueError("t_max must exceed tau_f")
    grid = np.geomspace(soe.tau_f, t_max, RESIDUAL_POINTS)
    return float(soe.kernel_error(grid).max())


@dataclass(frozen=True)
class StepCoefficients:
    """Per-term linear-interpolation update weights over one step tau.

    The history recurrence psi <- e^(-lambda tau) psi + c1 v_old + c2 v_new
    uses c1 = e^(-lt)(1 - e^(-lt) - lt e^(-lt)) / (l^2 tau) and
    c2 = e^(-lt)(-1 + e^(-lt) + lt) / (l^2 tau) with lt = lambda tau.
    """

    tau: float
    decay: np.ndarray   # e^(-lambda_j tau)
    c1: np.ndarray
    c2: np.ndarray


def step_coefficients(soe: SOEApproximation, tau: float) -> StepCoefficients:
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    lam = soe.rates
    x = lam * tau
    decay = np.exp(-x)
    c1 = np.empty_like(x)
    c2 = np.empty_like(x)
    # the bracketed numerators are ~x^2/2 and cancel catastrophically in
    # naive form; below the switch point use series accurate past 1e-13,
    # above it expm1 keeps the subtraction benign
    small = x < 2e-2
    xs = x[small]
    # 1 - e^-x - x e^-x = sum (-1)^k (k+1)/(k+2)! x^(k+2)
    # -1 + e^-x + x     = sum (-1)^k 1/(k+2)!     x^(k+2)
    c1[small] = decay[small] * tau * (
        0.5 - xs * (1.0 / 3.0 - xs * (0.125 - xs * (
            1.0 / 30.0 - xs * (1.0 / 144.0 - xs / 840.0)))))
    c2[small] = decay[small] * tau * (
        0.5 - xs * (1.0 / 6.0 - xs * (1.0 / 24.0 - xs * (
            1.0 / 120.0 - xs * (1.0 / 720.0 - xs / 5040.0)))))
    xl = x[~small]
    dl = decay[~small]
    em = -np.expm1(-xl)                 # 1 - e^-x without cancellation
    c1[~small] = dl * (em - xl * dl) / (xl * xl) * tau
    c2[~small] = dl * (xl - em) / (xl * xl) * tau
    return StepCoefficients(tau=float(tau), decay=decay, c1=c1, c2=c2)


def validate_epsilon(alpha: float, epsilon: float, t_final: float,
                     n_fine_steps: int) -> float:
    """Feasibility ceiling for epsilon at horizon T: the kernel perturbation
    must stay below the scheme's own discretization error.

    n_fine_steps is the total fine step count M_f = T / tau_f. Returns the
    ceiling min(alpha * M_f^alpha, 1/2) / T^(1+alpha). Raises
    ValueError if epsilon exceeds it.
    """
    m_f = float(n_fine_steps)
    ceiling = min(alpha * m_f ** alpha / t_final ** (1.0 + alpha),
                  0.5 / t_final ** (1.0 + alpha))
    if epsilon > ceiling:
        raise ValueError(
            f"epsilon = {epsilon:.3e} exceeds the feasibility ceiling "
            f"{ceiling:.6e} for T = {t_final}; tighten epsilon")
    return ceiling


def dump_soe_table(soe: SOEApproximation, stream) -> None:
    """CSV rows (j, omega_j, lambda_j), 17 significant digits."""
    stream.write("j,omega,lambda\n")
    for j, (w, lam) in enumerate(zip(soe.weights, soe.rates)):
        stream.write(f"{j},{w:.17g},{lam:.17g}\n")
