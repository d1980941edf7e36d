"""Sequential solvers for the time-fractional diffusion problem.

Three end-to-end integrators:

* reference_l1_solve: fine-space Galerkin with the full-history L1 derivative
  (the reference solution for all error studies);
* fine_soe_solve: fine-space Galerkin with the exponential-sum history,
  the march of multiscale_soe_solve on the fine space (msfem.fine_space);
* multiscale_soe_solve: the exponential-sum scheme in multiscale coordinates.

All run on uniform steps of size tau_f, slab by slab on one clock: slab n
steps through slab_instants(n, m_sub, tau_f), and a trajectory holds the
state at each slab boundary. The two exponential-sum solvers and the
parareal propagators march one loop, soe_march, once per slab, over one
implicit-step kernel, soe_implicit_step, so their arithmetic is identical.
soe_march reads the history in blocks of at most n_terms steps, cut within
each slab (stepping.history_weights): one product of the block's far
weights with its start history gives each step's far history, each step
adds a near window over the block's own states, and one product at the
block's end (stepping.propagate_history_with) advances the history; no
step passes over the (n_terms, dof) history by itself. reference_l1_solve
reads its full history a slab at a time the same way: one product of the
slab's weight rows with every earlier state, plus the slab's own states.
Homogeneous Dirichlet data is eliminated: the fine solvers work on free
dofs and the trajectories embed zeros back at boundary nodes.

Every exponential-sum march, sequential or parareal, on a multiscale space
or the fine one, steps through one PropagatorContext, the one owner of how
it steps; march_context builds it, projects u0 once and picks the path from
the march's total step count, the space's width n and the half-bandwidth b
of its step matrix (use_modes): modal coordinates for long marches over
spaces whose dense n x n arrays fit the storage budget, else ms coordinates
with one sparse factorization (fem.factorized_spd) per step size, made when
the context is built. Its fine propagator F marches one slab, and its chain
is the one loop over the slabs of a trajectory: of F for the sequential
march, of its own step for each parareal iterate. The chain holds one
history at a time; only parareal, whose next iteration reads them, keeps
every boundary history (parareal._sweep). ms_modes solves
K V = M V diag(mu), V^T M V = I, once per context, at its first step, and
checks it once; in c = V^T M u each step divides by
1/(tau^alpha Gamma(2 - alpha)) + mu_i, with the identity for the mass and
V^T b for a load, and a solution leaves modal coordinates once, as V c.
Against band-factorized sparse steps the decomposition costs about 380
sparse steps at 833 columns and 2800 at 3825, and a modal step saves about
0.63 and 0.47 of a sparse one (per-step march times, medians of 5 and 3,
with every BLAS call at OpenBLAS's default 2 threads on 2 cores, before
wemp._blas set all but the decomposition to one). A fine grid's step is
narrow (b = 64 at the desk's 3969 free dofs), so a fine march turns modal
only from 30,295 steps there, and at the scale grid's 16129 free dofs
never.
A march keeps its states and histories in these step coordinates and
converts only what it returns: an ms round trip per step would move the
answer, since V^T M V - I reaches 8e-8 on the desk space.

F takes one load block per slab (PropagatorContext.load_block): the
space's loads at the slab's instants (MultiscaleSpace.loads) and, on the
modal path, one dense product. A multiscale space takes them from one call
of f over the slab's instants (fem.assemble_loads) and one sparse
projection, the same numbers as basis.T @ assemble_load per instant; the
fine space takes one assemble_load per instant, as the L1 reference does.
On the modal path the context also folds a slab's fine steps into one
exact affine map, which parareal reads instead of marching
(PropagatorContext.fine_end).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.special import gamma

from ._blas import full_pools
from .fem import (SOLVE_RTOL, CoefficientField, OperatorPair, assemble_load,
                  factorized_spd, half_bandwidth, norms)
from .soe import SOEApproximation, StepCoefficients, step_coefficients
from .stepping import (history_weights, l1_coefficients, l1_known_weights,
                       propagate_history_with, soe_caputo_known_part)
from .msfem import MultiscaleSpace, fine_space

log = logging.getLogger(__name__)

L1_STATE_BUDGET_BYTES = 2_000_000_000


def check_l1_storage(n_steps: int, m_sub: int, n_free: int) -> None:
    """Raise ValueError when the L1 march's memory exceeds
    L1_STATE_BUDGET_BYTES: its full history, n_steps + 1 states of n_free
    floats, and one slab block (reference_l1_solve), m_sub far-history
    vectors of n_free floats and m_sub weight rows of up to n_steps."""
    history = (n_steps + 1) * n_free * 8
    block = m_sub * (n_free + n_steps) * 8
    if history + block > L1_STATE_BUDGET_BYTES:
        raise ValueError(
            f"the L1 march needs {(history + block) / 1e9:.1f} GB: "
            f"full-history storage needs {history / 1e9:.1f} GB and one "
            f"slab block {block / 1e9:.1f} GB; use the exponential-sum "
            "solver instead")


@dataclass(frozen=True)
class ProblemSpec:
    alpha: float
    T: float
    tau_f: float
    tau_c: float
    u0: Callable                      # (x, y) -> nodal values
    # (x, y, t) -> nodal values, or None for zero; a multiscale march calls
    # it with (n_nodes, 1) coordinate columns and a row of instants t, and
    # the result must broadcast to (n_nodes, len(t)) (fem.assemble_loads);
    # the fine marches call it with node coordinates and a scalar t
    f: Optional[Callable]
    kappa: Optional[CoefficientField]
    level: int
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        # a comparison with NaN is false, so this refuses NaN and inf too
        if not all(0.0 < x < np.inf for x in (self.T, self.tau_c, self.tau_f)):
            raise ValueError("T, tau_c, tau_f must be finite and positive")
        if abs(self.n_coarse * self.tau_c - self.T) > 1e-9 * self.T:
            raise ValueError("tau_c must divide T into an integer step count")
        if abs(self.m_sub * self.tau_f - self.tau_c) > 1e-9 * self.tau_c:
            raise ValueError("tau_f must divide tau_c into an integer substep count")
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")

    @property
    def n_coarse(self) -> int:
        return int(round(self.T / self.tau_c))

    @property
    def m_sub(self) -> int:
        return int(round(self.tau_c / self.tau_f))

    @property
    def n_fine_total(self) -> int:
        return self.n_coarse * self.m_sub

    def nodal_u0(self, mesh) -> np.ndarray:
        """u0 at every fine node of mesh."""
        coords = mesh.fine_node_coords
        return np.asarray(self.u0(coords[:, 0], coords[:, 1]), dtype=np.float64)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray        # (n_times, dof)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if self.states.shape[0] != self.times.size:
            raise ValueError("one state per time required")


def slab_instants(n: int, m_sub: int, tau: float) -> list:
    """The instants (n m_sub + j + 1) tau of the m_sub steps of size tau
    through slab n, on the global clock, as Python floats."""
    return [(n * m_sub + j + 1) * tau for j in range(m_sub)]


def _boundary_times(spec: ProblemSpec) -> np.ndarray:
    """The slab boundaries 0, tau_c, ..., T."""
    return np.arange(0, spec.n_fine_total + 1, spec.m_sub) * spec.tau_f


def _load_free(spec, mesh, ops, t):
    if spec.f is None:
        return 0.0
    return assemble_load(mesh, ops, spec.f, t)[ops.free_dofs]


def _embed(free_values: np.ndarray, n_nodes: int, free: np.ndarray) -> np.ndarray:
    out = np.zeros((free_values.shape[0], n_nodes))
    out[:, free] = free_values
    return out


def factorized_step(mass, stiffness, tau: float, alpha: float):
    """Solver for the implicit-step matrix M / (tau^alpha Gamma(2 - alpha))
    + A of the exponential-sum scheme.

    scipy's sparse sum keeps room for nnz(M) + nnz(A) entries, and the
    solver's residual check holds the matrix for its life, so the matrix
    is copied to its exact size first.
    """
    step = mass / (tau ** alpha * float(gamma(2 - alpha))) + stiffness
    return factorized_spd(step.copy())


def use_modes(n_steps: int, n_columns: int, half_band: int) -> bool:
    """Whether a march of n_steps steps over n = n_columns columns, whose
    step matrix has lower half-bandwidth b = half_band, runs in modal
    coordinates: when n_steps >= max(n, n^2 / (8 (b + 1))) and the four
    dense n x n arrays the decomposition holds at its peak (ms_modes,
    measured at 441 and 833 columns) fit L1_STATE_BUDGET_BYTES, that is up
    to 7905 columns.

    The decomposition costs O(n^3) and a band-factorized step O(n b); the
    band term puts the crossover at 6329 steps for 3825 columns (b = 288;
    measured about 5960). On smaller spaces the band term is early, as the
    decomposition's check and the dense product that takes each load into
    modes weigh more there: the modal march first won at about 42 steps
    over 81 columns (b = 44, band term 18), 90 over 153 (b = 84, 34), past
    800 over 441 (b = 80, 300) and, in two harnesses, at 596 and near 780
    over 833 (b = 152, 567). The floor n is nearer the first three than
    the band term, and about as near the last. Every crossover here is a
    median of 5 to 7 marches of 10 slabs with a load, with every BLAS call
    at OpenBLAS's default 2 threads on 2 cores, before wemp._blas set all
    but the decomposition to one.
    """
    return (n_steps >= n_columns
            and 8 * (half_band + 1) * n_steps >= n_columns ** 2
            and 4 * 8 * n_columns ** 2 <= L1_STATE_BUDGET_BYTES)


def ms_modes(space: MultiscaleSpace) -> tuple:
    """(mu, V): the generalized eigenpairs K V = M V diag(mu) of
    (space.ms_stiffness, space.ms_mass), mu ascending and V^T M V = I,
    checked once.

    Raises if the backward error |K v - mu M v| / ((|K| + |mu| |M|) |v|) of
    any eigenpair exceeds SOLVE_RTOL, the bound every factorized solve
    meets.
    """
    K, M = space.ms_stiffness, space.ms_mass
    # Fortran-order throwaway copies let LAPACK work in place: 11 MB less
    # peak memory at 833 columns, the same eigenpairs bit for bit. eigh
    # runs on every BLAS thread (wemp._blas): on 2 cores it takes 0.11 s
    # at 833 columns and 5.9 s at 3825, against 0.16 and 10.1 s at one
    # thread (medians of 7 and 3, alternating in one process)
    with full_pools():
        mu, V = scipy.linalg.eigh(K.toarray(order="F"),
                                  M.toarray(order="F"),
                                  overwrite_a=True, overwrite_b=True)
    res = np.linalg.norm(K @ V - (M @ V) * mu, axis=0)
    k_norm = float(np.abs(K).sum(axis=1).max())
    m_norm = float(np.abs(M).sum(axis=1).max())
    worst = float(np.max(res / ((k_norm + np.abs(mu) * m_norm)
                                * np.linalg.norm(V, axis=0))))
    if not worst <= SOLVE_RTOL:
        raise RuntimeError(
            f"generalized eigendecomposition failed its check: backward "
            f"error {worst:.3e}, rtol = {SOLVE_RTOL:.1e}")
    log.debug("modal march over %d columns: mu in [%.4g, %.4g], largest "
              "eigenpair backward error %.2e", mu.size, mu[0], mu[-1], worst)
    return mu, V


@dataclass(frozen=True)
class PropagatorContext:
    """How a march of one problem on a space steps, in its step
    coordinates: ms coordinates, or modal ones when `modal` (see the module
    docstring).

    The march runs n_slabs slabs of m_sub fine steps. fine(n, ...) is the
    fine propagator F over slab n, and the sequential march is
    chain(fine, ...); coarse(n, ...) is parareal's one tau_c step G.

    On the factorized path `solves` holds the factorized_step of each step
    size. The modes, u0 in step coordinates, the coarse loads and the slab
    map are made at first use and kept by this object only, so replace(ctx)
    starts without them while it shares any factorizations.
    """

    space: MultiscaleSpace
    soe: SOEApproximation
    coarse_coeffs: StepCoefficients
    fine_coeffs: StepCoefficients
    u0: np.ndarray             # global initial ms vector
    f: Optional[Callable]
    m_sub: int
    n_slabs: int
    modal: bool
    solves: dict               # step size -> factorized_step; empty if modal

    @property
    def tau_c(self) -> float:
        return self.coarse_coeffs.tau

    @property
    def tau_f(self) -> float:
        return self.fine_coeffs.tau

    @cached_property
    def _modes(self) -> tuple:
        return ms_modes(self.space)

    @cached_property
    def _u0_step(self) -> np.ndarray:
        return self.to_step(self.u0)

    @cached_property
    def _coarse_loads(self) -> np.ndarray:
        """The loads at the slab ends (n + 1) tau_c, one row per slab."""
        return self.load_block([(n + 1) * self.tau_c
                                for n in range(self.n_slabs)])

    def fresh_history(self) -> np.ndarray:
        """The zero history, (n_terms, ms_dof)."""
        return np.zeros((self.soe.n_terms, self.u0.size))

    def step(self, tau: float) -> tuple:
        """(solve, mass) of the step of size tau for soe_march; mass None
        stands for the identity of modal coordinates."""
        if not self.modal:
            return self.solves[tau], self.space.ms_mass
        alpha = self.soe.alpha
        diagonal = (1.0 / (tau ** alpha * float(gamma(2 - alpha)))
                    + self._modes[0])
        return (lambda rhs: rhs / diagonal), None

    def to_step(self, u: np.ndarray) -> np.ndarray:
        """Step coordinates of an ms vector, history or stack of vectors."""
        return (u @ self.space.ms_mass) @ self._modes[1] if self.modal else u

    def to_ms(self, c: np.ndarray) -> np.ndarray:
        """ms coordinates of step coordinates, the inverse of to_step."""
        return c @ self._modes[1].T if self.modal else c

    def load_block(self, times) -> np.ndarray:
        """basis.T @ assemble_load(..., f, t) in step coordinates for each
        instant t of times, one row each, zeros when f is None: the space's
        loads (MultiscaleSpace.loads) and, in modal coordinates, one dense
        product."""
        if self.f is None:
            return np.zeros((len(times), self.space.n_columns))
        block = self.space.loads(self.f, times).T
        return block @ self._modes[1] if self.modal else block

    def coarse(self, n: int, U: np.ndarray, Phi: np.ndarray) -> tuple:
        """G: one tau_c step from (U, Phi) at the start of slab n, to
        (n + 1) tau_c; returns (solution, history), in step coordinates."""
        return soe_march(*self.step(self.tau_c), self.soe, self.coarse_coeffs,
                         U, self._u0_step, Phi, [(n + 1) * self.tau_c],
                         self._coarse_loads[n:n + 1])

    def fine(self, n: int, U: np.ndarray, Phi: np.ndarray) -> tuple:
        """F: the m_sub tau_f steps through slab_instants(n, m_sub, tau_f)
        from (U, Phi), with one load block; returns (solution, history), in
        step coordinates."""
        instants = slab_instants(n, self.m_sub, self.tau_f)
        return soe_march(*self.step(self.tau_f), self.soe, self.fine_coeffs,
                         U, self._u0_step, Phi, instants,
                         self.load_block(instants))

    def chain(self, step: Callable, what: str) -> tuple:
        """(U, solutions) of (U[n + 1], Phi[n + 1]) = step(n, U[n], Phi[n])
        over every slab from u0 and the zero history, in step coordinates;
        solutions is U lifted to ms ones, with the exact u0 in row 0.
        Raises, naming `what`, if a boundary value is not finite. It holds
        one history at a time: a step whose caller needs every boundary
        history records them (parareal._sweep)."""
        U = np.empty((self.n_slabs + 1, self.u0.size))
        U[0] = self._u0_step
        phi = self.fresh_history()
        for n in range(self.n_slabs):
            U[n + 1], phi = step(n, U[n], phi)
        bad = np.flatnonzero(~np.isfinite(U).all(axis=1))
        if bad.size:
            raise RuntimeError(f"non-finite {what}, slab boundary {bad[0]} "
                               f"(t = {bad[0] * self.tau_c:.6g})")
        solutions = self.to_ms(U)
        solutions[0] = self.u0
        return U, solutions

    def fine_end(self, n: int, U: np.ndarray, Phi: np.ndarray) -> np.ndarray:
        """The solution of fine(n, U, Phi): read off the slab map on the
        modal path, marched on the factorized one."""
        if not self.modal:
            return self.fine(n, U, Phi)[0]
        rho, sigma, offsets = self._slab_map
        return rho * U + np.einsum("jd,jd->d", sigma, Phi) + offsets[n]

    @cached_property
    def _slab_map(self) -> tuple:
        """(rho, sigma, offsets): the modal march of fine(n, ...) through
        every slab n as one affine map.

        From start state (U, Phi) the solution after slab n is
        rho * U + sum_j sigma_j * Phi_j + offsets[n], exactly up to
        rounding, since modes do not couple. One backward pass over the
        step recurrence gives rho, sigma and the weight g/d of each step's
        forcing q = u0 t^(-alpha) / Gamma(1 - alpha) + load; offsets[n]
        contracts the weights with slab n's forcing.
        """
        alpha, coeffs = self.soe.alpha, self.fine_coeffs
        scale = 1.0 / (coeffs.tau ** alpha * float(gamma(2 - alpha)))
        d = scale + self._modes[0]
        g1 = float(gamma(1 - alpha))
        beta = alpha * self.soe.weights / g1
        rho, sigma = np.ones_like(d), np.zeros((self.soe.n_terms, d.size))
        weights = np.empty((self.m_sub, d.size))
        for s in reversed(range(self.m_sub)):
            weights[s] = (rho + coeffs.c2 @ sigma) / d
            rho = alpha * scale * weights[s] + coeffs.c1 @ sigma
            sigma *= coeffs.decay[:, None]
            sigma += np.outer(beta, weights[s])
        offsets = np.empty((self.n_slabs, d.size))
        for n in range(self.n_slabs):
            instants = slab_instants(n, self.m_sub, self.tau_f)
            kernel = np.array([1.0 / t ** alpha for t in instants]) / g1
            offsets[n] = (kernel @ weights) * self._u0_step + np.einsum(
                "sd,sd->d", weights, self.load_block(instants))
        return rho, sigma, offsets


def march_context(spec: ProblemSpec, space: MultiscaleSpace,
                  soe: SOEApproximation, taus) -> PropagatorContext:
    """The context of a march of spec on space, from space.project(u0),
    on the path use_modes picks for its n_fine_total steps and the step
    matrix's half-bandwidth, that of ms_mass and ms_stiffness together.
    The factorized path factorizes each distinct step size in taus once,
    here; the modal path defers its eigendecomposition to first use."""
    u0 = space.project(spec.nodal_u0(space.mesh))
    half_band = max(half_bandwidth(space.ms_mass),
                    half_bandwidth(space.ms_stiffness))
    modal = use_modes(spec.n_fine_total, space.n_columns, half_band)
    solves = {} if modal else {
        tau: factorized_step(space.ms_mass, space.ms_stiffness, tau, soe.alpha)
        for tau in dict.fromkeys(taus)}
    return PropagatorContext(space=space, soe=soe,
                             coarse_coeffs=step_coefficients(soe, spec.tau_c),
                             fine_coeffs=step_coefficients(soe, spec.tau_f),
                             u0=u0, f=spec.f, m_sub=spec.m_sub,
                             n_slabs=spec.n_coarse, modal=modal, solves=solves)


def soe_implicit_step(solve, mass, soe, coeffs, v_curr, v0, t_next,
                      weighted: np.ndarray, load_vec) -> np.ndarray:
    """One implicit step of the exponential-sum scheme, from the weighted
    history omega . psi of the step (stepping.history_weights); returns
    v_next.

    Solves (M / (tau^alpha c_alpha) + A) v_next = M @ known + F. `solve`
    must be the factorization of that left matrix; mass None stands for the
    identity of modal coordinates.
    """
    known = soe_caputo_known_part(weighted, soe, coeffs.tau, v_curr, v0,
                                  t_next)
    return solve((known if mass is None else mass @ known) + load_vec)


def soe_march(solve, mass, soe, coeffs, v, v0, psi: np.ndarray, instants,
              loads):
    """soe_implicit_step from state (v, psi) through each float of the list
    `instants`, with the load vector that loads yields for each in turn;
    returns the final (v, psi).

    The march reads its history in blocks of at most n_terms steps: one
    product of the block's far weights with psi gives every step's weighted
    history but for the block's own states, each step adds those through
    its near weights, and propagate_history_with advances psi over the
    block in one product.
    """
    steps = zip(instants, loads, strict=True)
    for start in range(0, len(instants), soe.n_terms):
        n_block = min(soe.n_terms, len(instants) - start)
        far, near = history_weights(soe, coeffs, n_block)
        weighted = far @ psi
        states = np.empty((n_block + 1, np.size(v)))
        states[0] = v
        for k, (t, load) in enumerate(itertools.islice(steps, n_block)):
            weighted[k] += near[k, :k + 1] @ states[:k + 1]
            v = states[k + 1] = soe_implicit_step(
                solve, mass, soe, coeffs, v, v0, t, weighted[k], load)
        psi = propagate_history_with(psi, coeffs, states)
    next(steps, None)              # raises if loads outlast instants
    return v, psi


def reference_l1_solve(spec: ProblemSpec, mesh, ops: OperatorPair
                       ) -> Trajectory:
    """Fine Galerkin solution with the full-history L1 derivative, at the
    slab boundaries.

    Slab by slab, one product of the slab's weight rows with the states
    before it gives each step's far history; each step adds the slab's own
    states.
    """
    tau = spec.tau_f
    n_steps, m_sub = spec.n_fine_total, spec.m_sub
    free = ops.free_dofs
    n_free = free.size
    check_l1_storage(n_steps, m_sub, n_free)
    coeffs = l1_coefficients(spec.alpha, n_steps)
    scale = tau ** spec.alpha * coeffs.c_alpha
    M_ff = ops.mass_free
    solve = factorized_step(M_ff, ops.stiffness_free, tau, spec.alpha)

    states = np.empty((n_steps + 1, n_free))
    states[0] = spec.nodal_u0(mesh)[free]
    for first in range(0, n_steps, m_sub):
        rows = np.zeros((m_sub, first + m_sub))
        for k in range(m_sub):
            rows[k, :first + k + 1] = l1_known_weights(coeffs, first + k)
        far = rows[:, :first + 1] @ states[:first + 1]
        for k in range(m_sub):
            n = first + k
            known = (far[k] + rows[k, first + 1:n + 1]
                     @ states[first + 1:n + 1]) / scale
            rhs = M_ff @ known + _load_free(spec, mesh, ops, (n + 1) * tau)
            states[n + 1] = solve(rhs)

    return Trajectory(times=_boundary_times(spec),
                      states=_embed(states[::m_sub], ops.mass.shape[0],
                                    free))


def fine_soe_solve(spec: ProblemSpec, mesh, ops: OperatorPair,
                   soe: SOEApproximation) -> Trajectory:
    """Fine Galerkin solution with the exponential-sum history: O(N_exp)
    state vectors instead of the full history. The march of
    multiscale_soe_solve on the fine space (msfem.fine_space), from u0 at
    the free dofs with zero history, embedded with zeros at the boundary
    nodes. Raises if a stored state is not finite."""
    ctx = march_context(spec, fine_space(mesh, ops), soe, (spec.tau_f,))
    _, states = ctx.chain(ctx.fine, "fine state")
    return Trajectory(times=_boundary_times(spec),
                      states=_embed(states, ops.mass.shape[0], ops.free_dofs))


def multiscale_soe_solve(spec: ProblemSpec, space: MultiscaleSpace,
                         soe: SOEApproximation) -> Trajectory:
    """Exponential-sum scheme in multiscale coordinates: chain(fine, ...) of
    march_context, from u0 with zero history.

    States are ms-coefficient vectors; lift with space.basis @ for
    fine-space error measurement. The initial state is the mass-orthogonal
    projection of u0. Raises if a stored state is not finite.
    """
    ctx = march_context(spec, space, soe, (spec.tau_f,))
    _, states = ctx.chain(ctx.fine, "multiscale state")
    return Trajectory(times=_boundary_times(spec), states=states)


class _PointMesh:
    """Single-node stand-in so the PDE solvers run scalar problems."""

    fine_node_coords = np.array([[0.0, 0.0]])
    n_nodes = 1


def single_dof_setup(rate: float = 1.0):
    """(mesh, ops) pair for the scalar equation D^alpha u = -rate u."""
    ops = OperatorPair(mass=sp.csr_matrix(np.array([[1.0]])),
                       stiffness=sp.csr_matrix(np.array([[rate]])),
                       free_dofs=np.array([0]))
    return _PointMesh(), ops


def relative_errors_percent(states: np.ndarray, ref_states: np.ndarray,
                            ops: OperatorPair):
    """Per-time relative L2 and energy errors, in percent, against a
    reference trajectory sampled at the same times (both in fine space)."""
    if states.shape != ref_states.shape:
        raise ValueError("trajectories must be sampled identically")
    rel = np.empty((2, states.shape[0]))       # (L2, energy) per time
    for i, (v, r) in enumerate(zip(states, ref_states)):
        for j, (num, den) in enumerate(zip(norms(ops, v - r), norms(ops, r))):
            rel[j, i] = 100.0 * num / den if den > 0 else (
                0.0 if num == 0 else np.inf)
    return rel[0], rel[1]


def write_error_csv(path, times, rel_l2, rel_energy) -> None:
    with open(path, "w") as fh:
        fh.write("t,relL2,relEnergy\n")
        for t, a, b in zip(times, rel_l2, rel_energy):
            fh.write(f"{t:.17g},{a:.17g},{b:.17g}\n")
