"""Parareal iteration over the exponential-sum scheme, on a multiscale
space or on the fine grid (msfem.fine_space), through the same code.

The time axis splits into M_c slabs of width tau_c. The coarse propagator G
is one implicit tau_c step, to (n + 1) tau_c; the fine propagator F runs
m_sub implicit tau_f steps through slab n on the sequential march's clock,
solvers.slab_instants(n, m_sub, tau_f). Both are methods of the context,
solvers.PropagatorContext (coarse and fine). Each iteration recomputes,
slab by slab, the fine and coarse propagations of the previous iterate,
forms the jumps S = F_1 - G_1, then sweeps sequentially:

    U_k^n = S(T^{n-1}, U_{k-1}^{n-1}; Phi_{k-1}^{n-1})
          + G(T^{n-1}, U_k^{n-1}; Phi_k^{n-1})_1,
    Phi_k^n rebuilt from (Phi_k^{n-1}, U_k^{n-1}, U_k^n) with the tau_c
    recurrence.

A history Phi is a plain (n_terms, dof) array of the exponential-sum
integrals (see stepping.propagate_history_with). Every iterate, like the
sequential march (F chained), is one PropagatorContext.chain of slab steps
(U, Phi) -> (U', Phi'), which also lifts it and checks it is finite. The
chain holds one history at a time; each sweep records the boundary
histories its step returns, which the next iteration's jumps read. Iterate
0 chains G with the histories G returns; every update (S + G) and the
hybrid fixed point (F) rebuild Phi with the tau_c recurrence (_rebuilt):
propagate_history_with over the 2-state stack (U, U'), the update that ends
every block of a march, so a rebuild at tau_c = tau_f is the march's own.
The kernel's t^(-alpha) initial-data term always uses the global clock and
the global initial vector; slabs never restart it.

The context is built for all n_slabs * m_sub fine steps; the solvers module
docstring explains its two paths. The boundary values and histories the
next iteration reads stay in its step coordinates; fine_propagate and
coarse_propagate take and return ms coordinates.

On the modal path F's solution at the end of slab n is exactly affine in
the iterate, rho * U + sum_j sigma_j * Phi_j + r_n
(PropagatorContext.fine_end), so jump and hybrid_fixed_point read it off a
map built once per context instead of marching. fine_propagate,
coarse_propagate and the factorized path march step by step.

Loads come in blocks (PropagatorContext.load_block): one for the coarse
instants, made once per context, and one per fine slab march, as in the
sequential march. The modal map reads each fine block once; on the
factorized path every jump makes its slab's block again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .msfem import MultiscaleSpace
from .soe import SOEApproximation
from .solvers import PropagatorContext, ProblemSpec, march_context
from .stepping import propagate_history_with


def build_context(spec: ProblemSpec, space: MultiscaleSpace,
                  soe: SOEApproximation) -> PropagatorContext:
    """The propagators of spec on space (solvers.march_context): on the
    factorized path this factorizes the tau_c and tau_f steps once."""
    return march_context(spec, space, soe, (spec.tau_c, spec.tau_f))


def coarse_propagate(ctx: PropagatorContext, n: int, U: np.ndarray,
                     Phi: np.ndarray):
    """One tau_c step from T^n; returns (solution, history at T^{n+1}).
    Arguments and results are in ms coordinates."""
    v, psi = ctx.coarse(n, ctx.to_step(U), ctx.to_step(Phi))
    return ctx.to_ms(v), ctx.to_ms(psi)


def fine_propagate(ctx: PropagatorContext, n: int, U: np.ndarray,
                   Phi: np.ndarray):
    """m_sub tau_f steps through slab n; global clock for the kernel terms.
    Arguments and results are in ms coordinates."""
    v, psi = ctx.fine(n, ctx.to_step(U), ctx.to_step(Phi))
    return ctx.to_ms(v), ctx.to_ms(psi)


def jump(ctx: PropagatorContext, n: int, U: np.ndarray,
         Phi: np.ndarray) -> np.ndarray:
    """Correction S = (fine - coarse) solution over one slab.

    The iteration's slab step, so U, Phi and S are in step coordinates
    (ms coordinates on the factorized path); PararealState holds its inputs.
    """
    return ctx.fine_end(n, U, Phi) - ctx.coarse(n, U, Phi)[0]


@dataclass(frozen=True)
class PararealState:
    iteration: int
    solutions: np.ndarray          # (n_slabs + 1, ms_dof)
    histories: tuple               # (n_terms, dof) per boundary, step coords
    err: float                     # mean l2 jump from the previous iterate
    step_solutions: np.ndarray     # solutions in step coordinates (the same
                                   # array on the factorized path)


def _sweep(ctx: PropagatorContext, iteration: int, step: Callable,
           prev: Optional[PararealState] = None) -> PararealState:
    """The state of the chain (U^{n+1}, Phi^{n+1}) = step(n, U^n, Phi^n)
    (PropagatorContext.chain), with the boundary histories the step
    returns; err is measured against prev."""
    histories = [ctx.fresh_history()]

    def recorded(n, U, Phi):
        v, phi = step(n, U, Phi)
        histories.append(phi)
        return v, phi
    U, solutions = ctx.chain(recorded, f"solution at iteration {iteration}")
    err = np.inf if prev is None else float(np.mean(
        np.linalg.norm(solutions[1:] - prev.solutions[1:], axis=1)))
    return PararealState(iteration=iteration, solutions=solutions,
                         histories=tuple(histories), err=err,
                         step_solutions=U)


def _rebuilt(ctx: PropagatorContext, advance: Callable) -> Callable:
    """The chain step of U^{n+1} = advance(n, U^n, Phi^n), with Phi^{n+1}
    rebuilt from (Phi^n, U^n, U^{n+1}) by the tau_c recurrence."""
    def step(n, U, Phi):
        v = advance(n, U, Phi)
        return v, propagate_history_with(Phi, ctx.coarse_coeffs,
                                         np.stack((U, v)))
    return step


def initial_coarse_sweep(ctx: PropagatorContext) -> PararealState:
    """Iterate 0: G chained, with the histories G returns."""
    return _sweep(ctx, 0, ctx.coarse)


def wemp_iteration(ctx: PropagatorContext, prev: PararealState,
                   phase_log: Optional[dict] = None) -> PararealState:
    """One parareal update from the previous iterate.

    The slab jumps are computed one after another in the calling thread. If
    phase_log is a dict it receives the wall times of the slab phase (under
    the key "slab_s") and of the sequential sweep.
    """
    t0 = time.perf_counter()
    jumps = [jump(ctx, n, prev.step_solutions[n], prev.histories[n])
             for n in range(ctx.n_slabs)]
    t1 = time.perf_counter()
    state = _sweep(ctx, prev.iteration + 1, _rebuilt(
        ctx, lambda n, u, phi: jumps[n] + ctx.coarse(n, u, phi)[0]), prev)
    if phase_log is not None:
        phase_log["slab_s"] = t1 - t0
        phase_log["sweep_s"] = time.perf_counter() - t1
    return state


def wemp_solve(ctx: PropagatorContext, delta: float = 1e-8, k_max: int = 10,
               workers: int = 1):
    """Full iteration history plus per-phase timings.

    Returns (states, timings): states[k] is the iterate after k corrections
    (states[0] is the coarse sweep); timings is a list of dicts with the
    slab-phase ("slab_s") and sweep wall times per iteration. Only the
    last state keeps its boundary histories, the one input the next
    iteration needs; earlier states hold histories=(). The solve makes its
    own loads and, on the modal path, its own modes and slab map, so it
    costs the same whether or not ctx has solved before. `workers`
    is ignored: the slabs run serially, and the keyword stays only because
    perfbench/workloads.py passes it.
    """
    ctx = replace(ctx)
    t0 = time.perf_counter()
    states = [initial_coarse_sweep(ctx)]
    timings = [{"k": 0, "slab_s": 0.0, "sweep_s": time.perf_counter() - t0}]
    for k in range(1, k_max + 1):
        log = {"k": k}
        new = wemp_iteration(ctx, states[-1], phase_log=log)
        log["err"] = new.err
        timings.append(log)
        states[-1] = replace(states[-1], histories=())
        states.append(new)
        if new.err <= delta:
            break
    return states, timings


def hybrid_fixed_point(ctx: PropagatorContext) -> PararealState:
    """The exact fixed point of the iteration: fine propagation inside each
    slab with the tau_c history rebuild at slab boundaries. Feeding this
    state through wemp_iteration reproduces it."""
    return _sweep(ctx, -1, _rebuilt(ctx, ctx.fine_end))


def write_iteration_csv(path, rows) -> None:
    """CSV rows (k, n, relL2_vs_reference, relEnergy_vs_reference, err)."""
    with open(path, "w") as fh:
        fh.write("k,n,relL2,relEnergy,err\n")
        for k, n, rl2, ren, err in rows:
            fh.write(f"{k},{n},{rl2:.17g},{ren:.17g},{err:.17g}\n")
