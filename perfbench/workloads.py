"""The benchmark workloads: one problem set-up, the timed marches, the gates.

Every workload solves the acceptance problem family: alpha = 0.5, level 2,
epsilon = 1e-2, tau_f = 1e-3, contrast-1e4 square inclusions of 4x4 fine
cells, u0 = x(1-x)y(1-y) and f = xyt, both scaled by the run's amplitude.

* desk-parareal: the demos/configs/wemp_convergence.ini problem (8x8 coarse
  cells, 8 refinements, 16 inclusions, T = 1, tau_c = 0.1, 10 slabs, 1000
  fine steps) through wemp_solve with k_max = 3 and delta = 0, against
  reference_l1_solve. Parareal dominates, so slab, sweep, load and per-step
  costs show here.
* sequential-march: the same problem through reference_l1_solve,
  fine_soe_solve and multiscale_soe_solve, no parareal. It measures the
  shared stepping core three ways and gives the sequential baseline that
  parareal has to beat; a parareal-only change must read as no change.
* scale-setup: 16x16 coarse cells, 8 refinements, 64 inclusions, T = 0.05,
  tau_c = 0.01 (5 slabs, 50 fine steps) through wemp_solve with k_max = 1,
  against fine_soe_solve. Set-up (local solves, Gram product, rank filter,
  dense factorizations of 3825 columns) dominates, and so does memory.

Calls go through the module attributes (`msfem.assemble_space`, ...) so that
a tracer installed over the wemp modules sees them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from wemp import experiments, fem, mesh as wmesh, msfem, parareal, soe as wsoe, solvers

ALPHA = 0.5
EPSILON = 1e-2
LEVEL = 2
TAU_F = 1e-3
CONTRAST = 1e4
INCLUSION_SIZE = 4

# Gates reused from the repository's acceptance checks and CLI.
REL_L2_GATE_PCT = 10.0          # criterion 5 and `wemp run --assert`
CONTRACTION_GATE = 5.0          # criterion 5: err(1)/err(3)
SLAB_GAP_GATE = 1e-12           # criterion 5: slab 1 equals fine_propagate
SOE_GAP_GATE_PCT = 1.0          # soe-accuracy --assert gate for alpha >= 0.5
# assemble_space raises below this same floor, so a low share fails the run
# through that error before this gate sees it; the gate restates it
KEPT_SHARE_GATE = 0.5

@dataclass(frozen=True)
class Workload:
    name: str
    coarse_divisions: int
    refinements: int
    inclusions: int
    T: float
    tau_c: float
    k_max: int                 # parareal iterations; 0 runs no parareal
    reference: str             # "l1" or "soe"


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-parareal", 8, 8, 16, 1.0, 0.1, 3, "l1"),
        Workload("sequential-march", 8, 8, 16, 1.0, 0.1, 0, "l1"),
        Workload("scale-setup", 16, 8, 64, 0.05, 0.01, 1, "soe"),
    )
}


def amplitude_for(seed: int) -> float:
    """Data amplitude in [0.5, 1.5) drawn from the run seed.

    The problem is linear, so the amplitude changes every bit of every
    answer while leaving sizes, work and relative errors as they are.
    """
    return 0.5 + float(np.random.default_rng(seed).random())


@dataclass
class Setup:
    mesh: object
    kappa: object
    ops: object
    space: object
    soe: object
    spec: object
    ctx: Optional[object]


def set_up(w: Workload, kappa_seed: int, amplitude: float,
           workers: int) -> Setup:
    """build_mesh through the factorizations made before the first step.

    The local solves run on `workers` threads, as `wemp run` runs them.
    """
    def u0(x, y):
        return amplitude * experiments.u0_standard(x, y)

    def source(x, y, t):
        return amplitude * experiments.source_smooth(x, y, t)

    mesh = wmesh.build_mesh(w.coarse_divisions, w.refinements)
    kappa = experiments.generate_kappa(
        "contrast-inclusions",
        {"contrast": CONTRAST, "count": w.inclusions, "size": INCLUSION_SIZE},
        mesh, kappa_seed)
    ops = fem.assemble_operators(mesh, kappa)
    pou = msfem.build_partition_of_unity(mesh, kappa)
    space = msfem.assemble_space(mesh, kappa, pou, LEVEL, workers=workers)
    soe = wsoe.build_soe(ALPHA, TAU_F, EPSILON)
    spec = solvers.ProblemSpec(alpha=ALPHA, T=w.T, tau_f=TAU_F, tau_c=w.tau_c,
                               u0=u0, f=source, kappa=kappa, level=LEVEL,
                               epsilon=EPSILON)
    ctx = parareal.build_context(spec, space, soe) if w.k_max else None
    return Setup(mesh, kappa, ops, space, soe, spec, ctx)


def candidate_columns(mesh, level: int) -> int:
    """Columns assemble_space builds before its rank filter, counted from
    msfem's own pieces: per interior coarse vertex, the edge wavelets on
    each boundary side of its neighbourhood and one corrector. The selftest
    checks this against the columns msfem builds."""
    total = 0
    for vertex in np.flatnonzero(mesh.coarse_vertex_interior):
        hood = msfem.coarse_neighborhood(mesh, int(vertex))
        total += 1 + sum(
            len(msfem.edge_wavelets(level, mesh.fine_node_coords[side]))
            for side in hood.boundary_edges)
    return total


def facts(w: Workload, s: Setup, workers: int) -> dict:
    """The bases every ratio of this workload is read against."""
    return {
        "fine_dofs": int(s.ops.free_dofs.size),
        "ms_columns_built": candidate_columns(s.mesh, LEVEL),
        "ms_columns_kept": int(s.space.n_columns),
        "soe_terms": int(s.soe.n_terms),
        "slabs": int(s.spec.n_coarse),
        "fine_steps": int(s.spec.n_fine_total),
        "parareal_iterations": w.k_max,
        "workers": workers if w.k_max else 0,
    }


def marches(w: Workload, s: Setup, workers: int) -> list:
    """The timed calls of the workload: (metric, answer name, call) each."""
    out = []
    if w.k_max:
        out.append(("parareal_s", "states", lambda: parareal.wemp_solve(
            s.ctx, delta=0.0, k_max=w.k_max, workers=workers)[0]))
    if w.reference == "l1" or not w.k_max:
        out.append(("l1_march_s", "l1", lambda: solvers.reference_l1_solve(
            s.spec, s.mesh, s.ops)))
    if w.reference == "soe" or not w.k_max:
        out.append(("fine_soe_march_s", "fine_soe",
                    lambda: solvers.fine_soe_solve(s.spec, s.mesh, s.ops, s.soe)))
    if not w.k_max:
        out.append(("ms_march_s", "ms", lambda: solvers.multiscale_soe_solve(
            s.spec, s.space, s.soe)))
    return out


def digest(answer) -> str:
    """sha256 of an answer's bytes: a Trajectory or a list of parareal states."""
    h = hashlib.sha256()
    arrays = ([st.solutions for st in answer] if isinstance(answer, list)
              else [answer.times, answer.states])
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _max_errors(s: Setup, fine_states: np.ndarray, ref_states: np.ndarray):
    rel_l2, rel_en = solvers.relative_errors_percent(fine_states, ref_states,
                                                     s.ops)
    return float(rel_l2.max()), float(rel_en.max())


def check(w: Workload, s: Setup, answers: dict) -> tuple:
    """Accuracy figures and gates of the workload's answers.

    Returns (values, gates): values maps metric names to numbers, gates maps
    gate names to (measured, limit, passed).
    """
    values, gates = {}, {}
    ref = answers["l1"] if w.reference == "l1" else answers["fine_soe"]
    if w.k_max:
        states = answers["states"]
        final = states[-1].solutions
        lifted = np.asarray((s.space.basis @ final[1:].T).T)
        l2, en = _max_errors(s, lifted, ref.states[1:])
        first_slab, _ = parareal.fine_propagate(s.ctx, 0, s.ctx.u0.copy(),
                                                s.ctx.fresh_history())
        slab_gap = max(float(np.abs(st.solutions[1] - first_slab).max())
                       for st in states[1:])
        values["parareal_iterations"] = len(states) - 1
        values["parareal_err_final"] = states[-1].err
        gates["slab1_gap"] = (slab_gap, SLAB_GAP_GATE, slab_gap <= SLAB_GAP_GATE)
        if w.k_max > 1:
            contraction = states[1].err / states[-1].err
            values["parareal_contraction"] = contraction
            gates["contraction"] = (contraction, CONTRACTION_GATE,
                                    contraction >= CONTRACTION_GATE)
    else:
        ms_lifted = np.asarray((s.space.basis @ answers["ms"].states[1:].T).T)
        l2, en = _max_errors(s, ms_lifted, ref.states[1:])
        gap, _ = _max_errors(s, answers["fine_soe"].states[1:], ref.states[1:])
        values["soe_gap_pct"] = gap
        gates["soe_gap_pct"] = (gap, SOE_GAP_GATE_PCT, gap <= SOE_GAP_GATE_PCT)
    values["max_rel_l2_pct"] = l2
    values["max_rel_energy_pct"] = en
    if w.reference == "soe":
        built = candidate_columns(s.mesh, LEVEL)
        kept = s.space.n_columns
        gates["kept_share"] = (kept / built, KEPT_SHARE_GATE,
                               kept >= KEPT_SHARE_GATE * built)
        finite = bool(np.isfinite(ref.states).all()
                      and all(np.isfinite(st.solutions).all()
                              for st in answers["states"]))
        gates["all_finite"] = (float(finite), 1.0, finite)
    else:
        gates["rel_l2_pct"] = (l2, REL_L2_GATE_PCT, l2 <= REL_L2_GATE_PCT)
    return values, gates
