"""Time-parallel multiscale run, iteration by iteration.

The full pipeline at desk scale: high-contrast field, level-2 multiscale
space, exponential-sum history, and the parareal iteration over ten coarse
slabs. After each iteration the reduced trajectory is lifted to the fine
grid and compared against the sequential fine-scale L1 reference.

    python3 demos/wemp_iterations.py [--alpha 0.5] [--out demo_out]
"""

import argparse
import time
from pathlib import Path

import numpy as np

from wemp.experiments import generate_kappa, source_smooth, u0_standard
from wemp.fem import assemble_operators
from wemp.mesh import build_mesh
from wemp.msfem import assemble_space, build_partition_of_unity
from wemp.parareal import (build_context, initial_coarse_sweep,
                           wemp_iteration, write_iteration_csv)
from wemp.soe import build_soe
from wemp.solvers import (ProblemSpec, reference_l1_solve,
                          relative_errors_percent)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--iterations", type=int, default=3)
    ap.add_argument("--out", default="demo_out")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    mesh = build_mesh(8, 8)
    kappa = generate_kappa("contrast-inclusions",
                           {"contrast": 1e4, "count": 16, "size": 4},
                           mesh, seed=7)
    ops = assemble_operators(mesh, kappa)
    pou = build_partition_of_unity(mesh, kappa)
    space = assemble_space(mesh, kappa, pou, 2)
    print(f"space built: {space.n_columns} columns over "
          f"{ops.free_dofs.size} fine unknowns "
          f"({time.perf_counter() - t0:.1f}s)")

    spec = ProblemSpec(alpha=args.alpha, T=1.0, tau_f=1e-3, tau_c=0.1,
                       u0=u0_standard, f=source_smooth, kappa=kappa,
                       level=2, epsilon=1e-2)
    soe = build_soe(args.alpha, spec.tau_f, spec.epsilon)
    print(f"alpha = {args.alpha}: {spec.n_coarse} slabs of {spec.m_sub} fine "
          f"steps, {soe.n_terms} history terms")

    t0 = time.perf_counter()
    ref = reference_l1_solve(spec, mesh, ops)
    print(f"sequential fine L1 reference: {time.perf_counter() - t0:.1f}s")

    ctx = build_context(spec, space, soe)
    state = initial_coarse_sweep(ctx)
    rows = []
    for k in range(1, args.iterations + 1):
        t0 = time.perf_counter()
        state = wemp_iteration(ctx, state)
        dt = time.perf_counter() - t0
        lifted = np.asarray((space.basis @ state.solutions[1:].T).T)
        rel_l2, rel_en = relative_errors_percent(lifted, ref.states[1:], ops)
        for n, (a, b) in enumerate(zip(rel_l2, rel_en), start=1):
            rows.append((k, n, a, b, state.err))
        print(f"k = {k}: iterate gap {state.err:.3e}, "
              f"max relL2 {rel_l2.max():.3f} %, {dt:.1f}s")
    write_iteration_csv(out / "wemp_iterations.csv", rows)
    print(f"\nwrote {out / 'wemp_iterations.csv'}")
    print("the first iteration already matches the reference wherever the")
    print("coarse sweep was adequate; later iterations shrink the iterate")
    print("gap geometrically while the spatial floor set by the multiscale")
    print("space stays put.")


if __name__ == "__main__":
    main()
