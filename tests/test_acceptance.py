"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible under
`pytest -s`) before asserting, so a full run gives a seven-line scorecard.
Criterion 1 checks the term-count/tolerance pairings that build_soe realizes
at tau_f = 1e-4: each odd count is the smallest whose bound meets its
tolerance, the measured kernel error stays within that bound far past any
final time, and the term count grows no faster than ln(1/tau_f)^2.
"""

import time

import numpy as np

from wemp.experiments import generate_kappa, source_smooth, u0_standard
from wemp.fem import (CoefficientField, assemble_load, assemble_operators,
                      factorized_spd)
from wemp.mesh import build_mesh
from wemp.msfem import assemble_space, build_partition_of_unity, edge_wavelets
from wemp.parareal import (build_context, fine_propagate, hybrid_fixed_point,
                           initial_coarse_sweep, wemp_iteration)
from wemp.soe import (SOEApproximation, build_soe, build_soe_for_terms,
                      soe_residual, step_coefficients)
from wemp.solvers import (ProblemSpec, fine_soe_solve, multiscale_soe_solve,
                          reference_l1_solve, relative_errors_percent,
                          single_dof_setup)
from wemp.stepping import l1_coefficients, mittag_leffler_neg


def announce(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_soe_parameter_pairings():
    t0 = time.perf_counter()
    tau_f = 1e-4
    failures = []
    for alpha in (0.1, 0.9):
        # pairing: eps_N is met by exactly N terms, anything tighter needs N+2
        for n_terms in (19, 31, 53):
            fixed = build_soe_for_terms(alpha, tau_f, n_terms)
            eps = fixed.epsilon
            paired = build_soe(alpha, tau_f, eps)
            tighter = build_soe(alpha, tau_f, np.nextafter(eps, 0.0))
            if not (paired.n_terms == n_terms
                    and np.array_equal(paired.weights, fixed.weights)
                    and np.array_equal(paired.rates, fixed.rates)):
                failures.append(f"alpha={alpha}: eps {eps:.6g} does not "
                                f"rebuild the {n_terms}-term sum (got "
                                f"{paired.n_terms} terms)")
            if tighter.n_terms != n_terms + 2:
                failures.append(f"alpha={alpha}: just below eps {eps:.6g} "
                                f"gives {tighter.n_terms} terms, not "
                                f"{n_terms + 2}")
            # certificate: the bound holds on a horizon past any final time
            res = soe_residual(fixed, 1e4)
            if res > eps:
                failures.append(f"alpha={alpha}, n_terms={n_terms}: kernel "
                                f"error {res:.6g} on [tau_f, 1e4] exceeds "
                                f"the bound {eps:.6g}")
        # growth: n_terms / ln(1/tau_f)^2 does not increase as tau_f falls
        for tol in (1e-2, 1e-6):
            ratios = [build_soe(alpha, tf, tol).n_terms / np.log(1.0 / tf) ** 2
                      for tf in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
            if np.any(np.diff(ratios) > 0.0):
                failures.append(f"alpha={alpha}, eps={tol}: n_terms / "
                                f"ln(1/tau_f)^2 over tau_f = 1e-2..1e-6 is "
                                f"{np.round(ratios, 3).tolist()}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s (< 1s)")
    announce(1, not failures, f"pairings, certificate and growth at "
                              f"tau_f=1e-4, {elapsed:.2f}s")
    assert not failures, "\n".join(failures)


def test_criterion_2_residual_certificate():
    worst = 0.0
    slowest = 0.0
    for alpha in (0.1, 0.5, 0.9):
        for tau_f in (1e-3, 1e-4):
            for eps in (1e-1, 1e-3, 1e-6):
                t0 = time.perf_counter()
                soe = build_soe(alpha, tau_f, eps)
                res = soe_residual(soe, 1.0)
                slowest = max(slowest, time.perf_counter() - t0)
                worst = max(worst, res / soe.epsilon)
    ok = worst <= 10.0 and slowest < 10.0
    announce(2, ok, f"max residual {worst:.3f}x the realized bound over 18 "
                    f"builds, slowest setting {slowest:.2f}s")
    assert worst <= 10.0
    assert slowest < 10.0


def test_criterion_3_scheme_equivalence():
    t0 = time.perf_counter()
    mesh = build_mesh(8, 4)
    kappa = CoefficientField.constant(mesh)
    ops = assemble_operators(mesh, kappa)
    details = []
    ok = True
    for alpha, tol in ((0.9, 1.0), (0.1, 0.01)):
        spec = ProblemSpec(alpha=alpha, T=1.0, tau_f=1e-3, tau_c=0.1,
                           u0=u0_standard, f=source_smooth, kappa=kappa,
                           level=1, epsilon=1e-4)
        soe = build_soe(alpha, 1e-3, 1e-4)
        ref = reference_l1_solve(spec, mesh, ops)
        sol = fine_soe_solve(spec, mesh, ops, soe)
        rel_l2, rel_en = relative_errors_percent(sol.states[1:],
                                                 ref.states[1:], ops)
        gap = max(float(rel_l2.max()), float(rel_en.max()))
        ok &= gap <= tol
        details.append(f"alpha={alpha}: {gap:.2e}% vs {tol}%")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    announce(3, ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok, details


def test_criterion_4_scalar_fractional_oracle():
    t0 = time.perf_counter()
    mesh, ops = single_dof_setup(1.0)
    want = mittag_leffler_neg(0.5, 1.0)
    errs = {}
    for tau in (1e-3, 5e-4):
        spec = ProblemSpec(alpha=0.5, T=1.0, tau_f=tau, tau_c=0.1,
                           u0=lambda x, y: np.ones_like(x), f=None,
                           kappa=None, level=0, epsilon=1.0)
        traj = reference_l1_solve(spec, mesh, ops)
        errs[tau] = abs(float(traj.states[-1, 0]) - want)
    ratio = errs[1e-3] / errs[5e-4]
    elapsed = time.perf_counter() - t0
    ok = errs[1e-3] <= 5e-3 and ratio >= 2.0 ** 0.4 and elapsed < 1.0
    announce(4, ok, f"err {errs[1e-3]:.2e} (<=5e-3), halving ratio "
                    f"{ratio:.2f} (>= {2.0 ** 0.4:.2f}), {elapsed:.2f}s")
    assert errs[1e-3] <= 5e-3
    assert ratio >= 2.0 ** 0.4
    assert elapsed < 1.0


def test_criterion_5_wemp_convergence():
    t0 = time.perf_counter()
    mesh = build_mesh(8, 8)
    kappa = generate_kappa("contrast-inclusions",
                           {"contrast": 1e4, "count": 16, "size": 4},
                           mesh, seed=7)
    ops = assemble_operators(mesh, kappa)
    pou = build_partition_of_unity(mesh, kappa)
    space = assemble_space(mesh, kappa, pou, 2)
    details = []
    ok = True
    for alpha in (0.1, 0.5, 0.9):
        spec = ProblemSpec(alpha=alpha, T=1.0, tau_f=1e-3, tau_c=0.1,
                           u0=u0_standard, f=source_smooth, kappa=kappa,
                           level=2, epsilon=1e-2)
        soe = build_soe(alpha, 1e-3, 1e-2)
        ref = reference_l1_solve(spec, mesh, ops)
        ctx = build_context(spec, space, soe)
        first_slab, _ = fine_propagate(ctx, 0, ctx.u0.copy(),
                                       ctx.fresh_history())
        state = initial_coarse_sweep(ctx)
        errs = {}
        slab_gap = 0.0
        for k in range(1, 4):
            state = wemp_iteration(ctx, state)
            errs[k] = state.err
            slab_gap = max(slab_gap,
                           float(np.abs(state.solutions[1] - first_slab).max()))
        lifted = np.asarray((space.basis @ state.solutions[1:].T).T)
        rel_l2, _ = relative_errors_percent(lifted, ref.states[1:], ops)
        contraction = errs[1] / errs[3]
        this_ok = (float(rel_l2.max()) <= 10.0 and contraction >= 5.0
                   and slab_gap <= 1e-12)
        ok &= this_ok
        details.append(f"alpha={alpha}: relL2 {rel_l2.max():.3f}% (<=10%), "
                       f"err(1)/err(3) {contraction:.1f} (>=5), "
                       f"slab-1 gap {slab_gap:.1e} (<=1e-12)")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    announce(5, ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert ok, details
    assert elapsed < 600.0


def test_criterion_6_chaining_and_fixed_point(space44, kappa44):
    t0 = time.perf_counter()
    spec = ProblemSpec(alpha=0.5, T=1.0, tau_f=1.0 / 64.0, tau_c=0.125,
                       u0=u0_standard, f=source_smooth, kappa=kappa44,
                       level=1, epsilon=1e-2)
    soe = build_soe(0.5, spec.tau_f, 1e-2)
    ctx = build_context(spec, space44, soe)

    # chaining the slab propagator reproduces the sequential solver
    seq = multiscale_soe_solve(spec, space44, soe)
    u = ctx.u0.copy()
    phi = ctx.fresh_history()
    chained = [u.copy()]
    for n in range(ctx.n_slabs):
        u, phi = fine_propagate(ctx, n, u, phi)
        chained.append(u.copy())
    scale = float(np.abs(seq.states).max())
    chain_gap = float(np.abs(np.array(chained) - seq.states).max()) / scale

    # one iteration from the exact sequential solution returns it unchanged
    fixed = hybrid_fixed_point(ctx)
    once = wemp_iteration(ctx, fixed)
    fp_scale = float(np.abs(fixed.solutions).max())
    fp_gap = float(np.abs(once.solutions - fixed.solutions).max()) / fp_scale

    elapsed = time.perf_counter() - t0
    ok = chain_gap <= 1e-12 and fp_gap <= 1e-10 and elapsed < 60.0
    announce(6, ok, f"chaining gap {chain_gap:.1e} (<=1e-12 rel), "
                    f"fixed-point gap {fp_gap:.1e} (<=1e-10 rel), "
                    f"{elapsed:.1f}s")
    assert chain_gap <= 1e-12
    assert fp_gap <= 1e-10
    assert elapsed < 60.0


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    results = []

    def check(name, ok):
        results.append((name, bool(ok)))

    # partition of unity sums to one against a contrast-1e4 field
    mesh = build_mesh(4, 4)
    kappa = generate_kappa("contrast-inclusions",
                           {"contrast": 1e4, "count": 4, "size": 2},
                           mesh, seed=7)
    pou = build_partition_of_unity(mesh, kappa)
    total = np.asarray(pou.chi.sum(axis=0)).ravel()
    check("pou-sum", np.max(np.abs(total - 1.0)) <= 1e-10)

    # Haar edge wavelets are orthonormal in the edge L2 inner product
    coords = np.column_stack([np.linspace(0.0, 1.0, 17), np.zeros(17)])
    W = edge_wavelets(3, coords)
    gram_gap = np.max(np.abs((W * (1.0 / 16.0)) @ W.T - np.eye(8)))
    check("edge-gram", gram_gap <= 1e-12)

    # closed form for the per-step integrator coefficient sum
    rates = np.geomspace(1e-8, 10.0, 300)
    probe = SOEApproximation(alpha=0.5, tau_f=1.0, epsilon=1.0,
                             weights=np.ones_like(rates), rates=rates,
                             n_terms=rates.size)
    co = step_coefficients(probe, 1.0)
    target = np.exp(-rates) * (-np.expm1(-rates)) / rates
    ident_gap = np.max(np.abs(co.c1 + co.c2 - target) / target)
    check("step-coefficient-identity", ident_gap <= 1e-12)

    # L1 weight difference lower bound up to n = 1e4
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        c = l1_coefficients(alpha, 10000)
        diffs = c.b[:-1] - c.b[1:]
        n = np.arange(1, diffs.size + 1, dtype=np.float64)
        bound = alpha * (1.0 - alpha) * (n + 1.0) ** (-alpha - 1.0)
        check(f"l1-lower-bound-{alpha}",
              np.all(diffs >= bound * (1.0 - 1e-12)))

    # weighted coefficient sums stay under the decay bound at both steps
    for alpha in (0.1, 0.5, 0.9):
        soe = build_soe(alpha, 1e-3, 1e-3)
        for tau in (1e-3, 0.1):
            co = step_coefficients(soe, tau)
            bound = np.exp(-soe.gamma_min * tau) * (
                tau ** (-alpha) / (1.0 - alpha) + soe.epsilon * tau / 2.0)
            s1 = abs(float(soe.weights @ co.c1))
            s2 = abs(float(soe.weights @ co.c2))
            check(f"coefficient-sum-{alpha}-{tau:g}", max(s1, s2) <= bound)

    # steady-state energy error shrinks with every added wavelet generation
    mesh8 = build_mesh(8, 8)
    kappa8 = generate_kappa("contrast-inclusions",
                            {"contrast": 1e4, "count": 16, "size": 4},
                            mesh8, seed=7)
    ops8 = assemble_operators(mesh8, kappa8)
    pou8 = build_partition_of_unity(mesh8, kappa8)
    free = ops8.free_dofs
    A = ops8.stiffness_free
    load = assemble_load(mesh8, ops8, lambda x, y, t: np.ones_like(x), 0.0)
    u = factorized_spd(A)(load[free])
    en = float(np.sqrt(u @ (A @ u)))
    steady = []
    for level in (0, 1, 2, 3):
        space = assemble_space(mesh8, kappa8, pou8, level)
        coeff = factorized_spd(space.ms_stiffness)(
            np.asarray(space.basis.T @ load).ravel())
        d = u - np.asarray(space.basis @ coeff).ravel()[free]
        steady.append(100.0 * float(np.sqrt(d @ (A @ d))) / en)
    check("steady-energy-monotone",
          all(steady[i] > steady[i + 1] for i in range(3)))

    failures = [name for name, ok in results if not ok]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    announce(7, ok, f"{len(results) - len(failures)}/{len(results)} property "
                    f"checks, steady energy % "
                    + " > ".join(f"{e:.2f}" for e in steady)
                    + f", {elapsed:.1f}s")
    assert not failures, f"failed checks: {failures}"
    assert elapsed < 120.0
