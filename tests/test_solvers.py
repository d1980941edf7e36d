import dataclasses
import itertools
import logging
import weakref
from collections import Counter

import numpy as np
import pytest

from wemp import fem, solvers
from wemp.experiments import generate_kappa, source_rough, source_smooth, u0_standard
from wemp.fem import (CoefficientField, assemble_load, assemble_operators,
                      factorized_spd)
from wemp.mesh import build_mesh
from wemp.msfem import assemble_space, build_partition_of_unity
from wemp.soe import build_soe, build_soe_for_terms, step_coefficients
from wemp.solvers import (
    ProblemSpec,
    Trajectory,
    fine_soe_solve,
    multiscale_soe_solve,
    reference_l1_solve,
    relative_errors_percent,
    single_dof_setup,
    write_error_csv,
)
from wemp.parareal import build_context, wemp_solve
from wemp.stepping import l1_coefficients, l1_known_weights, mittag_leffler_neg

from conftest import KERNELS, kernel_spy


def zero_u0(x, y):
    return np.zeros_like(x)


def one_u0(x, y):
    return np.ones_like(x)


def make_spec(**kw):
    base = dict(alpha=0.5, T=1.0, tau_f=1e-2, tau_c=0.1, u0=u0_standard,
                f=source_smooth, kappa=None, level=1, epsilon=1e-2)
    base.update(kw)
    return ProblemSpec(**base)


# ------------------------------------------------------------ plumbing


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        make_spec(alpha=1.0)
    with pytest.raises(ValueError):
        make_spec(T=-1.0)
    with pytest.raises(ValueError):
        make_spec(tau_c=0.3)      # does not divide T = 1
    with pytest.raises(ValueError):
        make_spec(tau_f=0.03)     # does not divide tau_c = 0.1
    with pytest.raises(ValueError):
        make_spec(tau_f=0.3)      # m_sub rounds to 0
    spec = make_spec()
    assert spec.n_coarse == 10
    assert spec.m_sub == 10
    assert spec.n_fine_total == 100


def test_problem_spec_rejects_a_negative_level():
    with pytest.raises(ValueError, match="level must be >= 0"):
        make_spec(level=-1)
    assert make_spec(level=0).level == 0


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.5, 0.5]), states=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.5]), states=np.zeros((3, 2)))


def test_solvers_share_the_slab_boundary_times(space44, kappa44):
    mesh, ops = space44.mesh, space44.fine_ops
    spec = make_spec(kappa=kappa44)
    soe = build_soe(0.5, spec.tau_f, 1e-2)
    trajectories = [reference_l1_solve(spec, mesh, ops),
                    fine_soe_solve(spec, mesh, ops, soe),
                    multiscale_soe_solve(spec, space44, soe)]
    times = trajectories[0].times
    assert times.size == spec.n_coarse + 1
    assert np.allclose(times, np.arange(spec.n_coarse + 1) * spec.tau_c)
    for traj in trajectories:
        assert np.array_equal(traj.times, times)
        assert traj.states.shape[0] == times.size


def test_slab_instants_are_the_global_clock():
    # step k of the march is at k * tau, whatever slab it falls in
    assert solvers.slab_instants(0, 3, 0.1) == [k * 0.1 for k in (1, 2, 3)]
    assert solvers.slab_instants(4, 3, 0.1) == [k * 0.1 for k in (13, 14, 15)]


def test_zero_data_stays_zero():
    mesh = build_mesh(2, 2)
    kappa = CoefficientField.constant(mesh)
    ops = assemble_operators(mesh, kappa)
    spec = make_spec(kappa=kappa, u0=zero_u0, f=None)
    soe = build_soe(0.5, spec.tau_f, 1e-2)
    assert np.all(reference_l1_solve(spec, mesh, ops).states == 0.0)
    assert np.all(fine_soe_solve(spec, mesh, ops, soe).states == 0.0)
    pou = build_partition_of_unity(mesh, kappa)
    space = assemble_space(mesh, kappa, pou, 1)
    assert np.all(multiscale_soe_solve(spec, space, soe).states == 0.0)


def test_reference_preserves_mesh_symmetry():
    # u0 and f symmetric under coordinate swap, which the triangulation
    # respects exactly, so the discrete solution must too
    mesh = build_mesh(4, 2)
    kappa = CoefficientField.constant(mesh)
    ops = assemble_operators(mesh, kappa)
    spec = make_spec(kappa=kappa)     # u0_standard and xyt are swap-symmetric
    traj = reference_l1_solve(spec, mesh, ops)
    n = mesh.n_fine_per_axis
    grid = traj.states[-1].reshape(n + 1, n + 1)
    assert np.max(np.abs(grid - grid.T)) < 1e-9


def test_scalar_mode_matches_mittag_leffler():
    mesh, ops = single_dof_setup(1.0)
    spec = make_spec(tau_f=1e-3, u0=one_u0, f=None)
    traj = reference_l1_solve(spec, mesh, ops)
    exact = mittag_leffler_neg(0.5, 1.0)
    assert abs(traj.states[-1, 0] - exact) < 5e-3


def test_single_dof_setup_operators():
    mesh, ops = single_dof_setup(3.0)
    assert ops.mass.toarray()[0, 0] == 1.0
    assert ops.stiffness.toarray()[0, 0] == 3.0
    assert mesh.n_nodes == 1


def test_first_step_agreement():
    # the SOE scheme's first step is algebraically the L1 first step; at
    # tau_c = tau_f every step is a slab boundary
    mesh = build_mesh(2, 2)
    kappa = CoefficientField.constant(mesh)
    ops = assemble_operators(mesh, kappa)
    spec = make_spec(kappa=kappa, alpha=0.7, tau_c=1e-2)
    soe = build_soe(0.7, spec.tau_f, 1e-2)
    l1 = reference_l1_solve(spec, mesh, ops)
    se = fine_soe_solve(spec, mesh, ops, soe)
    assert np.allclose(se.states[1], l1.states[1], rtol=1e-13, atol=1e-16)


def test_fine_march_is_the_slab_march(mesh44, ops44):
    # fine_soe_solve is the context chain on the fine space; on the
    # factorized path (100 steps over 225 free dofs) it gives, bit for bit,
    # soe_march slab by slab from u0 at the free dofs with per-instant loads
    spec = make_spec()
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    free = ops44.free_dofs
    solve = solvers.factorized_step(ops44.mass_free, ops44.stiffness_free,
                                    spec.tau_f, spec.alpha)
    coeffs = step_coefficients(soe, spec.tau_f)
    v = v0 = spec.nodal_u0(mesh44)[free]
    psi = np.zeros((soe.n_terms, free.size))
    states = [v]
    for n in range(spec.n_coarse):
        instants = solvers.slab_instants(n, spec.m_sub, spec.tau_f)
        v, psi = solvers.soe_march(
            solve, ops44.mass_free, soe, coeffs, v, v0, psi, instants,
            [assemble_load(mesh44, ops44, spec.f, t)[free] for t in instants])
        states.append(v)
    traj = fine_soe_solve(spec, mesh44, ops44, soe)
    assert np.array_equal(traj.states[:, free], np.array(states))
    assert not np.delete(traj.states, free, axis=1).any()


def test_fine_marches_take_one_load_per_instant(mesh44, ops44):
    # both fine marches call f once per step instant with a scalar t, so
    # an f written for one instant serves them
    calls = []

    def f(x, y, t):
        calls.append(t)
        assert np.ndim(t) == 0 and np.ndim(x) == 1
        return source_smooth(x, y, t)
    spec = make_spec(T=0.2, f=f)
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    steps = [(n + 1) * spec.tau_f for n in range(spec.n_fine_total)]
    for march in (lambda: fine_soe_solve(spec, mesh44, ops44, soe),
                  lambda: reference_l1_solve(spec, mesh44, ops44)):
        calls.clear()
        march()
        assert np.allclose(calls, steps, rtol=1e-14, atol=0.0)


def test_l1_slab_blocks_match_per_step_history():
    # the slab GEMM plus within-slab window equals w @ states[:n + 1] per step
    mesh = build_mesh(2, 4)
    ops = assemble_operators(mesh, CoefficientField.constant(mesh))
    spec = make_spec(T=0.2, tau_c=0.05, tau_f=0.01)
    free = ops.free_dofs
    coeffs = l1_coefficients(spec.alpha, spec.n_fine_total)
    scale = spec.tau_f ** spec.alpha * coeffs.c_alpha
    solve = solvers.factorized_step(ops.mass_free, ops.stiffness_free,
                                    spec.tau_f, spec.alpha)
    states = [spec.nodal_u0(mesh)[free]]
    for n in range(spec.n_fine_total):
        known = (l1_known_weights(coeffs, n) @ np.array(states)) / scale
        load = assemble_load(mesh, ops, spec.f, (n + 1) * spec.tau_f)[free]
        states.append(solve(ops.mass_free @ known + load))
    oracle = np.array(states)[::spec.m_sub]
    blocked = reference_l1_solve(spec, mesh, ops).states[:, free]
    assert np.abs(blocked - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_one_slab_reads_its_history_once_per_block(monkeypatch):
    # a slab of m_sub > n_terms steps: ceil(m_sub / n_terms) history
    # updates, one implicit step per fine step
    soe = build_soe_for_terms(0.5, 0.01, 5)
    spec = make_spec(T=0.12, tau_c=0.12, tau_f=0.01, u0=one_u0, f=None)
    assert spec.n_coarse == 1 and spec.m_sub == 12
    calls = {"history": 0, "step": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(solvers, "propagate_history_with", counted(
        "history", solvers.propagate_history_with))
    monkeypatch.setattr(solvers, "soe_implicit_step", counted(
        "step", solvers.soe_implicit_step))
    fine_soe_solve(spec, *single_dof_setup(), soe)
    assert calls == {"history": -(-spec.m_sub // soe.n_terms),
                     "step": spec.m_sub}


def test_l1_memory_budget():
    mesh = build_mesh(4, 4)
    kappa = CoefficientField.constant(mesh)
    ops = assemble_operators(mesh, kappa)
    spec = make_spec(kappa=kappa, tau_c=1e-3, tau_f=1e-7)
    with pytest.raises(ValueError, match="storage"):
        reference_l1_solve(spec, mesh, ops)


# -------------------------------------------------- scheme agreement


def test_soe_scheme_tracks_l1_and_tolerates_rough_source():
    # 16x16 grid, alpha = 0.9, 53-term compression: the two schemes agree
    # far below the 0.2% gate, and a discontinuous-in-time source does not
    # degrade the agreement by more than 2x
    mesh = build_mesh(4, 4)
    kappa = CoefficientField.constant(mesh)
    ops = assemble_operators(mesh, kappa)
    soe = build_soe_for_terms(0.9, 1e-3, 53)
    worst = {}
    for name, f in (("smooth", source_smooth), ("rough", source_rough)):
        spec = make_spec(alpha=0.9, tau_f=1e-3, kappa=kappa, f=f,
                         epsilon=soe.epsilon)
        ref = reference_l1_solve(spec, mesh, ops)
        fs = fine_soe_solve(spec, mesh, ops, soe)
        rl2, ren = relative_errors_percent(fs.states[1:], ref.states[1:], ops)
        worst[name] = max(rl2.max(), ren.max())
    assert worst["smooth"] <= 0.2
    assert worst["rough"] <= 2.0 * worst["smooth"]


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_scalar_scheme_gap_constant(alpha, eps):
    # |u_soe - u_l1| <= C eps T^(1+alpha) max|u| with C <= 10, at every
    # step: tau_c = tau_f makes each one a slab boundary
    mesh, ops = single_dof_setup(1.0)
    spec = make_spec(alpha=alpha, tau_f=1e-3, tau_c=1e-3, u0=one_u0, f=None,
                     epsilon=eps)
    soe = build_soe(alpha, 1e-3, eps)
    l1 = reference_l1_solve(spec, mesh, ops)
    se = fine_soe_solve(spec, mesh, ops, soe)
    gap = np.abs(se.states - l1.states).max()
    assert gap <= 10.0 * soe.epsilon * np.abs(l1.states).max()


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("tau_f", [1e-2, 1e-3])
def test_stability_probe(alpha, tau_f):
    # f = 0: no growth in the max norm at any tested alpha or step size
    mesh = build_mesh(4, 4)
    kappa = CoefficientField.constant(mesh)
    ops = assemble_operators(mesh, kappa)
    spec = make_spec(alpha=alpha, tau_f=tau_f, kappa=kappa, f=None)
    soe = build_soe(alpha, tau_f, 1e-2)
    traj = fine_soe_solve(spec, mesh, ops, soe)
    ratio = np.abs(traj.states).max() / np.abs(traj.states[0]).max()
    assert ratio <= 10.0
    final = np.abs(traj.states[-1]).max()
    assert final < np.abs(traj.states[0]).max()


# ------------------------------------------------------- multiscale


def test_multiscale_initial_state_is_projection(mesh44, kappa44, space44):
    spec = make_spec(kappa=kappa44)
    soe = build_soe(0.5, spec.tau_f, 1e-2)
    traj = multiscale_soe_solve(spec, space44, soe)
    coords = mesh44.fine_node_coords
    u0 = u0_standard(coords[:, 0], coords[:, 1])
    assert np.array_equal(traj.states[0], space44.project(u0))
    assert traj.states.shape[1] == space44.n_columns


def test_multiscale_level_sweep_error_floor():
    # H = 1/10 with interior high-contrast inclusions: the error decreases
    # with the wavelet level but settles on a coarse-scale floor instead of
    # collapsing to zero
    mesh = build_mesh(10, 8)
    kappa = generate_kappa("contrast-inclusions",
                           {"contrast": 1e4, "count": 25, "size": 4},
                           mesh, seed=11)
    ops = assemble_operators(mesh, kappa)
    pou = build_partition_of_unity(mesh, kappa)
    spec = make_spec(kappa=kappa)
    soe = build_soe(0.5, spec.tau_f, 1e-2)
    ref = fine_soe_solve(spec, mesh, ops, soe)
    errs = {}
    for level in (1, 2, 3):
        space = assemble_space(mesh, kappa, pou, level)
        ms = multiscale_soe_solve(spec, space, soe)
        lift = (space.basis @ ms.states.T).T
        rl2, _ = relative_errors_percent(lift[1:], ref.states[1:], ops)
        errs[level] = rl2.max()
    assert errs[2] <= 10.0
    assert errs[1] > errs[2] > errs[3]
    assert errs[3] >= 0.2 * errs[2]


def modal_spec(kappa, **kw):
    # 128 steps over the 81 columns of space44: the modal path
    return make_spec(kappa=kappa, tau_f=1.0 / 128.0, tau_c=0.125, **kw)


@pytest.mark.parametrize("kernel,limit", KERNELS)
def test_step_solver_keeps_no_step_matrix(monkeypatch, space44, ops44,
                                          kernel, limit):
    # the factorization keeps its factor and the check the space's own M
    # and A, so the step matrix is freed once factorized_step returns
    monkeypatch.setattr(fem, "BAND_FILL_LIMIT", limit)
    used, held = kernel_spy(monkeypatch), []

    def spy(matrix, **kwargs):
        held.append(weakref.ref(matrix))
        return factorized_spd(matrix, **kwargs)
    monkeypatch.setattr(solvers, "factorized_spd", spy)
    for mass, stiffness in ((space44.ms_mass, space44.ms_stiffness),
                            (ops44.mass_free, ops44.stiffness_free)):
        step = solvers.factorized_step(mass, stiffness, 1e-3, 0.5)
        assert held.pop()() is None
        assert step.mass is mass and step.stiffness is stiffness
        rhs = np.ones(mass.shape[0])
        step.check(step(rhs)[None], rhs[None], [1e-3])
    assert used == [kernel] * 2


def off_at(solve, calls):
    """solve, with the solution of each of its calls numbered in `calls`
    (from 0) off by 1e-6 relative."""
    count = itertools.count()

    def corrupted(rhs):
        x = solve(rhs)
        return x * (1.0 + 1e-6) if next(count) in calls else x
    return corrupted


@pytest.mark.parametrize("kernel,limit", KERNELS)
def test_wrong_solution_fails_its_block_check(monkeypatch, mesh44, ops44,
                                              kernel, limit):
    # steps 2 and 5 of the second block are wrong: soe_march raises at the
    # end of that block, naming step 2's instant, after one history update
    monkeypatch.setattr(fem, "BAND_FILL_LIMIT", limit)
    used = kernel_spy(monkeypatch)
    spec = make_spec()
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    step = solvers.factorized_step(ops44.mass_free, ops44.stiffness_free,
                                   spec.tau_f, spec.alpha)
    assert used == [kernel]
    first = soe.n_terms + 2
    broken = dataclasses.replace(
        step, solve=off_at(step.solve, {first, first + 3}))
    instants = solvers.slab_instants(0, 2 * soe.n_terms, spec.tau_f)
    updates = []
    propagate = solvers.propagate_history_with
    monkeypatch.setattr(solvers, "propagate_history_with",
                        lambda *args: updates.append(1) or propagate(*args))
    v0 = spec.nodal_u0(mesh44)[ops44.free_dofs]
    with pytest.raises(RuntimeError,
                       match=f"residual check at t = {instants[first]:.6g}:"):
        solvers.soe_march(broken, ops44.mass_free, soe,
                          step_coefficients(soe, spec.tau_f), v0, v0,
                          np.zeros((soe.n_terms, v0.size)), instants,
                          [np.zeros(v0.size)] * len(instants))
    assert len(updates) == 1


@pytest.mark.parametrize("kernel,limit", KERNELS)
def test_wrong_l1_solution_fails_its_slab_check(monkeypatch, mesh44, ops44,
                                                kernel, limit):
    # step 3 of slab 0 is wrong: the L1 march raises at the end of slab 0,
    # naming its instant, before it loads a step of slab 1
    monkeypatch.setattr(fem, "BAND_FILL_LIMIT", limit)
    used = kernel_spy(monkeypatch)
    monkeypatch.setattr(solvers, "factorized_spd", lambda matrix, **kw:
                        off_at(factorized_spd(matrix, **kw), {3}))
    loads = []
    load = solvers.assemble_load
    monkeypatch.setattr(solvers, "assemble_load",
                        lambda *args: loads.append(1) or load(*args))
    spec = make_spec()
    with pytest.raises(RuntimeError,
                       match=f"residual check at t = {4 * spec.tau_f:.6g}:"):
        reference_l1_solve(spec, mesh44, ops44)
    assert used == [kernel] and len(loads) == spec.m_sub


def checked_solves(monkeypatch) -> tuple:
    """Counters of the solutions the step solvers made from now on and of
    the columns that march checks passed, each by its bytes."""
    solved, checked = Counter(), Counter()

    def counted(solve):
        def run(rhs):
            x = solve(rhs)
            solved[x.tobytes()] += 1
            return x
        return run
    monkeypatch.setattr(solvers, "factorized_spd", lambda matrix, **kw:
                        counted(factorized_spd(matrix, **kw)))
    check = solvers._check_residual

    def spy(matrix, anorm, x, rhs, **kwargs):
        checked.update(np.ascontiguousarray(c).tobytes() for c in x.T)
        return check(matrix, anorm, x, rhs, **kwargs)
    monkeypatch.setattr(solvers, "_check_residual", spy)
    return solved, checked


def test_desk_fine_march_checks_each_step_once(monkeypatch):
    # the desk problem's fine exponential-sum march: 1000 steps, each
    # solution checked once, however the blocks and chunks fall
    mesh = build_mesh(8, 8)
    ops = assemble_operators(mesh, CoefficientField.constant(mesh))
    spec = make_spec(tau_f=1e-3)
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    solved, checked = checked_solves(monkeypatch)
    fine_soe_solve(spec, mesh, ops, soe)
    assert solved == checked
    assert sum(checked.values()) == spec.n_fine_total == 1000


def test_every_march_checks_each_step_once(monkeypatch, mesh44, ops44,
                                           space44, kappa44):
    # the L1 march, and both propagators of a parareal solve on the
    # factorized path, whose coarse steps are blocks of one step
    spec = make_spec(kappa=kappa44, tau_f=1.0 / 64.0, tau_c=0.125)
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    solved, checked = checked_solves(monkeypatch)
    reference_l1_solve(spec, mesh44, ops44)
    assert solved == checked and sum(checked.values()) == spec.n_fine_total
    solved.clear()
    checked.clear()
    ctx = build_context(spec, space44, soe)
    assert not ctx.modal
    wemp_solve(ctx, delta=0.0, k_max=2)
    # the coarse sweep, then per iteration the jumps' fine and coarse
    # steps and the sweep's coarse steps
    steps = spec.n_coarse * (1 + 2 * (spec.m_sub + 2))
    assert solved == checked and sum(checked.values()) == steps


def test_modal_rule():
    # (steps, columns, half-bandwidth of the step) of the benchmark's
    # marches (test_fem pins the half-bandwidths): desk and scale in the
    # multiscale space, then on the fine grid
    assert solvers.use_modes(1000, 833, 152)
    assert not solvers.use_modes(50, 3825, 288)
    assert not solvers.use_modes(1000, 3969, 64)
    assert not solvers.use_modes(50, 16129, 128)
    # the band term: 3825 columns pay from 6329 steps, the desk's fine grid
    # from 30,295
    for n_steps, n, b in ((6329, 3825, 288), (30295, 3969, 64)):
        assert solvers.use_modes(n_steps, n, b)
        assert not solvers.use_modes(n_steps - 1, n, b)
    assert not solvers.use_modes(3825, 3825, 288)
    # the storage budget: the scale fine grid, whose dense n x n arrays
    # would take 8.3 GB, stays factorized at the band term's 252,079 steps
    # and beyond; 7905 columns are the widest modal space
    assert 8 * 129 * 252079 >= 16129 ** 2
    assert not solvers.use_modes(252079, 16129, 128)
    assert not solvers.use_modes(10 ** 9, 16129, 128)
    assert solvers.use_modes(10 ** 6, 7905, 7904)
    assert not solvers.use_modes(10 ** 6, 7906, 7905)
    # the floor n: 833 columns from 833 steps, where the band term alone
    # gives 567; space44 (b = 44) stays factorized at criterion 6's 64
    assert solvers.use_modes(833, 833, 152)
    assert not solvers.use_modes(832, 833, 152)
    assert not solvers.use_modes(64, 81, 44)
    assert solvers.use_modes(81, 81, 44)


def test_modal_march_matches_cholesky_march(space44, kappa44):
    spec = modal_spec(kappa44)
    soe = build_soe(0.5, spec.tau_f, 1e-2)
    assert solvers.march_context(spec, space44, soe, ()).modal
    modal = multiscale_soe_solve(spec, space44, soe)

    def load(t):
        return space44.basis.T @ assemble_load(space44.mesh, space44.fine_ops,
                                               spec.f, t)
    v0 = space44.project(spec.nodal_u0(space44.mesh))
    solve = solvers.factorized_step(space44.ms_mass, space44.ms_stiffness,
                                    spec.tau_f, spec.alpha)
    coeffs = step_coefficients(soe, spec.tau_f)
    v, psi = v0, np.zeros((soe.n_terms, v0.size))
    dense = [v0]
    for n in range(spec.n_coarse):
        instants = solvers.slab_instants(n, spec.m_sub, spec.tau_f)
        v, psi = solvers.soe_march(solve, space44.ms_mass, soe, coeffs, v,
                                   v0, psi, instants, map(load, instants))
        dense.append(v)
    dense = np.array(dense)
    assert np.array_equal(modal.states[0], dense[0])
    assert np.abs(modal.states - dense).max() <= 1e-6 * np.abs(dense).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_modal_march_rejects_nonfinite_load(space44, kappa44, bad):
    # the modal step has no residual check to refuse a non-finite
    # right-hand side, so the stored states are checked instead
    def source(x, y, t):
        return np.where(t > 0.5, bad, source_smooth(x, y, t))
    spec = modal_spec(kappa44, f=source)
    soe = build_soe(0.5, spec.tau_f, 1e-2)
    assert solvers.march_context(spec, space44, soe, ()).modal
    with np.errstate(invalid="ignore"), \
            pytest.raises(RuntimeError, match="non-finite"):
        multiscale_soe_solve(spec, space44, soe)


def test_modal_march_logs_its_modes_once(space44, kappa44, caplog):
    soe = build_soe(0.5, 1.0 / 128.0, 1e-2)
    with caplog.at_level(logging.DEBUG, logger="wemp.solvers"):
        multiscale_soe_solve(modal_spec(kappa44), space44, soe)
        multiscale_soe_solve(make_spec(kappa=kappa44, tau_f=1.0 / 64.0,
                                       tau_c=0.125), space44, soe)
    modal = [r.getMessage() for r in caplog.records
             if r.name == "wemp.solvers"]
    assert len(modal) == 1
    assert "backward error" in modal[0]


# ------------------------------------------------------ error output


def test_relative_errors_by_hand():
    import scipy.sparse as sp
    from wemp.fem import OperatorPair
    ops = OperatorPair(mass=sp.identity(2, format="csr"),
                       stiffness=sp.csr_matrix(np.diag([4.0, 4.0])),
                       free_dofs=np.arange(2))
    ref = np.array([[3.0, 4.0], [0.0, 0.0]])
    states = np.array([[3.0, 4.0 + 0.5], [0.0, 0.0]])
    rl2, ren = relative_errors_percent(states, ref, ops)
    assert rl2[0] == pytest.approx(100.0 * 0.5 / 5.0)
    assert ren[0] == pytest.approx(100.0 * 1.0 / 10.0)
    assert rl2[1] == 0.0 and ren[1] == 0.0
    bad = np.array([[1.0, 0.0], [0.0, 0.0]])
    rl2b, _ = relative_errors_percent(bad, np.zeros((2, 2)), ops)
    assert np.isinf(rl2b[0])
    with pytest.raises(ValueError):
        relative_errors_percent(np.zeros((2, 2)), np.zeros((3, 2)), ops)


def test_write_error_csv(tmp_path):
    path = tmp_path / "err.csv"
    write_error_csv(path, [0.1, 0.2], [1.0, 2.0], [3.0, 4.0])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,relL2,relEnergy"
    assert [float(v) for v in lines[1].split(",")] == [0.1, 1.0, 3.0]
    assert len(lines) == 3
