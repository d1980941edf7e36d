import logging

import numpy as np
import pytest

from wemp import solvers
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
from wemp.stepping import l1_coefficients, l1_known_weights, mittag_leffler_neg


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


def test_solvers_share_the_slab_boundary_times(space44):
    mesh, ops = space44.mesh, space44.fine_ops
    spec = make_spec(kappa=space44.kappa)
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


def test_step_matrices_store_exactly_nnz(monkeypatch, space44, ops44):
    # the residual check keeps each step matrix for the solver's life, so
    # it holds no room left over from the sparse sum
    held = []

    def spy(matrix):
        held.append(matrix)
        return factorized_spd(matrix)
    monkeypatch.setattr(solvers, "factorized_spd", spy)
    for mass, stiffness in ((space44.ms_mass, space44.ms_stiffness),
                            (ops44.mass_free, ops44.stiffness_free)):
        solvers.factorized_step(mass, stiffness, 1e-3, 0.5)
    assert len(held) == 2
    for matrix in held:
        assert all(a.size == matrix.nnz
                   and (a.base is None or a.base.nbytes == a.nbytes)
                   for a in (matrix.data, matrix.indices))


def test_modal_rule():
    assert solvers.use_modes(1000, 833)          # the desk problem
    assert not solvers.use_modes(50, 3825)       # the scale set-up
    assert not solvers.use_modes(64, 81)         # criterion 6 on space44


def test_modal_march_matches_cholesky_march(space44):
    spec = modal_spec(space44.kappa)
    assert solvers.use_modes(spec.n_fine_total, space44.n_columns)
    soe = build_soe(0.5, spec.tau_f, 1e-2)
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
def test_modal_march_rejects_nonfinite_load(space44, bad):
    # the modal step has no residual check to refuse a non-finite
    # right-hand side, so the stored states are checked instead
    def source(x, y, t):
        return np.where(t > 0.5, bad, source_smooth(x, y, t))
    spec = modal_spec(space44.kappa, f=source)
    assert solvers.use_modes(spec.n_fine_total, space44.n_columns)
    soe = build_soe(0.5, spec.tau_f, 1e-2)
    with np.errstate(invalid="ignore"), \
            pytest.raises(RuntimeError, match="non-finite"):
        multiscale_soe_solve(spec, space44, soe)


def test_modal_march_logs_its_modes_once(space44, caplog):
    soe = build_soe(0.5, 1.0 / 128.0, 1e-2)
    with caplog.at_level(logging.DEBUG, logger="wemp.solvers"):
        multiscale_soe_solve(modal_spec(space44.kappa), space44, soe)
        multiscale_soe_solve(make_spec(kappa=space44.kappa, tau_f=1.0 / 64.0,
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
