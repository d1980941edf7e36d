import dataclasses
import logging
from collections import Counter

import numpy as np
import pytest
from scipy.special import gamma

from wemp import fem, msfem, parareal, solvers
from wemp.experiments import source_smooth, u0_standard
from wemp.fem import assemble_load
from wemp.msfem import MultiscaleSpace, fine_space
from wemp.parareal import (
    PropagatorContext,
    build_context,
    coarse_propagate,
    fine_propagate,
    hybrid_fixed_point,
    initial_coarse_sweep,
    jump,
    wemp_iteration,
    wemp_solve,
    write_iteration_csv,
)
from wemp.soe import build_soe
from wemp.solvers import ProblemSpec, multiscale_soe_solve, single_dof_setup
from wemp.stepping import propagate_history_with


def make_spec(**kw):
    base = dict(alpha=0.5, T=1.0, tau_f=1.0 / 64.0, tau_c=0.125,
                u0=u0_standard, f=source_smooth, kappa=None, level=1,
                epsilon=1e-2)
    base.update(kw)
    return ProblemSpec(**base)


@pytest.fixture(scope="module")
def ctx44(space44, kappa44):
    spec = make_spec(kappa=kappa44)
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    return build_context(spec, space44, soe)


def test_context_fields(space44, kappa44, ctx44):
    spec = make_spec(kappa=kappa44)
    assert ctx44.n_slabs == spec.n_coarse == 8
    assert ctx44.m_sub == spec.m_sub == 8
    assert ctx44.coarse_coeffs.tau == spec.tau_c
    assert ctx44.fine_coeffs.tau == spec.tau_f
    coords = space44.mesh.fine_node_coords
    u0 = u0_standard(coords[:, 0], coords[:, 1])
    assert np.array_equal(ctx44.u0, space44.project(u0))
    psi = ctx44.fresh_history()
    assert psi.shape == (ctx44.soe.n_terms, space44.n_columns)
    assert not psi.any()


def test_zero_data_iterates_stay_zero(space44, kappa44):
    spec = make_spec(kappa=kappa44,
                     u0=lambda x, y: np.zeros_like(x), f=None)
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    ctx = build_context(spec, space44, soe)
    state = initial_coarse_sweep(ctx)
    assert np.all(state.solutions == 0.0)
    state = wemp_iteration(ctx, state)
    assert np.all(state.solutions == 0.0)
    assert state.err == 0.0


def test_equal_steps_make_zero_jumps(space44, kappa44):
    # tau_f = tau_c: fine and coarse propagators coincide, the first
    # correction leaves the coarse sweep untouched
    spec = make_spec(kappa=kappa44, tau_f=0.125)
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    ctx = build_context(spec, space44, soe)
    state0 = initial_coarse_sweep(ctx)
    state1 = wemp_iteration(ctx, state0)
    assert np.array_equal(state1.solutions, state0.solutions)
    assert state1.err == 0.0


def test_jump_is_linear_without_data():
    # with zero initial data and no source the slab correction is linear
    spec = make_spec(u0=lambda x, y: np.zeros_like(x), f=None,
                     tau_c=0.5, tau_f=0.125)
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    ctx = build_context(spec, fine_space(*single_dof_setup()), soe)
    phi = ctx.fresh_history()
    u = np.array([1.3])
    j1 = jump(ctx, 1, u, phi)
    j2 = jump(ctx, 1, -2.0 * u, phi)
    assert np.allclose(j2, -2.0 * j1, rtol=1e-13)


def test_coarse_propagate_hand_recurrence():
    # scalar slab step checked against the written-out implicit formula
    alpha, rate = 0.5, 2.0
    spec = make_spec(alpha=alpha, u0=lambda x, y: np.ones_like(x), f=None,
                     tau_c=0.25, tau_f=0.25 / 4)
    soe = build_soe(alpha, spec.tau_f, 1e-2)
    ctx = build_context(spec, fine_space(*single_dof_setup(rate)), soe)
    u0 = ctx.u0[0]
    assert u0 == 1.0

    c_a = gamma(2.0 - alpha)
    g1 = gamma(1.0 - alpha)
    tau = spec.tau_c
    known = alpha / (tau ** alpha * c_a) * u0 + u0 / (tau ** alpha * g1)
    expected = known / (1.0 / (tau ** alpha * c_a) + rate)
    v, psi = coarse_propagate(ctx, 0, ctx.u0, ctx.fresh_history())
    assert v[0] == pytest.approx(expected, rel=1e-14)
    # history picks up exactly c1 u0 + c2 v per term
    manual = ctx.coarse_coeffs.c1 * u0 + ctx.coarse_coeffs.c2 * v[0]
    assert np.allclose(psi[:, 0], manual, rtol=1e-14)


def test_first_slab_jump_order_scalar():
    # the single-mode problem is nonstiff, so halving tau_c visibly shrinks
    # the first-slab correction (the predicted positive power of tau_c)
    norms = {}
    for tau_c in (0.5, 0.25):
        spec = make_spec(u0=lambda x, y: np.ones_like(x), f=None,
                         tau_c=tau_c, tau_f=1.0 / 64.0)
        soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
        ctx = build_context(spec, fine_space(*single_dof_setup()), soe)
        norms[tau_c] = np.linalg.norm(jump(ctx, 0, ctx.u0, ctx.fresh_history()))
    order = np.log2(norms[0.5] / norms[0.25])
    assert order > 0.1


def test_initial_sweep_matches_manual_loop(ctx44):
    state = initial_coarse_sweep(ctx44)
    u = ctx44.u0.copy()
    phi = ctx44.fresh_history()
    for n in range(ctx44.n_slabs):
        u, phi = coarse_propagate(ctx44, n, u, phi)
        assert np.array_equal(state.solutions[n + 1], u)
    assert state.iteration == 0


def test_initial_sweep_updates_each_history_once(ctx44, monkeypatch):
    # iterate 0 keeps the histories G returns instead of rebuilding them
    calls = []

    def counting(*args):
        calls.append(args)
        return propagate_history_with(*args)
    monkeypatch.setattr(solvers, "propagate_history_with", counting)
    monkeypatch.setattr(parareal, "propagate_history_with", counting)
    initial_coarse_sweep(ctx44)
    assert len(calls) == ctx44.n_slabs


def test_iteration_matches_manual_formula(ctx44):
    # recompute U_k^n = S(U_{k-1}^{n-1}) + G(U_k^{n-1}) by hand
    prev = initial_coarse_sweep(ctx44)
    new = wemp_iteration(ctx44, prev)
    jumps = np.array([jump(ctx44, n, prev.solutions[n], prev.histories[n])
                      for n in range(ctx44.n_slabs)])
    u = ctx44.u0.copy()
    phis = [ctx44.fresh_history()]
    for n in range(1, ctx44.n_slabs + 1):
        g_val, _ = coarse_propagate(ctx44, n - 1, u, phis[n - 1])
        u_next = jumps[n - 1] + g_val
        phis.append(propagate_history_with(phis[n - 1], ctx44.coarse_coeffs,
                                           np.stack((u, u_next))))
        assert np.array_equal(new.solutions[n], u_next)
        u = u_next
    expected_err = np.mean(np.linalg.norm(new.solutions[1:] - prev.solutions[1:],
                                          axis=1))
    assert new.err == pytest.approx(expected_err, rel=1e-15)


def test_first_slab_exact_after_one_iteration(ctx44):
    state = wemp_iteration(ctx44, initial_coarse_sweep(ctx44))
    fine_v, _ = fine_propagate(ctx44, 0, ctx44.u0, ctx44.fresh_history())
    scale = np.linalg.norm(fine_v)
    assert np.linalg.norm(state.solutions[1] - fine_v) <= 1e-12 * scale


def test_iteration_contracts(ctx44):
    states, _ = wemp_solve(ctx44, delta=0.0, k_max=3)
    errs = [s.err for s in states[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_hybrid_fixed_point_is_invariant(ctx44):
    fixed = hybrid_fixed_point(ctx44)
    once = wemp_iteration(ctx44, fixed)
    scale = np.abs(fixed.solutions).max()
    assert np.abs(once.solutions - fixed.solutions).max() <= 1e-10 * scale


def test_replay_histories(ctx44):
    # the boundary histories are the tau_c recurrence over the solutions
    state = wemp_iteration(ctx44, initial_coarse_sweep(ctx44))
    replayed = [ctx44.fresh_history()]
    for n in range(ctx44.n_slabs):
        replayed.append(propagate_history_with(
            replayed[n], ctx44.coarse_coeffs, state.solutions[n:n + 2]))
    assert len(replayed) == len(state.histories)
    for a, b in zip(replayed, state.histories):
        assert np.array_equal(a, b)


def test_chained_fine_propagation_is_sequential_solve(space44, kappa44, ctx44):
    # driving fine_propagate through all slabs reproduces the sequential
    # multiscale solver at the slab boundaries
    spec = make_spec(kappa=kappa44)
    seq = multiscale_soe_solve(spec, space44, ctx44.soe)
    u = ctx44.u0.copy()
    phi = ctx44.fresh_history()
    chained = [u.copy()]
    for n in range(ctx44.n_slabs):
        u, phi = fine_propagate(ctx44, n, u, phi)
        chained.append(u.copy())
    chained = np.array(chained)
    scale = np.abs(seq.states).max()
    assert np.abs(chained - seq.states).max() <= 1e-12 * scale


def test_chained_fine_propagation_is_the_march_bit_for_bit(space44, kappa44):
    # on the factorized path, with a tau_c that is no power of two, the
    # slabs step through the sequential march's own instants and loads
    spec = make_spec(kappa=kappa44, T=0.5, tau_c=0.1, tau_f=0.01)
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    ctx = build_context(spec, space44, soe)
    assert not ctx.modal
    u, phi = ctx.u0, ctx.fresh_history()
    chained = [u]
    for n in range(ctx.n_slabs):
        u, phi = fine_propagate(ctx, n, u, phi)
        chained.append(u)
    assert np.array_equal(np.array(chained),
                          multiscale_soe_solve(spec, space44, soe).states)


@pytest.mark.parametrize("modal,fine", [(False, False), (True, False),
                                        (False, True)],
                         ids=["False", "True", "fine"])
def test_fixed_point_at_equal_steps_is_the_sequential_march(
        space44, kappa44, ops44, modal, fine):
    # at tau_c = tau_f the tau_c history rebuild is the fine step's own
    # update, so the fixed point is the sequential march: bit for bit on
    # the factorized path, in space44 and on its fine grid, up to the slab
    # map's rounding on the modal one
    space = fine_space(space44.mesh, ops44) if fine else space44
    tau = 1.0 / 128.0 if modal else 1.0 / 32.0
    spec = make_spec(kappa=kappa44, T=1.0 if modal else 0.5,
                     tau_c=tau, tau_f=tau)
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    ctx = build_context(spec, space, soe)
    assert ctx.modal == modal
    fixed = hybrid_fixed_point(ctx).solutions
    seq = multiscale_soe_solve(spec, space, soe).states
    if modal:
        assert np.linalg.norm(fixed - seq) <= 1e-15 * np.linalg.norm(seq)
    else:
        assert np.array_equal(fixed, seq)


def test_wemp_solve_on_the_fine_space(mesh44, kappa44, ops44):
    # parareal with no multiscale reduction, on the 225 free dofs of
    # mesh44 (factorized path): slab 1 is the fine propagation within
    # criterion 5's 1e-12, and the last iterate keeps its histories
    spec = make_spec(kappa=kappa44)
    ctx = build_context(spec, fine_space(mesh44, ops44),
                        build_soe(spec.alpha, spec.tau_f, 1e-2))
    assert not ctx.modal
    states, _ = wemp_solve(ctx, delta=0.0, k_max=3)
    first_slab, _ = fine_propagate(ctx, 0, ctx.u0.copy(), ctx.fresh_history())
    for state in states[1:]:
        assert state.solutions.shape == (ctx.n_slabs + 1, ops44.free_dofs.size)
        assert np.abs(state.solutions[1] - first_slab).max() <= 1e-12
    assert len(states[-1].histories) == ctx.n_slabs + 1
    assert states[1].err > states[2].err > states[3].err


def test_wemp_solve_stopping_and_timings(ctx44):
    states, timings = wemp_solve(ctx44, delta=1e30, k_max=5)
    assert len(states) == 2           # coarse sweep + one iteration, then stop
    assert timings[0]["k"] == 0
    assert timings[1]["k"] == 1
    assert "slab_s" in timings[1] and "sweep_s" in timings[1]
    assert timings[1]["err"] == states[1].err

    states2, _ = wemp_solve(ctx44, delta=0.0, k_max=2)
    assert len(states2) == 3          # k_max caps the loop


@pytest.mark.parametrize("delta", [float("nan"), -1e-8])
def test_wemp_solve_rejects_a_bad_delta(ctx44, delta):
    # no error is <= NaN, so a NaN delta would run all k_max iterations
    with pytest.raises(ValueError, match="delta must be >= 0"):
        wemp_solve(ctx44, delta=delta, k_max=2)


def test_wemp_solve_keeps_only_the_last_histories(ctx44):
    states, _ = wemp_solve(ctx44, delta=0.0, k_max=3)
    by_hand = [initial_coarse_sweep(ctx44)]
    for _ in range(3):
        by_hand.append(wemp_iteration(ctx44, by_hand[-1]))
    assert all(st.histories == () for st in states[:-1])
    assert len(states[-1].histories) == ctx44.n_slabs + 1
    for a, b in zip(states[-1].histories, by_hand[-1].histories):
        assert np.array_equal(a, b)
    for a, b in zip(states, by_hand):
        assert np.array_equal(a.solutions, b.solutions)


def counting_context(ctx):
    calls = []

    def source(x, y, t):
        calls.append(np.atleast_1d(t).tolist())
        return source_smooth(x, y, t)
    return dataclasses.replace(ctx, f=source), calls


def load_instants(ctx, fine_marches):
    # every coarse instant once and every fine instant fine_marches times: a
    # slab end is both a coarse and a fine instant
    coarse = [(n + 1) * ctx.tau_c for n in range(ctx.n_slabs)]
    return Counter(coarse + fine_marches * [
        t for n in range(ctx.n_slabs)
        for t in solvers.slab_instants(n, ctx.m_sub, ctx.tau_f)])


@pytest.mark.parametrize("modal", [False, True])
def test_each_load_instant_is_evaluated_once_per_solve(space44, kappa44, ctx44, modal):
    ctx, calls = counting_context(modal_context(space44, kappa44)[1] if modal
                                  else ctx44)
    assert ctx.modal == modal
    states, _ = wemp_solve(ctx, delta=0.0, k_max=3)
    # one block for the coarse instants, and one per fine slab march: once
    # per slab for the modal map, once per slab and iteration on the
    # factorized path, whose jumps march
    fine_marches = 1 if modal else 3
    assert len(calls) == 1 + fine_marches * ctx.n_slabs
    assert (Counter(t for call in calls for t in call)
            == load_instants(ctx, fine_marches))
    # the loads belong to the solve: a second solve evaluates them again
    again, _ = wemp_solve(ctx, delta=0.0, k_max=3)
    assert len(calls) == 2 * (1 + fine_marches * ctx.n_slabs)
    for a, b in zip(states, again):
        assert np.array_equal(a.solutions, b.solutions)


@pytest.mark.parametrize("modal", [False, True])
def test_load_blocks_match_per_instant_loads(space44, kappa44, ctx44, modal):
    ctx = modal_context(space44, kappa44)[1] if modal else ctx44
    assert ctx.modal == modal
    blocks = [solvers.slab_instants(n, ctx.m_sub, ctx.tau_f)
              for n in (0, ctx.n_slabs - 1)]
    blocks.append([(n + 1) * ctx.tau_c for n in range(ctx.n_slabs)])
    blocks = [(instants, ctx.load_block(instants)) for instants in blocks]
    for instants, block in blocks:
        assert block.shape == (len(instants), space44.n_columns)
        for t, row in zip(instants, block):
            fresh = space44.basis.T @ assemble_load(
                space44.mesh, space44.fine_ops, source_smooth, t)
            if modal:
                fresh = fresh @ ctx._modes[1]
            assert np.linalg.norm(row - fresh) <= 1e-14 * np.linalg.norm(fresh)


def nan_coarse_solve(ctx):
    """ctx with a tau_c step whose solve returns NaN (a Cholesky-path
    context); the step keeps its check."""
    step = ctx.solves[ctx.tau_c]
    return dataclasses.replace(ctx, solves={
        **ctx.solves, ctx.tau_c: dataclasses.replace(
            step, solve=lambda rhs: np.full_like(rhs, np.nan))})


def test_nonfinite_solution_raises(ctx44):
    # the first jump's coarse step fails its check, at the end of slab 0
    broken = nan_coarse_solve(ctx44)
    with pytest.raises(RuntimeError, match="residual check at t = 0.125:"):
        wemp_iteration(broken, initial_coarse_sweep(ctx44))


def test_nonfinite_coarse_sweep_raises(ctx44):
    # iterate 0 runs through the same steps, so it is checked too
    broken = nan_coarse_solve(ctx44)
    with pytest.raises(RuntimeError, match="residual check at t = 0.125:"):
        initial_coarse_sweep(broken)


def counting_factorizations(monkeypatch):
    calls = []

    def factorized_spd(matrix, **kwargs):
        calls.append(matrix.shape)
        return fem.factorized_spd(matrix, **kwargs)
    monkeypatch.setattr(solvers, "factorized_spd", factorized_spd)
    return calls


def test_equal_steps_factorize_once(space44, kappa44, monkeypatch):
    # tau_c = tau_f (m_sub = 1): one distinct step size, one factorization
    calls = counting_factorizations(monkeypatch)
    spec = make_spec(kappa=kappa44, tau_c=1.0 / 64.0)
    build_context(spec, space44, build_soe(spec.alpha, spec.tau_f, 1e-2))
    assert calls == [(space44.n_columns, space44.n_columns)]


def test_solve_reuses_the_context_factorizations(ctx44, monkeypatch):
    # the Cholesky path factorizes in build_context, never in wemp_solve
    calls = counting_factorizations(monkeypatch)
    wemp_solve(ctx44, delta=0.0, k_max=1)
    assert calls == []


@pytest.mark.parametrize("T,tau_c,tau_f,factorizations",
                         [(0.5, 0.1, 0.01, 1), (1.0, 0.125, 1.0 / 128.0, 0)])
def test_sequential_march_factorizes_only_its_fine_step(
        space44, kappa44, monkeypatch, T, tau_c, tau_f, factorizations):
    # 50 steps over the 81 columns of space44 take the factorized path and
    # factorize the tau_f step alone, never the tau_c one; 128 steps take
    # the modal path and factorize no step
    calls = counting_factorizations(monkeypatch)
    spec = make_spec(kappa=kappa44, T=T, tau_c=tau_c, tau_f=tau_f)
    multiscale_soe_solve(spec, space44,
                         build_soe(spec.alpha, spec.tau_f, 1e-2))
    assert calls == [(space44.n_columns, space44.n_columns)] * factorizations


def modal_context(space44, kappa44, **kw):
    # 128 fine steps over the 81 columns of space44: the modal path
    spec = make_spec(kappa=kappa44, tau_f=1.0 / 128.0, **kw)
    return spec, build_context(spec, space44,
                               build_soe(spec.alpha, spec.tau_f, 1e-2))


def test_modal_context_defers_its_modes(space44, kappa44, caplog):
    # set-up neither factorizes nor decomposes; each solve decomposes once
    _, ctx = modal_context(space44, kappa44)
    assert ctx.modal and ctx.solves == {}
    assert "_modes" not in vars(ctx)
    with caplog.at_level(logging.DEBUG, logger="wemp.solvers"):
        first, _ = wemp_solve(ctx, delta=0.0, k_max=2)
        again, _ = wemp_solve(ctx, delta=0.0, k_max=2)
    assert len([r for r in caplog.records if r.name == "wemp.solvers"]) == 2
    assert "_modes" not in vars(ctx)
    for a, b in zip(first, again):
        assert np.array_equal(a.solutions, b.solutions)


def test_modal_chaining_and_fixed_point(space44, kappa44):
    # criterion 6 on the modal path
    spec, ctx = modal_context(space44, kappa44)
    assert ctx.modal
    seq = multiscale_soe_solve(spec, space44, ctx.soe)
    u = ctx.u0.copy()
    phi = ctx.fresh_history()
    chained = [u.copy()]
    for n in range(ctx.n_slabs):
        u, phi = fine_propagate(ctx, n, u, phi)
        chained.append(u.copy())
    scale = np.abs(seq.states).max()
    assert np.abs(np.array(chained) - seq.states).max() <= 1e-12 * scale

    fixed = hybrid_fixed_point(ctx)
    once = wemp_iteration(ctx, fixed)
    scale = np.abs(fixed.solutions).max()
    assert np.abs(once.solutions - fixed.solutions).max() <= 1e-10 * scale


def test_modal_states_keep_ms_solutions(space44, kappa44):
    # solutions and err in ms coordinates, step values in modal ones, and
    # the first slab equal to the public fine propagation
    _, ctx = modal_context(space44, kappa44)
    prev = initial_coarse_sweep(ctx)
    state = wemp_iteration(ctx, prev)
    assert np.array_equal(state.solutions[0], ctx.u0)
    assert np.array_equal(state.solutions[1:],
                          ctx.to_ms(state.step_solutions)[1:])
    assert state.err == np.mean(np.linalg.norm(
        state.solutions[1:] - prev.solutions[1:], axis=1))
    fine_v, _ = fine_propagate(ctx, 0, ctx.u0, ctx.fresh_history())
    assert np.abs(state.solutions[1] - fine_v).max() <= 1e-12


def test_modal_nonfinite_load_raises(space44, kappa44):
    def source(x, y, t):
        return np.full_like(x, np.nan)
    _, ctx = modal_context(space44, kappa44, f=source)
    with np.errstate(invalid="ignore"), \
            pytest.raises(RuntimeError, match="iteration 0, slab boundary 1"):
        initial_coarse_sweep(ctx)


@pytest.mark.parametrize("case", ["space44", "scalar"])
def test_slab_map_matches_the_fine_march(space44, kappa44, case):
    if case == "space44":
        _, ctx = modal_context(space44, kappa44)
    else:
        spec = make_spec(u0=lambda x, y: np.ones_like(x),
                         f=lambda x, y, t: np.cos(3.0 * t) + 0.0 * x,
                         tau_f=1.0 / 128.0)
        ctx = build_context(spec, fine_space(*single_dof_setup(2.0)),
                            build_soe(spec.alpha, spec.tau_f, 1e-2))
    assert ctx.modal
    rng = np.random.default_rng(5)
    for n in (0, 1, ctx.n_slabs // 2, ctx.n_slabs - 1):
        U = rng.standard_normal(ctx.u0.size)
        Phi = rng.standard_normal((ctx.soe.n_terms, ctx.u0.size))
        marched, _ = ctx.fine(n, U, Phi)
        mapped = ctx.fine_end(n, U, Phi)
        assert (np.linalg.norm(mapped - marched)
                <= 1e-12 * np.linalg.norm(marched))


def test_modal_solve_steps_only_the_coarse_step(space44, kappa44, monkeypatch):
    # the slab map replaces every fine step of the solve
    _, ctx = modal_context(space44, kappa44)
    taus = []
    step = solvers.soe_implicit_step

    def recording(solve, mass, soe, coeffs, *args):
        taus.append(coeffs.tau)
        return step(solve, mass, soe, coeffs, *args)
    monkeypatch.setattr(solvers, "soe_implicit_step", recording)
    wemp_solve(ctx, delta=0.0, k_max=2)
    # the coarse sweep, then per iteration the jumps' and the sweep's steps
    assert taus == [ctx.tau_c] * (ctx.n_slabs * (1 + 2 * 2))


def test_each_projection_factorizes_the_mass(space44, kappa44, monkeypatch):
    # a space holds its fields and no factorization; build_context and
    # multiscale_soe_solve each project u0 on the modal path, which
    # factorizes no step, so ms_mass is factorized once per projection
    fields = {f.name for f in dataclasses.fields(MultiscaleSpace)}
    assert set(vars(space44)) == fields
    calls = []

    def factorized_spd(matrix):
        calls.append(matrix.shape)
        return fem.factorized_spd(matrix)
    monkeypatch.setattr(msfem, "factorized_spd", factorized_spd)
    monkeypatch.setattr(solvers, "factorized_spd", factorized_spd)
    spec = make_spec(kappa=kappa44, tau_f=1.0 / 128.0)
    soe = build_soe(spec.alpha, spec.tau_f, 1e-2)
    build_context(spec, space44, soe)
    multiscale_soe_solve(spec, space44, soe)
    assert calls == [(space44.n_columns, space44.n_columns)] * 2


def test_write_iteration_csv(tmp_path):
    path = tmp_path / "iters.csv"
    write_iteration_csv(path, [(1, 2, 3.0, 4.0, 5e-9)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,n,relL2,relEnergy,err"
    fields = lines[1].split(",")
    assert fields[:2] == ["1", "2"]
    assert float(fields[4]) == 5e-9
