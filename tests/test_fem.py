import numpy as np
import pytest
import scipy.sparse as sp

from wemp import fem
from wemp.experiments import generate_kappa
from wemp.fem import (
    CoefficientField,
    _check_residual,
    assemble_load,
    assemble_operators,
    assemble_submesh_operators,
    factorized_spd,
    half_bandwidth,
    norms,
    read_kappa_raster,
)
from wemp.mesh import build_mesh
from wemp.msfem import assemble_space, build_partition_of_unity
from wemp.solvers import factorized_step

from conftest import (dense_p1_operators, domain_boundary, fine_triangles,
                      kernel_spy)


def test_against_dense_assembly():
    # vectorized sparse assembly vs the naive per-triangle oracle,
    # with a deliberately non-constant coefficient
    mesh = build_mesh(3, 2)
    rng = np.random.default_rng(3)
    kappa = CoefficientField(rng.uniform(0.5, 4.0, mesh.n_fine_per_axis ** 2))
    op = assemble_operators(mesh, kappa)
    mass_ref, stiff_ref = dense_p1_operators(
        mesh.fine_node_coords, fine_triangles(mesh), np.repeat(kappa.values, 2))
    assert np.allclose(op.mass.toarray(), mass_ref, atol=1e-14)
    assert np.allclose(op.stiffness.toarray(), stiff_ref, atol=1e-12)


def test_mass_total_and_stiffness_rowsums(ops44):
    # sum of all mass entries = measure of the domain, stiffness kills constants
    assert ops44.mass.sum() == pytest.approx(1.0, abs=1e-13)
    rowsums = np.asarray(ops44.stiffness.sum(axis=1)).ravel()
    assert np.max(np.abs(rowsums)) < 1e-12


def test_unit_kappa_gives_five_point_stencil():
    # P1 on the uniform diagonal split reproduces the classical 5-point stencil
    mesh = build_mesh(2, 2)
    op = assemble_operators(mesh, CoefficientField.constant(mesh))
    n = mesh.n_fine_per_axis
    a = op.stiffness.toarray()
    center = mesh.node_index(2, 2)
    row = a[center]
    expected = np.zeros_like(row)
    expected[center] = 4.0
    for nb in (mesh.node_index(1, 2), mesh.node_index(3, 2),
               mesh.node_index(2, 1), mesh.node_index(2, 3)):
        expected[nb] = -1.0
    assert np.allclose(row, expected, atol=1e-13)
    assert n == 4


def test_kappa_scaling():
    mesh = build_mesh(2, 3)
    op1 = assemble_operators(mesh, CoefficientField.constant(mesh, 1.0))
    op7 = assemble_operators(mesh, CoefficientField.constant(mesh, 7.0))
    assert np.allclose(op7.stiffness.toarray(), 7.0 * op1.stiffness.toarray())
    assert np.allclose(op7.mass.toarray(), op1.mass.toarray())


def test_free_dofs_are_interior(ops44, mesh44):
    assert np.array_equal(ops44.free_dofs, np.setdiff1d(
        np.arange(mesh44.n_nodes), domain_boundary(mesh44)))
    nf = ops44.free_dofs.size
    assert ops44.mass_free.shape == (nf, nf)
    assert ops44.stiffness_free.shape == (nf, nf)


def test_norms_of_linear_function(ops44, mesh44):
    # v = x is in the P1 space: ||x||_L2 = 1/sqrt(3), |x|_energy = 1
    v = mesh44.fine_node_coords[:, 0].copy()
    l2, energy = norms(ops44, v)
    assert l2 == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
    assert energy == pytest.approx(1.0, rel=1e-12)


def test_load_integrates_linear_source(mesh44, ops44):
    # 1^T M f = integral of the interpolant, exact for functions linear in x, y
    f = lambda x, y, t: x + 2.0 * y + t
    load = assemble_load(mesh44, ops44, f, 0.25)
    assert load.sum() == pytest.approx(0.5 + 1.0 + 0.25, rel=1e-12)


def test_factorized_spd_sparse():
    a = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = factorized_spd(a)(np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0])


# BAND_FILL_LIMIT values that put any matrix on one kernel of
# factorized_spd
KERNELS = (("band", 10 ** 9), ("superlu", 0))


def test_block_solve_equals_column_solves(monkeypatch):
    rng = np.random.default_rng(6)
    b = rng.standard_normal((30, 30))
    a = b @ b.T + 30.0 * np.eye(30)
    rhs = rng.standard_normal((30, 5)) * np.logspace(-3, 3, 5)
    used = kernel_spy(monkeypatch)
    for kernel, limit in KERNELS:
        monkeypatch.setattr(fem, "BAND_FILL_LIMIT", limit)
        solve = factorized_spd(sp.csc_matrix(a))
        assert used.pop() == kernel
        block = solve(rhs)
        for j in range(5):
            assert np.array_equal(block[:, j], solve(rhs[:, j]))


def test_residual_check_is_per_column():
    # column 0 is off by 1e-6 relative; column 1, 1e6 times larger, would
    # hide that error in one norm over the whole block
    rhs = np.array([[1.0, 1e6], [1.0, 1e6]])
    x = rhs.copy()
    x[:, 0] *= 1.0 + 1e-6
    with pytest.raises(RuntimeError, match="residual check"):
        _check_residual(np.eye(2), 1.0, x, rhs)
    _check_residual(np.eye(2), 1.0, rhs.copy(), rhs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_rejects_nonfinite_rhs(monkeypatch, bad):
    a = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    used = kernel_spy(monkeypatch)
    for kernel, limit in KERNELS:
        monkeypatch.setattr(fem, "BAND_FILL_LIMIT", limit)
        solve = factorized_spd(sp.csc_matrix(a))
        assert used.pop() == kernel
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError):
            solve(np.array([1.0, bad, 2.0]))


def test_solve_singular_raises(monkeypatch):
    # a singular and an indefinite matrix on either kernel: SuperLU, which
    # pivots on the diagonal, refuses an exactly zero pivot itself, and
    # factorized_spd refuses a negative one
    singular, indefinite = [[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]
    used = kernel_spy(monkeypatch)
    for kernel, matrix, message in (
            ("superlu", singular, "singular"),
            ("superlu", indefinite, "not positive definite"),
            ("band", singular, "not positive definite"),
            ("band", indefinite, "not positive definite")):
        monkeypatch.setattr(fem, "BAND_FILL_LIMIT", dict(KERNELS)[kernel])
        with pytest.raises(RuntimeError, match=message):
            factorized_spd(sp.csc_matrix(np.array(matrix)))(
                np.array([1.0, 2.0]))
        assert used.pop() == kernel


@pytest.mark.parametrize("kernel,limit", KERNELS)
def test_both_kernels_solve_one_spd_matrix(monkeypatch, kernel, limit):
    # the fine step matrix of a 4x4 mesh with 4 refinements (b = 16,
    # (b + 1) n / nnz = 2.6), put on either side of the cut-off; both
    # solutions lie within 1e-14 of a dense solve, relative to its largest
    # entry (6.8e-16 band and 5.4e-16 SuperLU measured)
    mesh = build_mesh(4, 4)
    rng = np.random.default_rng(8)
    op = assemble_operators(mesh, CoefficientField(
        rng.uniform(1.0, 3.0, mesh.n_fine_per_axis ** 2)))
    step = (op.mass_free * 1e3 + op.stiffness_free).copy()
    rhs = rng.standard_normal((step.shape[0], 3))
    monkeypatch.setattr(fem, "BAND_FILL_LIMIT", limit)
    used = kernel_spy(monkeypatch)
    solve = factorized_spd(step)
    assert used == [kernel]
    dense = np.linalg.solve(step.toarray(), rhs)
    for b, ref in ((rhs, dense), (rhs[:, 1], dense[:, 1])):
        x = solve(b)
        assert x.shape == b.shape
        assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("coarse,inclusions,fine_kernel,bands",
                         [(8, 16, "band", (152, 64)),
                          (16, 64, "superlu", (288, 128))],
                         ids=["desk", "scale"])
def test_kernel_selection_on_the_workload_shapes(monkeypatch, coarse,
                                                 inclusions, fine_kernel,
                                                 bands):
    # the benchmark's problems (seed 7): every partition-of-unity,
    # Dirichlet, corrector, ms step and ms mass matrix takes the band, and
    # so does the desk's fine step; the scale fine step, whose band is
    # 18.6 times its nnz, takes SuperLU. The ms and fine steps' half-
    # bandwidths, which solvers.use_modes reads, are `bands`
    mesh = build_mesh(coarse, 8)
    kappa = generate_kappa("contrast-inclusions", {
        "contrast": 1e4, "count": inclusions, "size": 4}, mesh, seed=7)
    used = kernel_spy(monkeypatch)
    space = assemble_space(mesh, kappa, build_partition_of_unity(mesh, kappa),
                           2)
    assert used == ["band"] * (1 + 2 * np.count_nonzero(
        mesh.coarse_vertex_interior))
    used.clear()
    op = assemble_operators(mesh, kappa)
    factorized_spd(space.ms_mass)
    for tau in (1e-3, 1e-2):
        factorized_step(space.ms_mass, space.ms_stiffness, tau, 0.5)
    factorized_step(op.mass_free, op.stiffness_free, 1e-3, 0.5)
    assert used == ["band"] * 3 + [fine_kernel]
    assert tuple(max(half_bandwidth(m) for m in pair) for pair in (
        (space.ms_mass, space.ms_stiffness),
        (op.mass_free, op.stiffness_free))) == bands


def test_submesh_assembly_matches_global():
    mesh = build_mesh(2, 2)
    rng = np.random.default_rng(11)
    kappa = CoefficientField(rng.uniform(1.0, 3.0, mesh.n_fine_per_axis ** 2))
    all_cells = np.arange(mesh.n_fine_per_axis ** 2)
    local_nodes, m_loc, a_loc = assemble_submesh_operators(mesh, kappa, all_cells)
    op = assemble_operators(mesh, kappa)
    assert np.array_equal(local_nodes, np.arange(mesh.n_nodes))
    assert np.allclose(m_loc.toarray(), op.mass.toarray())
    assert np.allclose(a_loc.toarray(), op.stiffness.toarray())


@pytest.mark.parametrize("x_cells,y_cells", [((2, 7), (1, 4)), ((5, 6), (3, 4))],
                         ids=["5x3", "one-cell"])
def test_submesh_operators_match_the_dense_oracle(x_cells, y_cells):
    # the per-shape template against naive assembly of the rectangle's own
    # triangles, at contrast 1e4; the one-cell rectangle has no interior node
    mesh = build_mesh(3, 4)
    n = mesh.n_fine_per_axis
    rng = np.random.default_rng(5)
    kappa = CoefficientField(np.where(rng.random(n * n) < 0.3, 1e4, 1.0))
    cx, cy = np.meshgrid(np.arange(*x_cells), np.arange(*y_cells))
    cells = np.sort(mesh.cell_index(cx, cy).ravel())
    local_nodes, m_loc, a_loc = assemble_submesh_operators(mesh, kappa, cells)
    tri_idx = np.sort(np.concatenate([2 * cells, 2 * cells + 1]))
    tris = fine_triangles(mesh)[tri_idx]
    assert np.array_equal(local_nodes, np.unique(tris))
    mass_ref, stiff_ref = dense_p1_operators(
        mesh.fine_node_coords[local_nodes],
        np.searchsorted(local_nodes, tris), kappa.values[tri_idx // 2])
    for matrix, ref in ((m_loc, mass_ref), (a_loc, stiff_ref)):
        assert np.abs(matrix.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()


def test_submesh_assembly_rejects_cells_that_are_no_rectangle():
    mesh = build_mesh(4, 2)
    kappa = CoefficientField.constant(mesh)
    for cells in ([0, 1, 8], [0, 2], [0, 2, 8, 9], [1, 0], []):
        with pytest.raises(ValueError, match="fine_cells"):
            assemble_submesh_operators(mesh, kappa, np.array(cells, dtype=int))


def test_submesh_assembly_subset_area():
    mesh = build_mesh(4, 2)
    kappa = CoefficientField.constant(mesh)
    cells = np.array([0, 1, 8, 9])   # 2x2 block of fine cells in the corner
    local_nodes, m_loc, _ = assemble_submesh_operators(mesh, kappa, cells)
    assert local_nodes.size == 9
    assert m_loc.sum() == pytest.approx(4 * mesh.h ** 2, rel=1e-12)


def test_coefficient_field_validation():
    for bad in (-2.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            CoefficientField(np.array([1.0, bad]))
    with pytest.raises(ValueError):
        CoefficientField(np.ones((2, 2)))
    mesh = build_mesh(2, 2)
    with pytest.raises(ValueError):
        assemble_operators(mesh, CoefficientField(np.ones(5)))


def test_kappa_raster_roundtrip(tmp_path):
    values = np.array([1.0, 10000.0, 0.5, np.pi, 2.0, 3.0])
    path = tmp_path / "field.txt"
    path.write_text(f"kappa 3 2\n1.0 10000.0 0.5\n{np.pi!r} 2.0 3.0\n")
    back = read_kappa_raster(path)
    assert np.array_equal(back.values, values)


def test_kappa_raster_errors(tmp_path):
    p = tmp_path / "header.txt"
    p.write_text("raster 2 2\n1 2 3 4\n")
    with pytest.raises(ValueError):
        read_kappa_raster(p)
    q = tmp_path / "short.txt"
    q.write_text("kappa 2 2\n1 2 3\n")
    with pytest.raises(ValueError):
        read_kappa_raster(q)
    r = tmp_path / "infinite.txt"
    r.write_text("kappa 2 1\n1.0 inf\n")
    with pytest.raises(ValueError, match="finite"):
        read_kappa_raster(r)
