import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

from wemp import fem, msfem
from wemp.experiments import generate_kappa
from wemp.fem import (CoefficientField, assemble_operators,
                      assemble_submesh_operators, triangle_geometry, norms)
from wemp.mesh import build_mesh, coarse_neighborhood, node_rectangle
from wemp.msfem import (
    _LocalSolver,
    _pivoted_gram_filter,
    _vertex_columns,
    assemble_space,
    build_partition_of_unity,
    edge_projection,
    edge_wavelets,
    eta_indicator,
    fine_space,
    segments_to_nodes,
    weighted_coefficient,
)

from conftest import dense_p1_operators, domain_boundary, kernel_spy


def contrast_field(mesh, contrast, seed=2):
    """A blocky high-contrast field for stress checks."""
    n = mesh.n_fine_per_axis
    rng = np.random.default_rng(seed)
    vals = np.ones(n * n)
    picks = rng.choice(n * n, size=max(n * n // 8, 1), replace=False)
    vals[picks] = contrast
    return CoefficientField(vals)


# ------------------------------------ column-at-a-time reference builds
#
# The multiscale space is built one block per rectangle. These oracles
# build it as it was built one column, one node and one vertex at a time,
# with dict remaps; the block code must reproduce them bit for bit.


def rectangle_boundary(rect):
    """Sorted global nodes of a rectangle's outer boundary."""
    return np.unique(np.concatenate(rect.boundary_edges))


def rectangle_nodes(mesh, rect):
    """Sorted global nodes of a rectangle's closure, from its node bounds."""
    (x0, x1), (y0, y1) = rect.node_range
    ix, iy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
    return np.sort(mesh.node_index(ix.ravel(), iy.ravel()))


def chi_row(pou, vertex):
    """chi_vertex as a dense vector over all fine nodes."""
    return pou.chi[vertex].toarray().ravel()


def lift_per_column(mesh, kappa, rect, traces):
    """Harmonic extension of each trace column by its own solve."""
    local_nodes, _, A = assemble_submesh_operators(mesh, kappa,
                                                   rect.fine_cells)
    remap = {g: i for i, g in enumerate(local_nodes)}
    bnd = np.array([remap[g] for g in rectangle_boundary(rect)])
    inner = np.setdiff1d(np.arange(local_nodes.size), bnd)
    # the band kernel solves column by column (dpbtrs runs one pair of
    # triangular band solves per column), so one column at a time
    # reproduces a block solve bit for bit
    solve = fem.factorized_spd(A[inner][:, inner].tocsc()) if inner.size \
        else None
    out = np.zeros((local_nodes.size, traces.shape[1]))
    for j in range(traces.shape[1]):
        out[bnd, j] = traces[:, j]
        if inner.size:
            out[inner, j] = solve(-(A[inner][:, bnd] @ traces[:, j]))
    return out


def pou_per_vertex(mesh, kappa):
    """chi from per-corner lifts gathered per vertex, one np.unique each."""
    C, R = mesh.coarse_divisions, mesh.refinements_per_coarse
    per_nodes = [[] for _ in range((C + 1) ** 2)]
    per_vals = [[] for _ in range((C + 1) ** 2)]
    for cy in range(C):
        for cx in range(C):
            cell = node_rectangle(mesh, (cx * R, (cx + 1) * R),
                                  (cy * R, (cy + 1) * R))
            iy, ix = np.divmod(rectangle_boundary(cell),
                               mesh.n_fine_per_axis + 1)
            xi = (ix - cx * R) / R
            eta = (iy - cy * R) / R
            corners = [mesh.coarse_vertex_index(cx + i, cy + j)
                       for j in (0, 1) for i in (0, 1)]
            data = ((1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta,
                    xi * eta)
            for vert, d in zip(corners, data):
                per_nodes[vert].append(rectangle_nodes(mesh, cell))
                per_vals[vert].append(
                    lift_per_column(mesh, kappa, cell, d[:, None])[:, 0])
    rows, cols, vals = [], [], []
    for vert in range((C + 1) ** 2):
        uniq, first = np.unique(np.concatenate(per_nodes[vert]),
                                return_index=True)
        rows.append(np.full(uniq.size, vert))
        cols.append(uniq)
        vals.append(np.concatenate(per_vals[vert])[first])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=((C + 1) ** 2, mesh.n_nodes)).tocsr()


def edge_columns_per_column(mesh, kappa, pou, level, vertex):
    """The 4 * 2^level edge columns of one neighborhood, trace by trace."""
    hood = coarse_neighborhood(mesh, vertex)
    bnd = rectangle_boundary(hood)
    bnd_pos = {g: i for i, g in enumerate(bnd)}
    chi_local = chi_row(pou, vertex)[rectangle_nodes(mesh, hood)]
    cols = []
    for side in hood.boundary_edges:
        for w in edge_wavelets(level, mesh.fine_node_coords[side]):
            trace = np.zeros(bnd.size)
            for node, value in zip(side, segments_to_nodes(w)):
                trace[bnd_pos[node]] += value
            lift = lift_per_column(mesh, kappa, hood, trace[:, None])[:, 0]
            cols.append(chi_local * lift)
    return np.array(cols)


def weighted_coefficient_per_vertex(mesh, kappa, pou):
    """kappa_tilde from one dense nodal vector per coarse vertex."""
    _, grads = triangle_geometry(mesh.fine_node_coords, mesh.fine_triangles)
    sum_sq = np.zeros(mesh.fine_triangles.shape[0])
    for vert in range(pou.chi.shape[0]):
        nodal = chi_row(pou, vert)[mesh.fine_triangles]
        active = np.any(nodal != 0.0, axis=1)
        vec = np.einsum("ti,tik->tk", nodal[active], grads[active])
        sum_sq[active] += vec[:, 0] ** 2 + vec[:, 1] ** 2
    val_tri = mesh.H ** 2 * np.repeat(kappa.values, 2) * sum_sq
    return 0.5 * (val_tri[0::2] + val_tri[1::2])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


# a high-contrast field, and R = 1, where a coarse cell has no interior node
BLOCK_CASES = {"contrast-4x4": (4, 4, 2), "one-refinement-3x1": (3, 1, 1)}


@pytest.fixture(scope="module", params=sorted(BLOCK_CASES))
def block_case(request):
    C, R, level = BLOCK_CASES[request.param]
    mesh = build_mesh(C, R)
    kappa = contrast_field(mesh, 1e4)
    return mesh, kappa, build_partition_of_unity(mesh, kappa), level


def test_pou_matches_per_vertex_assembly(block_case):
    # the cells' interiors come from one block-diagonal factorization, not
    # one per cell, so the values match to rounding (1.1e-13 measured on
    # the contrast case, and chi is at most 1); the pattern is the same
    mesh, kappa, pou, _ = block_case
    ref = pou_per_vertex(mesh, kappa)
    for name in ("indices", "indptr"):
        assert same_bits(getattr(pou.chi, name), getattr(ref, name))
    assert np.abs(pou.chi.data - ref.data).max() <= 1e-12


def test_weighted_coefficient_matches_per_vertex_loop(block_case):
    # summed over the four colour fields, not vertex by vertex: 1.4e-16
    # relative measured on the contrast case
    mesh, kappa, pou, _ = block_case
    ref = weighted_coefficient_per_vertex(mesh, kappa, pou)
    assert (np.abs(weighted_coefficient(mesh, kappa, pou) - ref).max()
            <= 1e-15 * np.abs(ref).max())


def test_vertex_columns_match_per_column_lifts(block_case):
    mesh, kappa, pou, level = block_case
    kt = weighted_coefficient(mesh, kappa, pou)
    for vertex in np.flatnonzero(mesh.coarse_vertex_interior):
        hood = coarse_neighborhood(mesh, vertex)
        solver, block, info = _vertex_columns(mesh, kappa, pou, level,
                                              vertex, kt)
        n_edge = 4 * 2 ** level
        assert len(block) == len(info) == n_edge + 1
        assert same_bits(solver.local_nodes, rectangle_nodes(mesh, hood))
        assert same_bits(block[:n_edge], edge_columns_per_column(
            mesh, kappa, pou, level, vertex))
        assert info[-1] == (vertex, "corrector", -1, 0)


def test_block_lift_matches_per_column_lifts(block_case):
    mesh, kappa, _, _ = block_case
    rng = np.random.default_rng(4)
    hood = coarse_neighborhood(mesh, int(np.flatnonzero(
        mesh.coarse_vertex_interior)[0]))
    traces = rng.standard_normal((rectangle_boundary(hood).size, 17))
    assert same_bits(_LocalSolver(mesh, kappa, hood).lift(traces),
                     lift_per_column(mesh, kappa, hood, traces))


# ---------------------------------------------------------------- pou


def test_pou_sums_to_one_high_contrast():
    mesh = build_mesh(4, 4)
    kappa = contrast_field(mesh, 1e4)
    pou = build_partition_of_unity(mesh, kappa)
    total = np.asarray(pou.chi.sum(axis=0)).ravel()
    assert np.max(np.abs(total - 1.0)) < 1e-10
    assert pou.chi.min() >= -1e-12
    assert pou.chi.max() <= 1.0 + 1e-12


def test_pou_kronecker_at_coarse_vertices(mesh44, pou44):
    r = mesh44.refinements_per_coarse
    c = mesh44.coarse_divisions
    for gy in range(c + 1):
        for gx in range(c + 1):
            vert = mesh44.coarse_vertex_index(gx, gy)
            node = mesh44.node_index(gx * r, gy * r)
            col = pou44.chi[:, node].toarray().ravel()
            expected = np.zeros((c + 1) ** 2)
            expected[vert] = 1.0
            assert np.allclose(col, expected, atol=1e-12)


def test_pou_linear_along_coarse_edges(mesh44, pou44):
    # chi varies linearly on the skeleton, e.g. along y = H between vertices
    r = mesh44.refinements_per_coarse
    vert = mesh44.coarse_vertex_index(1, 1)
    chi = chi_row(pou44, vert)
    nodes = mesh44.node_index(np.arange(2 * r + 1), np.full(2 * r + 1, r))
    expected = np.concatenate([np.linspace(0, 1, r + 1),
                               np.linspace(1, 0, r + 1)[1:]])
    assert np.allclose(chi[nodes], expected, atol=1e-12)


def test_pou_support_is_neighborhood(mesh44, pou44):
    vert = mesh44.coarse_vertex_index(1, 2)
    hood = coarse_neighborhood(mesh44, vert)
    chi = chi_row(pou44, vert)
    outside = np.setdiff1d(np.arange(mesh44.n_nodes),
                           rectangle_nodes(mesh44, hood))
    assert np.all(chi[outside] == 0.0)


def test_pou_vanishes_exactly_off_its_neighborhood_when_h_is_no_power_of_two():
    # H = 1/5 and h = 1/15: corner data from fine coordinates would leave
    # roundoff on each neighbourhood's outer boundary, and ms_mass would then
    # couple vertices two coarse steps apart
    mesh = build_mesh(5, 3)
    kappa = CoefficientField.constant(mesh)
    pou = build_partition_of_unity(mesh, kappa)
    for vert in np.flatnonzero(mesh.coarse_vertex_interior):
        bnd = rectangle_boundary(coarse_neighborhood(mesh, vert))
        assert np.all(pou.vertex_values(vert, bnd) == 0.0)
    space = assemble_space(mesh, kappa, pou, 1)
    grid = np.array([divmod(info[0], mesh.coarse_divisions + 1)
                     for info in space.column_info])
    mass = space.ms_mass.tocoo()
    apart = np.abs(grid[mass.row] - grid[mass.col]).max(axis=1)
    assert apart.max() == 1


def test_vertex_values_match_the_dense_row(block_case):
    # node sets holding a whole support, part of one, or none of it, over
    # rows that store explicit zeros
    mesh, _, pou, _ = block_case
    rng = np.random.default_rng(3)
    every = np.arange(mesh.n_nodes)
    for vert in range(pou.chi.shape[0]):
        row = chi_row(pou, vert)
        for nodes in (every, np.sort(rng.choice(every, 10, replace=False)),
                      every[:0]):
            assert same_bits(pou.vertex_values(vert, nodes), row[nodes])


def test_vertex_values_read_a_stored_negative_zero_as_zero():
    # toarray adds each stored entry to a zero, so a stored -0.0 reads
    # as 0.0; vertex_values must agree bit for bit
    chi = sp.csr_matrix((np.array([0.5, -0.0, 0.25]), np.array([1, 3, 4]),
                         np.array([0, 3])), shape=(1, 6))
    assert np.signbit(chi.data).sum() == 1
    pou = msfem.PartitionOfUnity(chi=chi)
    for nodes in (np.arange(6), np.array([3]), np.array([0, 3, 5])):
        values = pou.vertex_values(0, nodes)
        assert same_bits(values, chi_row(pou, 0)[nodes])
        assert not np.signbit(values).any()


def test_pou_is_cellwise_harmonic():
    # the stiffness residual of each chi vanishes at nodes strictly inside
    # any coarse cell (it is nonzero only on the skeleton)
    mesh = build_mesh(2, 4)
    rng = np.random.default_rng(5)
    kappa = CoefficientField(rng.uniform(0.5, 50.0, mesh.n_fine_per_axis ** 2))
    pou = build_partition_of_unity(mesh, kappa)
    op = assemble_operators(mesh, kappa)
    r = mesh.refinements_per_coarse
    ix = np.arange(mesh.n_fine_per_axis + 1)
    strict = (ix % r != 0)
    inner = np.flatnonzero(strict[:, None] & strict[None, :]).ravel()
    iy_grid, ix_grid = np.divmod(np.arange(mesh.n_nodes), mesh.n_fine_per_axis + 1)
    mask = strict[ix_grid] & strict[iy_grid]
    for vert in range(pou.chi.shape[0]):
        res = op.stiffness @ chi_row(pou, vert)
        assert np.max(np.abs(res[mask])) < 1e-11


def test_pou_center_value_closed_form():
    # one cell, two refinements, unit kappa: the 5-point solve at the lone
    # interior node gives exactly 1/4, matching the bilinear corner function
    mesh = build_mesh(1, 2)
    pou = build_partition_of_unity(mesh, CoefficientField.constant(mesh))
    chi = chi_row(pou, mesh.coarse_vertex_index(0, 0))
    assert chi[mesh.node_index(1, 1)] == pytest.approx(0.25, abs=1e-14)


def pou_meshes():
    """The block cases, and meshes whose H and h are no powers of two."""
    for C, R, _ in BLOCK_CASES.values():
        mesh = build_mesh(C, R)
        yield mesh, contrast_field(mesh, 1e4)
    for C, R in ((5, 3), (6, 4)):
        mesh = build_mesh(C, R)
        yield mesh, contrast_field(mesh, 1e2, seed=4)


def test_pou_on_the_skeleton_is_the_corner_formula_bit_for_bit():
    # on every coarse cell's sides, each corner's chi is its affine corner
    # data, evaluated from integer node offsets
    for mesh, kappa in pou_meshes():
        pou = build_partition_of_unity(mesh, kappa)
        C, R = mesh.coarse_divisions, mesh.refinements_per_coarse
        for cy in range(C):
            for cx in range(C):
                bnd = rectangle_boundary(node_rectangle(
                    mesh, (cx * R, (cx + 1) * R), (cy * R, (cy + 1) * R)))
                iy, ix = np.divmod(bnd, mesh.n_fine_per_axis + 1)
                xi, eta = (ix - cx * R) / R, (iy - cy * R) / R
                for (i, j), data in zip(
                        ((0, 0), (1, 0), (0, 1), (1, 1)),
                        ((1 - xi) * (1 - eta), xi * (1 - eta),
                         (1 - xi) * eta, xi * eta)):
                    vert = mesh.coarse_vertex_index(cx + i, cy + j)
                    assert same_bits(pou.vertex_values(vert, bnd), data)


def test_pou_rows_hold_exactly_the_closed_neighbourhood():
    # chi_v is stored on its closed neighbourhood, and nowhere else
    for mesh, kappa in pou_meshes():
        pou = build_partition_of_unity(mesh, kappa)
        for vert in range(pou.chi.shape[0]):
            nodes = rectangle_nodes(mesh, coarse_neighborhood(mesh, vert))
            lo, hi = pou.chi.indptr[vert], pou.chi.indptr[vert + 1]
            assert np.array_equal(pou.chi.indices[lo:hi], nodes)
            row = chi_row(pou, vert)
            assert np.all(np.delete(row, nodes) == 0.0)


def test_pou_checks_each_cell_against_its_own_norm(monkeypatch):
    # a corruption of one plain cell's interior solution, 1e-8 of that
    # cell's own |A||x|+|b|, passes one normwise check over every row,
    # whose |A| is the contrast cells', but not the check of that cell
    mesh = build_mesh(4, 4)
    kappa = contrast_field(mesh, 1e4)
    R = mesh.refinements_per_coarse
    cells = kappa.values.reshape(mesh.coarse_divisions, R,
                                 mesh.coarse_divisions, R)
    plain = int(np.flatnonzero(cells.max(axis=(1, 3)).ravel() == 1.0)[0])
    rows = slice(plain * (R - 1) ** 2, (plain + 1) * (R - 1) ** 2)
    factorized_spd, dpbtrs, seen = fem.factorized_spd, lapack.dpbtrs, {}

    def spy_factorized_spd(matrix, *args):
        seen["matrix"] = matrix
        return factorized_spd(matrix, *args)

    # the cells' interiors are a band: the band kernel solves them
    def corrupted_dpbtrs(factor, rhs, **kwargs):
        x, info = dpbtrs(factor, rhs, **kwargs)
        matrix = seen["matrix"]
        a = abs(matrix).sum(axis=1).A.ravel()
        bound = (a[rows].max() * np.linalg.norm(x[rows], axis=0)
                 + np.linalg.norm(rhs[rows], axis=0))
        column = matrix[:, rows.start].toarray().ravel()
        x[rows.start] += 1e-8 * bound.max() / np.linalg.norm(column)
        seen.update(anorm=a.max(), x=x, rhs=rhs)
        return x, info

    monkeypatch.setattr(msfem, "factorized_spd", spy_factorized_spd)
    monkeypatch.setattr(lapack, "dpbtrs", corrupted_dpbtrs)
    with pytest.raises(RuntimeError, match="residual check"):
        build_partition_of_unity(mesh, kappa)
    assert seen["matrix"].shape[0] == mesh.coarse_divisions ** 2 * (R - 1) ** 2
    fem._check_residual(seen["matrix"], seen["anorm"], seen["x"], seen["rhs"])


def test_traces_computed_once_match_the_per_side_ones():
    # h = 1/24 is no power of two, so the side coordinates give segment
    # lengths that differ from h, and from each other, by an ulp: the
    # traces computed once per segment count differ by at most 1.2 ulps
    # of the largest entry (measured), against 2 here
    mesh = build_mesh(6, 4)
    eps = np.finfo(np.float64).eps
    for level in range(4):
        for vert in np.flatnonzero(mesh.coarse_vertex_interior):
            for side in coarse_neighborhood(mesh, vert).boundary_edges:
                ref = segments_to_nodes(
                    edge_wavelets(level, mesh.fine_node_coords[side]))
                once = msfem._nodal_wavelets(level, side.size - 1, mesh.h)
                assert np.abs(once - ref).max() <= 2 * eps * np.abs(ref).max()


def test_shared_nodes_match_the_node_sets_for_every_pair():
    # keyed on shapes and offset, against the intersection of the node sets
    mesh = build_mesh(6, 4)
    hoods = [coarse_neighborhood(mesh, v) for v in range(7 * 7)]
    for a in hoods:
        a_nodes = rectangle_nodes(mesh, a)
        for b in hoods:
            b_nodes = rectangle_nodes(mesh, b)
            shared = msfem._shared_nodes(a, b)
            if np.intersect1d(a.fine_cells, b.fine_cells).size == 0:
                assert shared is None
                continue
            both = np.intersect1d(a_nodes, b_nodes)
            assert same_bits(shared[0], np.searchsorted(a_nodes, both))
            assert same_bits(shared[1], np.searchsorted(b_nodes, both))


# ----------------------------------------------------------- wavelets


def test_edge_wavelets_level_zero():
    coords = np.column_stack([np.linspace(0.0, 0.5, 5), np.zeros(5)])
    W = edge_wavelets(0, coords)
    assert W.shape == (1, 4)
    assert np.allclose(W, 1.0 / np.sqrt(0.5))


def test_edge_wavelets_structure_and_orthonormality():
    n_seg = 8
    coords = np.column_stack([np.zeros(n_seg + 1), np.linspace(0, 1, n_seg + 1)])
    W = edge_wavelets(2, coords)
    assert W.shape == (4, 8)
    h_e = 1.0 / n_seg
    gram = (W * h_e) @ W.T
    assert np.allclose(gram, np.eye(4), atol=1e-13)
    # generation 1 is the full-edge step, generation 2 the two half steps
    assert np.allclose(W[1], np.concatenate([np.ones(4), -np.ones(4)]))
    assert np.allclose(W[2, :4], [np.sqrt(2), np.sqrt(2), -np.sqrt(2), -np.sqrt(2)])
    assert np.all(W[2, 4:] == 0.0)
    assert np.all(W[3, :4] == 0.0)


def test_edge_wavelets_errors():
    uneven = np.array([[0.0, 0.0], [0.3, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        edge_wavelets(0, uneven)
    coords = np.column_stack([np.linspace(0, 1, 7), np.zeros(7)])
    with pytest.raises(ValueError):
        edge_wavelets(2, coords)    # 6 segments, needs a multiple of 4
    with pytest.raises(ValueError):
        edge_wavelets(-1, coords)


def test_assemble_space_rejects_a_negative_level():
    # a ValueError before any local solve, not a TypeError from 2 ** level
    mesh = build_mesh(2, 2)
    kappa = CoefficientField.constant(mesh)
    pou = build_partition_of_unity(mesh, kappa)
    with pytest.raises(ValueError, match="level must be >= 0"):
        assemble_space(mesh, kappa, pou, -1)


def test_segments_to_nodes():
    out = segments_to_nodes(np.array([2.0, 4.0]))
    assert np.allclose(out, [1.0, 3.0, 2.0])


# ------------------------------------------------- local problems


def test_harmonic_lift_reproduces_harmonic_data():
    # constants and (for constant kappa) linear functions are kappa-harmonic,
    # so the lift must reproduce their nodal values exactly
    mesh = build_mesh(4, 4)
    kappa = CoefficientField.constant(mesh)
    hood = coarse_neighborhood(mesh, mesh.coarse_vertex_index(2, 2))
    bnd = rectangle_boundary(hood)
    x = mesh.fine_node_coords[:, 0]

    solver = _LocalSolver(mesh, kappa, hood)
    ones = solver.lift(np.ones(bnd.size))
    assert np.allclose(ones, 1.0, atol=1e-12)

    lin = solver.lift(x[bnd])
    assert np.allclose(lin, x[rectangle_nodes(mesh, hood)], atol=1e-12)


def test_harmonic_lift_interior_residual():
    # independent dense assembly over the neighborhood triangles confirms
    # the lift annihilates the interior stiffness rows
    mesh = build_mesh(2, 4)
    rng = np.random.default_rng(9)
    kappa = CoefficientField(rng.uniform(1.0, 100.0, mesh.n_fine_per_axis ** 2))
    hood = coarse_neighborhood(mesh, mesh.coarse_vertex_index(1, 1))
    bnd = rectangle_boundary(hood)
    trace = rng.standard_normal(bnd.size)
    lift = _LocalSolver(mesh, kappa, hood).lift(trace)

    tri_idx = np.sort(np.concatenate([2 * hood.fine_cells, 2 * hood.fine_cells + 1]))
    tris = mesh.fine_triangles[tri_idx]
    local_nodes = np.unique(tris)
    remap = np.full(mesh.n_nodes, -1, dtype=np.int64)
    remap[local_nodes] = np.arange(local_nodes.size)
    _, stiff = dense_p1_operators(mesh.fine_node_coords[local_nodes],
                                  remap[tris], kappa.values[tri_idx // 2])
    res = stiff @ lift
    interior = np.setdiff1d(np.arange(local_nodes.size), remap[bnd])
    assert np.max(np.abs(res[interior])) < 1e-10
    assert np.allclose(lift[remap[bnd]], trace)


def test_harmonic_lift_antisymmetry():
    # an odd step trace on the bottom edge of a symmetric neighborhood
    # lifts to a function odd about the vertical center line
    mesh = build_mesh(4, 4)
    kappa = CoefficientField.constant(mesh)
    hood = coarse_neighborhood(mesh, mesh.coarse_vertex_index(2, 2))
    bnd = rectangle_boundary(hood)
    bottom = hood.boundary_edges[0]
    w = edge_wavelets(1, mesh.fine_node_coords[bottom])[1]
    trace = np.zeros(bnd.size)
    pos = {g: i for i, g in enumerate(bnd)}
    for node, val in zip(bottom, segments_to_nodes(w)):
        trace[pos[node]] += val
    lift = _LocalSolver(mesh, kappa, hood).lift(trace)

    nodes = rectangle_nodes(mesh, hood)
    coords = mesh.fine_node_coords[nodes]
    value = {(round(c[0] * 16), round(c[1] * 16)): v
             for c, v in zip(coords, lift)}
    for (gx, gy), v in value.items():
        assert v == pytest.approx(-value[(16 - gx, gy)], abs=1e-12)


def test_harmonic_lift_trace_length_check():
    mesh = build_mesh(2, 2)
    kappa = CoefficientField.constant(mesh)
    hood = coarse_neighborhood(mesh, mesh.coarse_vertex_index(1, 1))
    with pytest.raises(ValueError):
        _LocalSolver(mesh, kappa, hood).lift(np.ones(3))


def test_neumann_corrector_zero_mean_and_symmetry():
    mesh = build_mesh(4, 4)
    kappa = CoefficientField.constant(mesh)
    pou = build_partition_of_unity(mesh, kappa)
    kt = weighted_coefficient(mesh, kappa, pou)
    hood = coarse_neighborhood(mesh, mesh.coarse_vertex_index(2, 2))
    corr = _LocalSolver(mesh, kappa, hood).corrector(kt)

    from wemp.fem import assemble_submesh_operators
    _, m_loc, _ = assemble_submesh_operators(mesh, kappa, hood.fine_cells)
    mean = np.ones(corr.size) @ (m_loc @ corr)
    assert abs(mean) < 1e-10

    # constant kappa, symmetric neighborhood: the corrector inherits the
    # symmetries of the triangulation (transpose and half-turn; the axis
    # mirrors flip the diagonal split, so only discrete near-symmetry there)
    nodes = rectangle_nodes(mesh, hood)
    coords = mesh.fine_node_coords[nodes]
    value = {(round(c[0] * 16), round(c[1] * 16)): v
             for c, v in zip(coords, corr)}
    for (gx, gy), v in value.items():
        assert v == pytest.approx(value[(gy, gx)], abs=1e-10)
        assert v == pytest.approx(value[(16 - gx, 16 - gy)], abs=1e-10)


def test_neumann_corrector_rejects_zero_mass():
    mesh = build_mesh(2, 2)
    kappa = CoefficientField.constant(mesh)
    hood = coarse_neighborhood(mesh, mesh.coarse_vertex_index(1, 1))
    with pytest.raises(ValueError):
        _LocalSolver(mesh, kappa, hood).corrector(
            np.zeros(mesh.n_fine_per_axis ** 2))


# ------------------------------------------- weighted coefficient, eta


def test_weighted_coefficient_closed_form():
    # C=1, R=2, kappa=1: every chi is the P1 interpolant of its bilinear
    # corner function and sum |grad chi|^2 = 3 on both triangles of each cell
    mesh = build_mesh(1, 2)
    kappa = CoefficientField.constant(mesh)
    pou = build_partition_of_unity(mesh, kappa)
    kt = weighted_coefficient(mesh, kappa, pou)
    assert np.allclose(kt, 3.0, rtol=1e-12)


def test_weighted_coefficient_scales_with_kappa():
    mesh = build_mesh(2, 2)
    k1 = CoefficientField.constant(mesh, 1.0)
    k9 = CoefficientField.constant(mesh, 9.0)
    kt1 = weighted_coefficient(mesh, k1, build_partition_of_unity(mesh, k1))
    kt9 = weighted_coefficient(mesh, k9, build_partition_of_unity(mesh, k9))
    assert np.allclose(kt9, 9.0 * kt1, rtol=1e-12)
    assert np.all(kt1 > 0)


def test_eta_indicator_hand_value():
    # 8x8 cell field with H = 1/2 (R = 4): skeleton-adjacent columns/rows are
    # ix % 4 in {0, 3}; put the large value strictly inside so only the
    # kappa_tilde term sees it
    vals = np.ones(64)
    vals[8 * 1 + 1] = 50.0     # cell (1,1): ix%4=1, iy%4=1, off the skeleton
    kappa = CoefficientField(vals)
    kt = np.full(64, 2.0)
    eta = eta_indicator(0.5, 2, kappa, kt)
    assert eta == pytest.approx(0.5 * np.sqrt(2.0) + 0.5 * 1.0, rel=1e-12)
    # moving it onto a skeleton-adjacent cell changes the second term
    vals2 = np.ones(64)
    vals2[8 * 1 + 3] = 50.0    # ix%4=3: touches the skeleton
    eta2 = eta_indicator(0.5, 2, CoefficientField(vals2), kt)
    assert eta2 == pytest.approx(0.5 * np.sqrt(2.0) + 0.5 * 50.0, rel=1e-12)
    with pytest.raises(ValueError):
        eta_indicator(0.5, 2, CoefficientField(np.ones(5)), np.ones(5))


# ---------------------------------------------------------- the space


def test_space_column_count_and_layout(mesh44, space44):
    # 9 interior vertices x (4 edges x 2 wavelets + 1 corrector) = 81
    assert space44.n_columns == 81
    assert len(space44.column_info) == 81
    kinds = [meta[1] for meta in space44.column_info]
    assert kinds.count("corrector") == 9
    assert kinds.count("edge") == 72
    vertices = {meta[0] for meta in space44.column_info}
    assert vertices == set(np.where(mesh44.coarse_vertex_interior)[0])


def test_space_columns_vanish_on_boundary(mesh44, space44):
    dense = space44.basis.toarray()
    assert np.all(dense[domain_boundary(mesh44)] == 0.0)


def test_space_columns_are_local(mesh44, space44):
    dense = space44.basis.toarray()
    for col, meta in enumerate(space44.column_info):
        hood = coarse_neighborhood(mesh44, meta[0])
        outside = np.setdiff1d(np.arange(mesh44.n_nodes),
                               rectangle_nodes(mesh44, hood))
        assert np.all(dense[outside, col] == 0.0)


@pytest.fixture(scope="module")
def inclusions48():
    """A 4x8 mesh with six 4x4 inclusions of contrast 1e4, at level 2."""
    mesh = build_mesh(4, 8)
    kappa = generate_kappa("contrast-inclusions",
                           {"contrast": 1e4, "count": 6, "size": 4},
                           mesh, seed=7)
    return mesh, kappa, build_partition_of_unity(mesh, kappa), 2


@pytest.fixture(scope="module")
def inclusions48_space(inclusions48):
    return assemble_space(*inclusions48)


def test_space_galerkin_matrices(mesh44, ops44, space44):
    b = space44.basis
    mass, stiffness = space44.ms_mass.toarray(), space44.ms_stiffness.toarray()
    assert np.allclose(mass, (b.T @ (ops44.mass @ b)).toarray(), atol=1e-14)
    assert np.allclose(stiffness, (b.T @ (ops44.stiffness @ b)).toarray(),
                       atol=1e-13)
    assert np.linalg.eigvalsh(mass).min() > 0
    assert np.linalg.eigvalsh(stiffness).min() > 0


@pytest.mark.parametrize("case,stiffness_rtol", [
    ("space44", 1e-14),
    # at contrast 1e4 the global product's own rounding leaves it
    # asymmetric by 8e-13 of its largest entry
    ("inclusions48_space", 1e-11)])
def test_space_galerkin_matrices_relative_to_the_largest_entry(
        request, case, stiffness_rtol):
    # gathered block by block from the local operators, they are the
    # global products basis^T M basis and basis^T A basis
    space = request.getfixturevalue(case)
    b = space.basis
    for matrix, op, rtol in ((space.ms_mass, space.fine_ops.mass, 1e-14),
                             (space.ms_stiffness, space.fine_ops.stiffness,
                              stiffness_rtol)):
        ref = (b.T @ (op @ b)).toarray()
        assert (np.abs(matrix.toarray() - ref).max()
                <= rtol * np.abs(ref).max())


def stores_exactly_nnz(matrix):
    """Its data and index arrays hold nnz entries, and no larger buffer
    stands behind them."""
    return all(a.size == matrix.nnz
               and (a.base is None or a.base.nbytes == a.nbytes)
               for a in (matrix.data, matrix.indices))


def test_space_matrices_store_exactly_nnz(space44, inclusions48_space):
    for space in (space44, inclusions48_space):
        for matrix in (space.ms_mass, space.ms_stiffness):
            assert stores_exactly_nnz(matrix)


def test_one_template_per_rectangle_shape(mesh44, kappa44):
    # a set-up builds the neighbourhood's template and the whole mesh's,
    # once each (the partition of unity solves on the whole mesh's
    # operators, so no coarse cell has one), and a second set-up of the
    # same mesh builds none
    fem.rectangle_template.cache_clear()
    for _ in range(2):
        assemble_space(mesh44, kappa44,
                       build_partition_of_unity(mesh44, kappa44), 1)
        info = fem.rectangle_template.cache_info()
        assert (info.misses, info.currsize) == (2, 2)


def test_only_local_templates_hold_the_local_solves_fields(mesh44, kappa44):
    # assemble_operators keeps the whole mesh's entry, which no local
    # solve reads; a neighbourhood's entry has every field
    local_fields = ("interior_block", "coupling_block", "cell_load",
                    "boundary_flux", "gauge", "pinned")
    n = mesh44.n_fine_per_axis
    fem.rectangle_template.cache_clear()
    ops = assemble_operators(mesh44, kappa44)
    whole = fem.rectangle_template(n, n, n, local=False)
    assert whole.interior is ops.free_dofs
    assert all(getattr(whole, name) is None for name in local_fields)
    solver = _LocalSolver(mesh44, kappa44, coarse_neighborhood(
        mesh44, mesh44.coarse_vertex_index(2, 2)))
    assert all(getattr(solver.template, name) is not None
               for name in local_fields)
    assert fem.rectangle_template.cache_info().currsize == 2


def local_rectangles(mesh):
    """Every coarse cell and every interior coarse vertex's neighbourhood."""
    C, R = mesh.coarse_divisions, mesh.refinements_per_coarse
    cells = [node_rectangle(mesh, (cx * R, (cx + 1) * R),
                            (cy * R, (cy + 1) * R))
             for cy in range(C) for cx in range(C)]
    return cells + [coarse_neighborhood(mesh, v)
                    for v in np.flatnonzero(mesh.coarse_vertex_interior)]


def check_local_operators_are_the_global_ones_restricted(mesh, kappa):
    ops = assemble_operators(mesh, kappa)
    n = mesh.n_fine_per_axis
    nodes, M, A = assemble_submesh_operators(mesh, kappa, np.arange(n * n))
    assert same_bits(nodes, np.arange(mesh.n_nodes))
    assert same_bits(ops.free_dofs, np.setdiff1d(np.arange(mesh.n_nodes),
                                                 domain_boundary(mesh)))
    for whole, glob in ((M, ops.mass), (A, ops.stiffness)):
        for name in ("data", "indices", "indptr"):
            assert same_bits(getattr(whole, name), getattr(glob, name))
    for rect in local_rectangles(mesh):
        nodes, M, A = assemble_submesh_operators(mesh, kappa, rect.fine_cells)
        (x0, x1), (y0, y1) = rect.node_range
        interior = fem.rectangle_template(n, x1 - x0, y1 - y0).interior
        for loc, glob in ((M, ops.mass), (A, ops.stiffness)):
            loc, glob = loc[interior], glob[nodes[interior]]
            assert np.array_equal(loc.indptr, glob.indptr)
            assert np.array_equal(nodes[loc.indices], glob.indices)
            assert same_bits(loc.data, glob.data)


def test_local_operators_are_the_global_ones_restricted(block_case):
    check_local_operators_are_the_global_ones_restricted(*block_case[:2])


def test_desk_local_operators_are_the_global_ones_restricted():
    mesh = build_mesh(8, 8)
    check_local_operators_are_the_global_ones_restricted(mesh, generate_kappa(
        "contrast-inclusions", {"contrast": 1e4, "count": 16, "size": 4},
        mesh, seed=7))


def test_every_factorization_goes_through_factorized_spd(monkeypatch,
                                                         mesh44, kappa44):
    # one for the partition of unity's cell interiors, and per interior
    # vertex one Dirichlet solve and one corrector, each by the band kernel
    used = kernel_spy(monkeypatch)
    factorized_spd = fem.factorized_spd

    def spy_factorized_spd(matrix, *args):
        used.append("factorized_spd")
        return factorized_spd(matrix, *args)

    for module in (fem, msfem):
        monkeypatch.setattr(module, "factorized_spd", spy_factorized_spd)
    assemble_space(mesh44, kappa44,
                   build_partition_of_unity(mesh44, kappa44), 1)
    assert used == ["factorized_spd", "band"] * 19


def test_corrector_solves_the_whole_neumann_system(inclusions48):
    # the residual over every local node, the pinned one included, in the
    # form of fem._check_residual, and the zero mean against m = M 1
    mesh, kappa, pou, _ = inclusions48
    kt = weighted_coefficient(mesh, kappa, pou)
    for vertex in np.flatnonzero(mesh.coarse_vertex_interior):
        solver = _LocalSolver(mesh, kappa, coarse_neighborhood(mesh, vertex))
        v = solver.corrector(kt)
        t, A = solver.template, solver.A
        cells = solver.hood.fine_cells
        rhs = (t.cell_load @ (kt[cells] / (kt[cells].sum() * mesh.h ** 2))
               + t.boundary_flux)
        anorm = float(np.abs(A).sum(axis=1).max())
        backward = np.linalg.norm(A @ v - rhs) / (
            anorm * np.linalg.norm(v) + np.linalg.norm(rhs))
        assert backward <= fem.SOLVE_RTOL
        m = t.gauge
        assert abs(m @ v) <= 1e-12 * np.linalg.norm(m) * np.linalg.norm(v)


def test_blocks_vanish_on_the_neighbourhood_boundary(block_case):
    # so that the local mass and stiffness products of a block are the
    # global ones restricted to its neighbourhood
    mesh, kappa, pou, level = block_case
    kt = weighted_coefficient(mesh, kappa, pou)
    for vertex in np.flatnonzero(mesh.coarse_vertex_interior):
        solver, block, _ = _vertex_columns(mesh, kappa, pou, level, vertex,
                                           kt)
        assert np.all(block[:, solver.bnd_local] == 0.0)


def test_space_matrices_are_symmetric_csr(space44, inclusions48_space):
    # fem.factorized_spd takes them as they are stored: its band kernel
    # reads one triangle of the CSR pattern, and SuperLU's symmetric mode
    # orders A + A^T
    for space in (space44, inclusions48_space):
        for matrix in (space.ms_mass, space.ms_stiffness):
            assert matrix.format == "csr"
            assert abs(matrix - matrix.T).nnz == 0


def test_gram_filter_drops_duplicates_and_zeros():
    gram = np.array([[1.0, 1.0], [1.0, 1.0]])
    kept = _pivoted_gram_filter(gram, 1e-10)
    assert kept.size == 1
    gram2 = np.diag([1.0, 0.0, 2.0])
    kept2 = _pivoted_gram_filter(gram2, 1e-10)
    assert kept2.tolist() == [0, 2]
    with pytest.raises(RuntimeError):
        _pivoted_gram_filter(np.diag([1.0, -1.0]), 1e-10)
    # an exactly dependent third column b1 + b2: two of the three stay
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 3))
    B[:, 2] = B[:, 0] + B[:, 1]
    assert _pivoted_gram_filter(B.T @ B, 1e-10).size == 2
    # independent columns scaled from 1e-8 to 1e-4 all stay, though most
    # squared norms lie below tol: the stopping rule is relative to each
    # column's own norm
    Bs = rng.standard_normal((8, 5)) * np.logspace(-8, -4, 5)
    assert (_pivoted_gram_filter(Bs.T @ Bs, 1e-10).tolist()
            == [0, 1, 2, 3, 4])
    # and from 1e-6 to 1e6: a column is dropped for its length only when
    # its squared norm is zero, not when it is short against the longest
    Bw = rng.standard_normal((8, 5)) * np.logspace(-6, 6, 5)
    assert (_pivoted_gram_filter(Bw.T @ Bw, 1e-10).tolist()
            == [0, 1, 2, 3, 4])


def test_rank_filter_sees_one_neighbourhood_at_a_time(inclusions48,
                                                      monkeypatch):
    # no call sees more columns than one neighbourhood builds, so set-up
    # forms no n_columns^2 Gram matrix
    mesh, kappa, pou, level = inclusions48
    sizes = []

    def spy(gram, tol, explained):
        sizes.append(gram.shape)
        return _pivoted_gram_filter(gram, tol, explained)
    monkeypatch.setattr(msfem, "_pivoted_gram_filter", spy)
    space = assemble_space(mesh, kappa, pou, level)
    per_hood = 4 * 2 ** level + 1
    assert sizes == [(per_hood, per_hood)] * int(
        mesh.coarse_vertex_interior.sum())
    assert space.n_columns == sum(n for n, _ in sizes)


def global_filter_count(mesh, kappa, pou, level, tol):
    """Columns that a pivoted Cholesky of the Gram matrix of every built
    column, scaled to unit diagonal, keeps at tol."""
    ops = assemble_operators(mesh, kappa)
    kt = weighted_coefficient(mesh, kappa, pou)
    blocks = []
    for vertex in np.flatnonzero(mesh.coarse_vertex_interior):
        solver, block, _ = _vertex_columns(mesh, kappa, pou, level,
                                           vertex, kt)
        full = np.zeros((len(block), mesh.n_nodes))
        full[:, solver.local_nodes] = block
        blocks.append(full)
    raw = np.vstack(blocks)[:, ops.free_dofs]
    M = ops.mass[ops.free_dofs][:, ops.free_dofs]
    gram = raw @ (M @ raw.T)
    s = 1.0 / np.sqrt(np.diag(gram))
    return lapack.dpstrf(s[:, None] * gram * s, tol=tol)[2]


def constant_case(coarse, refinements, level):
    mesh = build_mesh(coarse, refinements)
    kappa = CoefficientField.constant(mesh)
    return mesh, kappa, build_partition_of_unity(mesh, kappa), level


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
@pytest.mark.parametrize("case,kept_at_1e10", [
    ("space44", 81), ("inclusions48", 153),
    # columns of different neighbourhoods depend on one another at two
    # refinements per coarse cell, and at the finest level of a mesh
    ((4, 2, 1), 48), ((4, 4, 3), 204)],
    ids=["space44", "inclusions48", "two-refinements", "finest-level"])
def test_block_filter_keeps_the_global_count(request, monkeypatch, case,
                                             kept_at_1e10, tol):
    # filtering block by block, each against the columns kept before it,
    # keeps as many columns as one pivoted Cholesky of the whole Gram matrix
    if case == "space44":
        args = tuple(request.getfixturevalue(name)
                     for name in ("mesh44", "kappa44", "pou44")) + (1,)
    elif case == "inclusions48":
        args = request.getfixturevalue("inclusions48")
    else:
        args = constant_case(*case)
    monkeypatch.setattr(msfem, "RANK_FILTER_TOL", tol)
    rank = global_filter_count(*args, tol)
    space = assemble_space(*args)
    assert space.n_columns == rank
    if tol == 1e-10:
        assert rank == kept_at_1e10
    assert np.linalg.eigvalsh(space.ms_mass.toarray()).min() > 0


def test_space_degenerate_refinement_limit():
    # with R = 1 the chi_i collapse to hat functions and the wavelet lifts
    # vanish at the lone interior node, so the rank filter triggers
    mesh = build_mesh(8, 1)
    kappa = CoefficientField.constant(mesh)
    pou = build_partition_of_unity(mesh, kappa)
    with pytest.raises(RuntimeError, match="rank filter"):
        assemble_space(mesh, kappa, pou, 1)


def test_projection_is_identity_on_span(space44):
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(space44.n_columns)
    v = space44.basis @ coeffs
    back = edge_projection(space44, v)
    assert np.allclose(back, coeffs, atol=1e-9)


def test_projection_idempotent(mesh44, space44):
    rng = np.random.default_rng(2)
    v = rng.standard_normal(mesh44.n_nodes)
    p1 = space44.basis @ space44.project(v)
    p2 = space44.basis @ space44.project(p1)
    assert np.allclose(p1, p2, atol=1e-10)


def test_fine_space_is_the_free_dofs(mesh44, ops44):
    # its Galerkin matrices are the free-dof operators, which the basis
    # selects exactly, and its projection restricts
    space = fine_space(mesh44, ops44)
    free = ops44.free_dofs
    assert space.n_columns == free.size and space.column_info == ()
    for ms, full in ((space.ms_mass, ops44.mass),
                     (space.ms_stiffness, ops44.stiffness)):
        assert (ms != space.basis.T @ full @ space.basis).nnz == 0
    v = np.random.default_rng(3).standard_normal(mesh44.n_nodes)
    assert np.array_equal(space.project(v), v[free])
    lifted = space.basis @ space.project(v)
    assert np.array_equal(lifted[free], v[free])
    assert not np.delete(lifted, free).any()


def test_projection_error_decreases_with_level():
    mesh = build_mesh(4, 8)
    kappa = CoefficientField.constant(mesh)
    pou = build_partition_of_unity(mesh, kappa)
    ops = assemble_operators(mesh, kappa)
    x = mesh.fine_node_coords[:, 0]
    y = mesh.fine_node_coords[:, 1]
    v = (np.sin(3 * np.pi * x) * np.sin(2 * np.pi * y)
         + 0.3 * np.sign(np.sin(5 * np.pi * x)) * np.sin(np.pi * y))
    v[domain_boundary(mesh)] = 0.0
    v_norm, _ = norms(ops, v)
    errs = []
    for level in (0, 1, 2):
        space = assemble_space(mesh, kappa, pou, level)
        w = space.basis @ edge_projection(space, v)
        e, _ = norms(ops, v - w)
        errs.append(e / v_norm)
    assert errs[0] == pytest.approx(0.16, abs=0.02)
    assert errs[0] > errs[1] > errs[2]
