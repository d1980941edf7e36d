import numpy as np
import pytest

from wemp.mesh import NODE_BUDGET, build_mesh, coarse_neighborhood

from conftest import domain_boundary


def test_single_cell_mesh():
    mesh = build_mesh(1, 1)
    assert mesh.n_nodes == 4
    assert not mesh.coarse_vertex_interior.any()
    assert mesh.H == 1.0
    assert mesh.h == 1.0


def test_paper_scale_counts():
    mesh = build_mesh(10, 20)
    assert mesh.n_fine_per_axis == 200
    assert mesh.n_nodes == 201 * 201 == 40401
    assert mesh.H == pytest.approx(0.1)
    assert mesh.h == pytest.approx(1.0 / 200)


def test_two_by_two_counts():
    mesh = build_mesh(2, 2)
    assert mesh.n_nodes == 25
    assert domain_boundary(mesh).size == 16
    assert mesh.coarse_vertex_interior.shape == (9,)
    assert mesh.coarse_vertex_interior.sum() == 1


def test_node_indexing_roundtrip():
    mesh = build_mesh(3, 2)
    n = mesh.n_fine_per_axis
    for iy in range(n + 1):
        for ix in range(n + 1):
            k = mesh.node_index(ix, iy)
            x, y = mesh.fine_node_coords[k]
            assert x == pytest.approx(ix * mesh.h)
            assert y == pytest.approx(iy * mesh.h)
    # array form
    ks = mesh.node_index(np.array([0, 2, n]), np.array([1, 1, n]))
    assert ks.tolist() == [n + 1, n + 3, (n + 1) * (n + 1) - 1]


def test_coarse_vertex_layout():
    mesh = build_mesh(3, 4)
    c = mesh.coarse_divisions
    assert mesh.coarse_vertex_interior.shape == ((c + 1) ** 2,)
    # interior flags exclude the outer ring
    flags = mesh.coarse_vertex_interior.reshape(c + 1, c + 1)
    assert not flags[0].any() and not flags[-1].any()
    assert not flags[:, 0].any() and not flags[:, -1].any()
    assert flags[1:-1, 1:-1].all()
    # coarse vertex (gx, gy) is the fine node (gx R, gy R), at (gx H, gy H)
    r = mesh.refinements_per_coarse
    assert mesh.coarse_vertex_index(1, 2) == 2 * (c + 1) + 1
    assert np.allclose(mesh.fine_node_coords[mesh.node_index(r, 2 * r)],
                       [mesh.H, 2 * mesh.H])


def test_neighborhood_full_domain():
    mesh = build_mesh(2, 2)
    center = mesh.coarse_vertex_index(1, 1)
    hood = coarse_neighborhood(mesh, center)
    assert hood.fine_cells.size == mesh.n_fine_per_axis ** 2
    (ix0, ix1), (iy0, iy1) = hood.node_range
    assert (ix0, ix1) == (0, 4) and (iy0, iy1) == (0, 4)


def test_neighborhood_edges_ccw():
    mesh = build_mesh(4, 2)
    r = mesh.refinements_per_coarse
    hood = coarse_neighborhood(mesh, mesh.coarse_vertex_index(2, 2))
    bottom, right, top, left = hood.boundary_edges
    (ix0, ix1), (iy0, iy1) = hood.node_range
    for edge in hood.boundary_edges:
        assert edge.size == 2 * r + 1
        iy, ix = np.divmod(edge, mesh.n_fine_per_axis + 1)
        assert np.all((ix0 <= ix) & (ix <= ix1) & (iy0 <= iy) & (iy <= iy1))
    coords = mesh.fine_node_coords
    # bottom runs left to right, then ccw around
    assert np.all(np.diff(coords[bottom][:, 0]) > 0)
    assert np.all(np.diff(coords[right][:, 1]) > 0)
    assert np.all(np.diff(coords[top][:, 0]) < 0)
    assert np.all(np.diff(coords[left][:, 1]) < 0)
    # shared corners chain the loop
    assert bottom[-1] == right[0]
    assert right[-1] == top[0]
    assert top[-1] == left[0]
    assert left[-1] == bottom[0]


def test_neighborhood_cell_multiplicity():
    # every coarse cell appears in exactly the neighborhoods of its 4 corners
    mesh = build_mesh(3, 1)
    total = 0
    for v in range((mesh.coarse_divisions + 1) ** 2):
        total += coarse_neighborhood(mesh, v).fine_cells.size
    assert total == 4 * mesh.coarse_divisions ** 2


def test_neighborhood_fine_cells():
    mesh = build_mesh(4, 3)
    r = mesh.refinements_per_coarse
    hood = coarse_neighborhood(mesh, mesh.coarse_vertex_index(1, 3))
    assert hood.fine_cells.size == 4 * r * r
    (ix0, ix1), (iy0, iy1) = hood.node_range
    assert (ix1 - ix0 + 1) * (iy1 - iy0 + 1) == (2 * r + 1) ** 2


def test_node_budget_guard():
    with pytest.raises(ValueError):
        build_mesh(1000, 4)
    assert (1000 * 4 + 1) ** 2 > NODE_BUDGET
