"""Shared fixtures, and test oracles: a reference dense P1 assembler and
the triangles it takes, the domain boundary read from node coordinates,
dense chi rows, and a spy on the two kernels of fem.factorized_spd."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from wemp.fem import CoefficientField, assemble_operators
from wemp.mesh import build_mesh, coarse_neighborhood
from wemp.msfem import assemble_space, build_partition_of_unity


def dense_p1_operators(coords, triangles, kappa_per_tri):
    """Straightforward dense assembly, one triangle at a time.

    Kept deliberately naive (explicit loops, textbook formulas) so it is an
    independent check on the vectorized sparse assembly.
    """
    n = coords.shape[0]
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    for tri, kap in zip(triangles, kappa_per_tri):
        p = coords[tri]
        d = np.array([p[1] - p[0], p[2] - p[0]])
        area = 0.5 * abs(d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])
        # gradients of the barycentric basis
        mat = np.array([[p[1, 0] - p[0, 0], p[2, 0] - p[0, 0]],
                        [p[1, 1] - p[0, 1], p[2, 1] - p[0, 1]]])
        inv = np.linalg.inv(mat).T
        grads = np.array([-inv[:, 0] - inv[:, 1], inv[:, 0], inv[:, 1]])
        for a in range(3):
            for b in range(3):
                mass[tri[a], tri[b]] += area / 12.0 * (2.0 if a == b else 1.0)
                stiff[tri[a], tri[b]] += kap * area * grads[a] @ grads[b]
    return mass, stiff


def fine_triangles(mesh):
    """The P1 triangles, counterclockwise, two per fine cell in cell order:
    the lower (v00, v10, v11), then the upper (v00, v11, v01), the split
    of fem.rectangle_template's reference cell."""
    n = mesh.n_fine_per_axis
    cy, cx = np.divmod(np.arange(n * n), n)
    v00 = mesh.node_index(cx, cy)
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([v00, v10, v11])
    triangles[1::2] = np.column_stack([v00, v11, v01])
    return triangles


def rectangle_nodes(mesh, rect):
    """Sorted global nodes of a rectangle's closure, from its node bounds."""
    (x0, x1), (y0, y1) = rect.node_range
    ix, iy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
    return np.sort(mesh.node_index(ix.ravel(), iy.ravel()))


def chi_row(mesh, pou, vertex):
    """chi_vertex as a dense vector over all fine nodes: vertex_values on
    the vertex's closed neighbourhood, zero elsewhere."""
    nodes = rectangle_nodes(mesh, coarse_neighborhood(mesh, vertex))
    row = np.zeros(mesh.n_nodes)
    row[nodes] = pou.vertex_values(vertex, nodes)
    return row


def chi_rows(mesh, pou):
    """Every chi_i as a dense row, one per coarse vertex."""
    return np.array([chi_row(mesh, pou, vertex)
                     for vertex in range((mesh.coarse_divisions + 1) ** 2)])


def domain_boundary(mesh):
    """Sorted fine nodes on the boundary of the unit square."""
    xy = mesh.fine_node_coords
    return np.flatnonzero(((xy == 0.0) | (xy == 1.0)).any(axis=1))


def kernel_spy(monkeypatch) -> list:
    """The kernel of each factorization from now on, "band" or "superlu",
    in the list returned."""
    used = []

    def spy(module, name, kernel):
        run = getattr(module, name)

        def spied(*args, **kwargs):
            used.append(kernel)
            return run(*args, **kwargs)
        monkeypatch.setattr(module, name, spied)

    spy(lapack, "dpbtrf", "band")
    spy(spla, "splu", "superlu")
    return used


@pytest.fixture(scope="session")
def mesh44():
    return build_mesh(4, 4)


@pytest.fixture(scope="session")
def kappa44(mesh44):
    return CoefficientField.constant(mesh44)


@pytest.fixture(scope="session")
def ops44(mesh44, kappa44):
    return assemble_operators(mesh44, kappa44)


@pytest.fixture(scope="session")
def pou44(mesh44, kappa44):
    return build_partition_of_unity(mesh44, kappa44)


@pytest.fixture(scope="session")
def space44(mesh44, kappa44, pou44):
    return assemble_space(mesh44, kappa44, pou44, 1)
