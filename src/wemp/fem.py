"""P1 finite elements on the fine triangulation.

Assembly of mass and heterogeneous stiffness matrices (exact P1 quadrature),
nodal load vectors, Dirichlet elimination to free dofs, SPD solves, and the
L2 / energy norms. The diffusivity is one positive value per fine square cell,
shared by its two triangles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import TwoLevelMesh

SOLVE_RTOL = 1e-10


@dataclass(frozen=True)
class CoefficientField:
    """Per-fine-cell diffusivity values, row-major from the (0,0) cell."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("kappa values must be a flat per-cell array")
        if not np.all(v > 0):
            raise ValueError("kappa values must all be positive")
        object.__setattr__(self, "values", v)

    @staticmethod
    def constant(mesh: TwoLevelMesh, value: float = 1.0) -> "CoefficientField":
        n = mesh.n_fine_per_axis
        return CoefficientField(np.full(n * n, float(value)))


def write_kappa_raster(field: CoefficientField, path, nx: int, ny: int) -> None:
    """Plain-text raster: header "kappa <nx> <ny>", then nx*ny row-major values."""
    if nx * ny != field.values.size:
        raise ValueError("raster shape does not match value count")
    with open(path, "w") as fh:
        fh.write(f"kappa {nx} {ny}\n")
        for iy in range(ny):
            row = field.values[iy * nx:(iy + 1) * nx]
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_kappa_raster(path) -> CoefficientField:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3 or tokens[0] != "kappa":
        raise ValueError(f"{path}: not a kappa raster (missing header)")
    nx, ny = int(tokens[1]), int(tokens[2])
    values = np.array([float(t) for t in tokens[3:]], dtype=np.float64)
    if values.size != nx * ny:
        raise ValueError(f"{path}: expected {nx * ny} values, found {values.size}")
    return CoefficientField(values)


@dataclass(frozen=True)
class OperatorPair:
    mass: sp.csr_matrix        # M_h, full node set
    stiffness: sp.csr_matrix   # A_h, full node set
    free_dofs: np.ndarray      # interior fine-node indices

    @property
    def mass_free(self) -> sp.csr_matrix:
        return self.mass[self.free_dofs][:, self.free_dofs]

    @property
    def stiffness_free(self) -> sp.csr_matrix:
        return self.stiffness[self.free_dofs][:, self.free_dofs]


def triangle_geometry(coords: np.ndarray, triangles: np.ndarray):
    """Areas and P1 basis gradients per triangle.

    Returns (areas, grads) with grads of shape (n_tri, 3, 2): grads[t, i] is
    the constant gradient of the barycentric basis function at vertex i.
    """
    p0 = coords[triangles[:, 0]]
    p1 = coords[triangles[:, 1]]
    p2 = coords[triangles[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]   # 2*signed area
    g = np.empty((triangles.shape[0], 3, 2))
    g[:, 0, 0] = p1[:, 1] - p2[:, 1]
    g[:, 0, 1] = p2[:, 0] - p1[:, 0]
    g[:, 1, 0] = p2[:, 1] - p0[:, 1]
    g[:, 1, 1] = p0[:, 0] - p2[:, 0]
    g[:, 2, 0] = p0[:, 1] - p1[:, 1]
    g[:, 2, 1] = p1[:, 0] - p0[:, 0]
    g /= area2[:, None, None]
    return 0.5 * np.abs(area2), g


def _p1_matrices(coords: np.ndarray, triangles: np.ndarray,
                 kappa_per_tri: np.ndarray, n_nodes: int):
    """Vectorized COO assembly of P1 mass and stiffness over a triangle set."""
    area, g = triangle_geometry(coords, triangles)

    m_ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    m_loc = area[:, None, None] * m_ref[None, :, :]
    a_loc = (kappa_per_tri * area)[:, None, None] * np.einsum("tik,tjk->tij", g, g)

    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    M = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()
    A = sp.coo_matrix((a_loc.ravel(), (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()
    M.sum_duplicates()
    A.sum_duplicates()
    # symmetrize exactly (assembly is symmetric up to float add order)
    M = (M + M.T) * 0.5
    A = (A + A.T) * 0.5
    return M, A


def assemble_operators(mesh: TwoLevelMesh, kappa: CoefficientField) -> OperatorPair:
    n_cells = mesh.n_fine_per_axis ** 2
    if kappa.values.size != n_cells:
        raise ValueError(f"kappa has {kappa.values.size} values, mesh has {n_cells} cells")
    kappa_per_tri = np.repeat(kappa.values, 2)   # two triangles per cell
    M, A = _p1_matrices(mesh.fine_node_coords, mesh.fine_triangles,
                        kappa_per_tri, mesh.n_nodes)
    free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_fine_nodes)
    return OperatorPair(mass=M, stiffness=A, free_dofs=free)


def assemble_submesh_operators(mesh: TwoLevelMesh, kappa: CoefficientField,
                               fine_cells: np.ndarray):
    """Assemble M, A over a subset of fine cells in local node numbering.

    Returns (local_nodes, M_loc, A_loc) where local_nodes maps local index ->
    global node index (sorted). Used for the neighborhood problems, where the
    stiffness must only see triangles inside omega_i.
    """
    tri_idx = np.concatenate([2 * fine_cells, 2 * fine_cells + 1])
    tri_idx.sort()
    tris = mesh.fine_triangles[tri_idx]
    local_nodes = np.unique(tris)
    remap = np.full(mesh.n_nodes, -1, dtype=np.int64)
    remap[local_nodes] = np.arange(local_nodes.size)
    tris_local = remap[tris]
    kappa_per_tri = kappa.values[tri_idx // 2]
    M, A = _p1_matrices(mesh.fine_node_coords[local_nodes], tris_local,
                        kappa_per_tri, local_nodes.size)
    return local_nodes, M, A


def assemble_load(mesh: TwoLevelMesh, op: OperatorPair, f, t: float) -> np.ndarray:
    """Load vector by nodal quadrature: M_h times the nodal interpolant of f(., t)."""
    x = mesh.fine_node_coords[:, 0]
    y = mesh.fine_node_coords[:, 1]
    return op.mass @ f(x, y, t)


def assemble_loads(mesh: TwoLevelMesh, op: OperatorPair, f,
                   times) -> np.ndarray:
    """assemble_load at every instant of times, one column each, from one
    call of f and one sparse product, column for column the same numbers.

    f gets the node coordinates as (n_nodes, 1) columns and the instants as
    a row, and its result must broadcast to (n_nodes, len(times)).
    """
    x = mesh.fine_node_coords[:, :1]
    y = mesh.fine_node_coords[:, 1:]
    t = np.asarray(times, dtype=np.float64)
    return op.mass @ np.broadcast_to(f(x, y, t), (x.shape[0], t.size))


def solve_spd(matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve an SPD system with a checked direct factorization."""
    return factorized_spd(matrix)(rhs)


def factorized_spd(matrix):
    """Factorize once, return a solver closed over the factorization.

    Takes a scipy sparse SPD matrix only. SuperLU factors it in symmetric
    mode: a minimum-degree ordering of A + A^T with the diagonal as
    pivots, since an SPD matrix factors stably without row interchanges.
    Every solve verifies the residual to SOLVE_RTOL relative.
    """
    anorm = float(np.abs(matrix).sum(axis=1).max()) if matrix.shape[0] else 0.0
    lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = lu.solve(rhs)
        _check_residual(matrix, anorm, x, rhs)
        return x

    return solve


def _check_residual(matrix, anorm, x, rhs):
    # normwise backward error |Ax-b| / (|A| |x| + |b|) of each right-hand
    # side column, robust to the scale spread that high-contrast
    # coefficients put into A; a zero right-hand side is solved exactly
    res = np.atleast_1d(np.linalg.norm(matrix @ x - rhs, axis=0))
    rhs_norm = np.atleast_1d(np.linalg.norm(rhs, axis=0))
    denom = anorm * np.atleast_1d(np.linalg.norm(x, axis=0)) + rhs_norm
    failed = np.flatnonzero((rhs_norm != 0.0)
                            & ~(res <= SOLVE_RTOL * denom))
    if failed.size:
        j = failed[0]
        raise RuntimeError(
            f"SPD solve failed the residual check: |Ax-b| = {res[j]:.3e}, "
            f"|A||x|+|b| = {denom[j]:.3e}, rtol = {SOLVE_RTOL:.1e}")


def norms(op: OperatorPair, v: np.ndarray) -> tuple:
    """(L2 norm, energy norm) through the assembled matrices."""
    l2 = float(np.sqrt(max(v @ (op.mass @ v), 0.0)))
    energy = float(np.sqrt(max(v @ (op.stiffness @ v), 0.0)))
    return l2, energy
