"""P1 finite elements on the fine triangulation.

Assembly of mass and heterogeneous stiffness matrices (exact P1 quadrature),
over the whole mesh or, from one template per rectangle shape, over a
rectangle of fine cells; nodal load vectors, Dirichlet elimination to free
dofs, SPD solves, and the L2 / energy norms. The diffusivity is one
positive value per fine square cell, shared by its two triangles.
"""

from __future__ import annotations

import functools
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


def _cell_map(corners: np.ndarray, element: np.ndarray, n_nodes: int):
    """The CSR pattern that the nonzero entries of one 4 x 4 cell matrix
    span over the cells' corners, and the sparse map from per-cell weights
    to that pattern's data: data = map @ weights, summed in cell order."""
    a, b = np.nonzero(element)
    keys = (corners[:, a] * n_nodes + corners[:, b]).ravel()
    pattern, entry = np.unique(keys, return_inverse=True)
    cell = np.repeat(np.arange(corners.shape[0]), a.size)
    value = np.tile(element[a, b], corners.shape[0])
    weights_to_data = sp.csr_matrix((value, (entry, cell)),
                                    shape=(pattern.size, corners.shape[0]))
    row, indices = np.divmod(pattern, n_nodes)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n_nodes))])
    return indices, indptr, weights_to_data


@dataclass(frozen=True)
class Selection:
    """A sparse matrix whose data are picked, by position, from a vector."""

    format: str           # "csr" or "csc"
    shape: tuple
    indices: np.ndarray
    indptr: np.ndarray
    source: np.ndarray    # data[k] = values[source[k]]

    @staticmethod
    def of(positions: sp.spmatrix) -> "Selection":
        """From a matrix whose data are 1-based positions (kept as floats,
        so that no scipy operation drops a zero)."""
        return Selection(positions.format, positions.shape, positions.indices,
                         positions.indptr,
                         positions.data.astype(np.intp) - 1)

    def fill(self, values: np.ndarray) -> sp.spmatrix:
        kind = sp.csr_matrix if self.format == "csr" else sp.csc_matrix
        return kind((values[self.source], self.indices, self.indptr),
                    shape=self.shape)


@dataclass(frozen=True)
class RectangleTemplate:
    """Everything about an nx x ny rectangle of fine cells that does not
    depend on where it lies or on kappa. Local nodes and local cells are
    numbered row-major from the rectangle's lower-left corner, so that
    local node order is global node order."""

    node_offsets: np.ndarray    # global node of each local node, less the corner's
    cell_offsets: np.ndarray    # global cell of each local cell, less the corner's
    mass: sp.csr_matrix         # shared by every rectangle of the shape
    stiffness_indices: np.ndarray
    stiffness_indptr: np.ndarray
    kappa_to_stiffness: sp.csr_matrix   # per-cell kappa -> stiffness data
    boundary: np.ndarray        # sorted local nodes on the rectangle's boundary
    interior: np.ndarray        # the others, sorted
    interior_block: Selection   # A[interior][:, interior], CSC
    coupling_block: Selection   # A[interior][:, boundary], CSR
    cell_load: sp.csr_matrix    # per-cell constant source -> P1 nodal loads
    boundary_flux: np.ndarray   # nodal loads of a unit total outflux, uniform on the boundary
    gauge: np.ndarray           # mass @ 1
    bordered: Selection         # [[A, gauge], [gauge^T, 0]], CSC, from concat(A.data, gauge)


@functools.lru_cache(maxsize=4)
def rectangle_template(n_per_axis: int, nx: int, ny: int) -> RectangleTemplate:
    """The template of the nx x ny rectangles of fine cells on the uniform
    mesh with n_per_axis cells per axis.

    The cache holds the last four shapes, so it does not grow with the
    number of set-ups: a set-up uses two shapes, the coarse cell and the
    vertex neighbourhood (37 and 141 KB at 8 refinements per coarse cell).
    """
    h = 1.0 / n_per_axis
    jy, jx = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    cy, cx = np.divmod(np.arange(nx * ny), nx)
    v00 = cy * (nx + 1) + cx
    corners = np.column_stack([v00, v00 + 1, v00 + nx + 1, v00 + nx + 2])
    # one cell at unit kappa, split as build_mesh splits it: corners
    # (0,0) (1,0) (0,1) (1,1) are 0 1 2 3
    cell_mass, cell_stiffness = (m.toarray() for m in _p1_matrices(
        np.array([[0.0, 0.0], [h, 0.0], [0.0, h], [h, h]]),
        np.array([[0, 1, 3], [0, 3, 2]]), np.ones(2), 4))

    n_nodes = jx.size
    m_indices, m_indptr, m_map = _cell_map(corners, cell_mass, n_nodes)
    mass = sp.csr_matrix((m_map @ np.ones(nx * ny), m_indices, m_indptr),
                         shape=(n_nodes, n_nodes))
    a_indices, a_indptr, a_map = _cell_map(corners, cell_stiffness, n_nodes)

    on_boundary = (jx == 0) | (jx == nx) | (jy == 0) | (jy == ny)
    boundary, interior = np.flatnonzero(on_boundary), np.flatnonzero(~on_boundary)
    positions = sp.csr_matrix(
        (np.arange(1.0, a_indices.size + 1), a_indices, a_indptr),
        shape=(n_nodes, n_nodes))
    rows = positions[interior]

    # a per-cell constant source, integrated exactly: the cell's mass
    # matrix row sums at its corners
    cell_load = sp.csr_matrix(
        (np.tile(cell_mass.sum(axis=1), nx * ny),
         (corners.ravel(), np.repeat(np.arange(nx * ny), 4))),
        shape=(n_nodes, nx * ny))
    gauge = mass @ np.ones(n_nodes)
    g_pos = a_indices.size + 1 + np.arange(n_nodes, dtype=np.float64)
    bordered = sp.bmat([[positions, g_pos[:, None]],
                        [g_pos[None, :], None]], format="csc")
    # a constant outflux 1 / |boundary|, trapezoid on the closed loop: each
    # boundary node gets half a segment from each side of it
    flux = np.where(on_boundary, -h / (2.0 * (nx + ny) * h), 0.0)

    template = RectangleTemplate(
        node_offsets=jy * (n_per_axis + 1) + jx,
        cell_offsets=cy * n_per_axis + cx, mass=mass,
        stiffness_indices=a_indices, stiffness_indptr=a_indptr,
        kappa_to_stiffness=a_map, boundary=boundary, interior=interior,
        interior_block=Selection.of(rows[:, interior].tocsc()),
        coupling_block=Selection.of(rows[:, boundary]),
        cell_load=cell_load, boundary_flux=flux, gauge=gauge,
        bordered=Selection.of(bordered))
    # every rectangle of the shape hands out this one mass matrix
    for array in (mass.data, mass.indices, mass.indptr):
        array.flags.writeable = False
    return template


def assemble_submesh_operators(mesh: TwoLevelMesh, kappa: CoefficientField,
                               fine_cells: np.ndarray):
    """Assemble M, A over a rectangle of fine cells in local node numbering.

    fine_cells are the sorted indices of the cells of one rectangle.
    Returns (local_nodes, M_loc, A_loc) where local_nodes maps local index ->
    global node index (sorted). Used for the neighborhood problems, where the
    stiffness must only see triangles inside omega_i.

    On a uniform mesh every rectangle of one shape has the same node
    pattern and mass matrix, and its stiffness data are one linear map of
    its cells' kappa: rectangle_template builds them once per shape, so a
    call gathers kappa and makes one sparse product. M_loc is the
    template's own, read-only matrix.
    """
    cells = np.asarray(fine_cells)
    n = mesh.n_fine_per_axis
    if cells.ndim != 1 or cells.size == 0:
        raise ValueError("fine_cells must be a nonempty 1-D index array")
    (cy0, cx0), (cy1, cx1) = divmod(int(cells[0]), n), divmod(int(cells[-1]), n)
    if cx1 < cx0 or cells.size != (cx1 - cx0 + 1) * (cy1 - cy0 + 1):
        raise ValueError("fine_cells must be the sorted cells of a rectangle")
    t = rectangle_template(n, cx1 - cx0 + 1, cy1 - cy0 + 1)
    if not np.array_equal(cells, cells[0] + t.cell_offsets):
        raise ValueError("fine_cells must be the sorted cells of a rectangle")
    A = sp.csr_matrix((t.kappa_to_stiffness @ kappa.values[cells],
                       t.stiffness_indices, t.stiffness_indptr),
                      shape=t.mass.shape)
    return mesh.node_index(cx0, cy0) + t.node_offsets, t.mass, A


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
