"""P1 finite elements on the fine triangulation.

Assembly of mass and heterogeneous stiffness matrices (exact P1 quadrature)
over a rectangle of fine cells, the whole mesh included, from one template
per rectangle shape; nodal load vectors, Dirichlet elimination to free
dofs, SPD solves through the program's one factorization, factorized_spd,
and the L2 / energy norms. factorized_spd factors a narrow band with
LAPACK's band Cholesky and anything else with SuperLU. The diffusivity is
one positive, finite value per fine square cell, shared by its two
triangles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .mesh import TwoLevelMesh

SOLVE_RTOL = 1e-10
# factorized_spd takes the band kernel when the band, (b + 1) n floats,
# holds at most this many times the matrix's stored entries. It sits
# between the fine step matrices of the benchmark's two grids, measured
# end to end with this limit moved to put each on the other kernel
# (seed 7, 2-core Xeon, OpenBLAS at its default threads, medians of 10
# alternating pairs of perfbench/run.py):
# * 63^2 free nodes, band 9.5 times nnz: on the band, sequential-march's
#   fine exponential-sum march takes 0.82 s against SuperLU's 1.15 s,
#   and its L1 march 0.83 against 1.18 s (band faster in 10 of 10).
# * 127^2 free nodes, band 18.6 times nnz: on SuperLU, scale-setup's
#   fine march (one factorization, 50 solves) takes 0.39 s against the
#   band's 0.49 s (SuperLU faster in 10 of 10). The band factors faster
#   (37 against 76 ms), but its solves inside the march are slower (4.8
#   against 4.1 ms median, 8.8 against 4.6 ms at the 90th percentile).
# At 255^2 free nodes (a 32 x 8 mesh), band 36.9 times nnz, SuperLU wins
# even on the kernels alone from the 20th solve of one factor on: it
# factors in 570 ms and solves in 21 ms against the band's 380 and 31 ms.
BAND_FILL_LIMIT = 12


@dataclass(frozen=True)
class CoefficientField:
    """Per-fine-cell diffusivity values, row-major from the (0,0) cell."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("kappa values must be a flat per-cell array")
        # inf > 0, but an infinite kappa makes the stiffness matrix singular
        if not np.all(np.isfinite(v) & (v > 0)):
            raise ValueError("kappa values must all be finite and positive")
        object.__setattr__(self, "values", v)

    @staticmethod
    def constant(mesh: TwoLevelMesh, value: float = 1.0) -> "CoefficientField":
        n = mesh.n_fine_per_axis
        return CoefficientField(np.full(n * n, float(value)))


def read_kappa_raster(path) -> CoefficientField:
    """Plain-text raster: header "kappa <nx> <ny>", then nx*ny row-major values."""
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
    # the local solves' blocks and loads, None unless built `local`
    interior_block: Selection = None    # A[interior][:, interior], CSC
    coupling_block: Selection = None    # A[interior][:, boundary], CSR
    cell_load: sp.csr_matrix = None     # per-cell constant source -> P1 nodal loads
    boundary_flux: np.ndarray = None    # nodal loads of a unit total outflux, uniform on the boundary
    gauge: np.ndarray = None            # mass @ 1
    pinned: Selection = None            # A without local node 0, CSC


@functools.lru_cache(maxsize=4)
def rectangle_template(n_per_axis: int, nx: int, ny: int,
                       local: bool = True) -> RectangleTemplate:
    """The template of the nx x ny rectangles of fine cells on the uniform
    mesh with n_per_axis cells per axis; the local solves' fields only if
    `local`.

    The P1 element matrices are computed on one reference cell only;
    every rectangle, the whole mesh included, sums them in cell order.
    The cache holds four entries, so it does not grow with the number of
    set-ups, which use two: the vertex neighbourhood's, and the whole
    mesh's, which assemble_operators builds without the local fields.
    """
    h = 1.0 / n_per_axis
    jy, jx = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    cy, cx = np.divmod(np.arange(nx * ny), nx)
    v00 = cy * (nx + 1) + cx
    corners = np.column_stack([v00, v00 + 1, v00 + nx + 1, v00 + nx + 2])
    # one cell at unit kappa, split as build_mesh splits it: corners
    # (0,0) (1,0) (0,1) (1,1) are 0 1 2 3
    triangles = np.array([[0, 1, 3], [0, 3, 2]])
    area, g = triangle_geometry(
        np.array([[0.0, 0.0], [h, 0.0], [0.0, h], [h, h]]), triangles)
    cell_mass, cell_stiffness = np.zeros((4, 4)), np.zeros((4, 4))
    for tri, a, grad in zip(triangles, area, g):
        cell_mass[np.ix_(tri, tri)] += a * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
        cell_stiffness[np.ix_(tri, tri)] += a * np.einsum("ik,jk->ij", grad, grad)

    n_nodes = jx.size
    m_indices, m_indptr, m_map = _cell_map(corners, cell_mass, n_nodes)
    mass = sp.csr_matrix((m_map @ np.ones(nx * ny), m_indices, m_indptr),
                         shape=(n_nodes, n_nodes))
    a_indices, a_indptr, a_map = _cell_map(corners, cell_stiffness, n_nodes)

    on_boundary = (jx == 0) | (jx == nx) | (jy == 0) | (jy == ny)
    boundary, interior = np.flatnonzero(on_boundary), np.flatnonzero(~on_boundary)
    fields = {}
    if local:
        positions = sp.csr_matrix(
            (np.arange(1.0, a_indices.size + 1), a_indices, a_indptr),
            shape=(n_nodes, n_nodes))
        rows = positions[interior]
        fields = dict(
            interior_block=Selection.of(rows[:, interior].tocsc()),
            coupling_block=Selection.of(rows[:, boundary]),
            # a per-cell constant source, integrated exactly: the cell's
            # mass matrix row sums at its corners
            cell_load=sp.csr_matrix(
                (np.tile(cell_mass.sum(axis=1), nx * ny),
                 (corners.ravel(), np.repeat(np.arange(nx * ny), 4))),
                shape=(n_nodes, nx * ny)),
            # a constant outflux 1 / |boundary|, trapezoid on the closed
            # loop: each boundary node gets half a segment from each side
            boundary_flux=np.where(on_boundary, -h / (2.0 * (nx + ny) * h), 0.0),
            gauge=mass @ np.ones(n_nodes),
            pinned=Selection.of(positions[1:, 1:].tocsc()))

    template = RectangleTemplate(
        node_offsets=jy * (n_per_axis + 1) + jx,
        cell_offsets=cy * n_per_axis + cx, mass=mass,
        stiffness_indices=a_indices, stiffness_indptr=a_indptr,
        kappa_to_stiffness=a_map, boundary=boundary, interior=interior,
        **fields)
    # every rectangle of the shape hands out this one mass matrix, and
    # assemble_operators the whole mesh's interior as its free dofs
    for array in (mass.data, mass.indices, mass.indptr, interior):
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


def assemble_operators(mesh: TwoLevelMesh, kappa: CoefficientField) -> OperatorPair:
    """M_h and A_h over the whole mesh: the rectangle of all its cells, so
    that every local operator is this one, bit for bit, on its
    rectangle's interior rows. The mass matrix and free_dofs are the
    whole-mesh template's own, read-only arrays."""
    n = mesh.n_fine_per_axis
    if kappa.values.size != n * n:
        raise ValueError(f"kappa has {kappa.values.size} values, mesh has {n * n} cells")
    t = rectangle_template(n, n, n, local=False)
    A = sp.csr_matrix((t.kappa_to_stiffness @ kappa.values,
                       t.stiffness_indices, t.stiffness_indptr),
                      shape=t.mass.shape)
    return OperatorPair(mass=t.mass, stiffness=A, free_dofs=t.interior)


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


def factorized_spd(matrix, blocks: int = 1):
    """Factorize once, return a solver closed over the factorization.

    The program's one factorization. Takes a scipy sparse SPD matrix,
    read as stored when CSR or CSC, and factors it with one of two kernels,
    chosen from what the matrix shows: n, the lower half-bandwidth b of its
    stored pattern in its own order, and its stored entries nnz.

    * When (b + 1) n <= BAND_FILL_LIMIT nnz, LAPACK's band Cholesky
      (dpbtrf, dpbtrs) in that order: no fill-reducing ordering, blocked
      BLAS, and (b + 1) n floats of storage. Every set-up matrix, every
      multiscale step and mass matrix and the fine step up to 63^2 free
      nodes take it: neighbourhoods and the fine grid number their nodes
      row by row, the partition of unity its interiors cell by cell, the
      multiscale space its columns vertex by vertex.
    * Otherwise SuperLU in symmetric mode: a minimum-degree ordering of
      A + A^T with the diagonal as pivots, since an SPD matrix factors
      stably without row interchanges.

    A band factor that meets a non-positive pivot raises RuntimeError, as
    a singular SuperLU factor does. Every solve verifies the residual to
    SOLVE_RTOL relative, block by block, each against its own norm, for
    `blocks` equal diagonal blocks.
    """
    if matrix.format not in ("csr", "csc"):
        matrix = matrix.tocsc()
    n = matrix.shape[0]
    major = np.repeat(np.arange(n), np.diff(matrix.indptr))
    rows = major if matrix.format == "csr" else matrix.indices
    row_sums = np.bincount(rows, np.abs(matrix.data), n)
    anorm = np.max(row_sums.reshape(blocks, -1), axis=1, initial=0.0)
    # (indices, major) is (row, column) in CSC and (column, row) in CSR;
    # the matrix is symmetric, so in either format the entries with
    # indices >= major are its lower triangle, `depth` below the diagonal
    depth = matrix.indices - major
    b = int(depth.max(initial=0))
    if (b + 1) * n <= BAND_FILL_LIMIT * matrix.nnz:
        # LAPACK's lower band storage, ab[i - j, j] = a[i, j], built in
        # Fortran order so that dpbtrf factors it in place
        lower = depth >= 0
        band = np.bincount(major[lower] * (b + 1) + depth[lower],
                           matrix.data[lower], (b + 1) * n)
        factor, info = lapack.dpbtrf(band.reshape(n, b + 1).T, lower=1,
                                     overwrite_ab=1)
        if info:
            raise RuntimeError(
                f"SPD factorization failed: the leading minor of order "
                f"{info} is not positive definite")

        def kernel(rhs):
            return lapack.dpbtrs(factor, rhs, lower=1)[0]
    else:
        kernel = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True}).solve

    def solve(rhs: np.ndarray) -> np.ndarray:
        x = kernel(rhs)
        _check_residual(matrix, anorm, x, rhs, blocks)
        return x

    return solve


def _check_residual(matrix, anorm, x, rhs, blocks=1):
    # normwise backward error |Ax-b| / (|A| |x| + |b|) of each right-hand
    # side column on each of `blocks` equal runs of rows (one anorm each),
    # robust to high-contrast scale spread; a zero rhs is solved exactly
    res, rhs_norm, x_norm = (
        np.linalg.norm(np.reshape(v, (blocks, -1) + x.shape[1:]), axis=1)
        for v in (matrix @ x - rhs, rhs, x))
    denom = np.reshape(anorm, (-1,) + (1,) * (x.ndim - 1)) * x_norm + rhs_norm
    failed = np.flatnonzero((rhs_norm != 0.0) & ~(res <= SOLVE_RTOL * denom))
    if failed.size:
        j = failed[0]
        raise RuntimeError(
            f"SPD solve failed the residual check: |Ax-b| = {res.flat[j]:.3e}, "
            f"|A||x|+|b| = {denom.flat[j]:.3e}, rtol = {SOLVE_RTOL:.1e}")


def norms(op: OperatorPair, v: np.ndarray) -> tuple:
    """(L2 norm, energy norm) through the assembled matrices."""
    l2 = float(np.sqrt(max(v @ (op.mass @ v), 0.0)))
    energy = float(np.sqrt(max(v @ (op.stiffness @ v), 0.0)))
    return l2, energy
