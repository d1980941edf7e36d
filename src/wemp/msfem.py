"""Wavelet-edge multiscale space on the two-level mesh.

Construction stages:

1. partition of unity: per coarse cell, diffusivity-harmonic extensions of the
   four affine corner data in one block solve, assembled into global
   hat-like functions chi_i;
2. Haar functions on the four edges of each vertex neighborhood omega_i,
   orthonormal in L2 of the edge;
3. harmonic lifts of the edge data into omega_i, one block solve per
   neighborhood, and one Neumann corrector per neighborhood driven by the
   weighted coefficient kappa_tilde;
4. global space: the columns chi_i * (local function) of each neighborhood
   form one block, scattered with its boundary dofs zeroed;
   near-dependent columns are dropped by LAPACK's pivoted Cholesky (dpstrf) of
   the Gram matrix scaled to unit diagonal; the kept block of the Gram
   matrix is the projected mass matrix, and the stiffness is projected.

Stages 1 and 3 share one Dirichlet solver, _LocalSolver, on a rectangle of
fine cells: a coarse cell for stage 1, a vertex neighborhood for stage 3.

Only interior coarse vertices generate columns, so every basis function
vanishes on the domain boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .mesh import (TwoLevelMesh, NodeRectangle, coarse_neighborhood,
                   node_rectangle)
from .fem import (CoefficientField, OperatorPair, assemble_operators,
                  assemble_submesh_operators, triangle_geometry,
                  factorized_spd)

RANK_FILTER_TOL = 1e-10


@dataclass(frozen=True)
class PartitionOfUnity:
    """Rows are the chi_i, one per coarse vertex, over all fine nodes."""

    chi: sp.csr_matrix

    def vertex_function(self, vertex: int) -> np.ndarray:
        return self.chi[vertex].toarray().ravel()

    def vertex_values(self, vertex: int, nodes: np.ndarray) -> np.ndarray:
        """vertex_function(vertex)[nodes] for sorted nodes, read from the
        stored entries of the row without densifying it."""
        lo, hi = self.chi.indptr[vertex], self.chi.indptr[vertex + 1]
        cols = self.chi.indices[lo:hi]
        pos = np.searchsorted(nodes, cols)
        hit = pos < nodes.size
        hit[hit] = nodes[pos[hit]] == cols[hit]
        out = np.zeros(nodes.size)
        # added to zero, as toarray does, so a stored -0.0 reads as 0.0
        out[pos[hit]] += self.chi.data[lo:hi][hit]
        return out


def build_partition_of_unity(mesh: TwoLevelMesh,
                             kappa: CoefficientField) -> PartitionOfUnity:
    """Harmonic extensions of the affine corner data, cell by cell.

    On each coarse cell the four corner functions take value 1 at one corner,
    0 at the others, vary linearly along the cell edges, and extend
    kappa-harmonically inside (_LocalSolver.lift on the one-cell rectangle).
    Their sum has boundary data 1, so it extends to the constant 1: the chi_i
    form a partition of unity.
    """
    C = mesh.coarse_divisions
    R = mesh.refinements_per_coarse
    keys, vals = [], []                  # key: vertex * n_nodes + node
    for cy in range(C):
        for cx in range(C):
            cell = node_rectangle(mesh, (cx * R, (cx + 1) * R),
                                  (cy * R, (cy + 1) * R))
            solver = _LocalSolver(mesh, kappa, cell)
            coords = mesh.fine_node_coords[solver.bnd_nodes]
            xi = (coords[:, 0] - cx * mesh.H) / mesh.H
            eta = (coords[:, 1] - cy * mesh.H) / mesh.H
            corners = mesh.coarse_vertex_index(cx + np.array([0, 1, 0, 1]),
                                               cy + np.array([0, 0, 1, 1]))
            data = np.column_stack([(1 - xi) * (1 - eta), xi * (1 - eta),
                                    (1 - xi) * eta, xi * eta])
            keys.append((corners * mesh.n_nodes
                         + solver.local_nodes[:, None]).ravel())
            vals.append(solver.lift(data).ravel())

    # cells sharing an edge contribute identical values there; keep the
    # first in cell order
    uniq, first = np.unique(np.concatenate(keys), return_index=True)
    vertex, node = np.divmod(uniq, mesh.n_nodes)
    chi = sp.coo_matrix((np.concatenate(vals)[first], (vertex, node)),
                        shape=((C + 1) ** 2, mesh.n_nodes)).tocsr()
    return PartitionOfUnity(chi=chi)


def edge_wavelets(level: int, edge_coords: np.ndarray) -> np.ndarray:
    """Haar family on one straight edge, as per-fine-segment values.

    edge_coords is the ordered (n_seg + 1, 2) node coordinate array of the
    edge. Returns a (2^level, n_seg) array: the normalized constant first,
    then generations g = 1..level with 2^(g-1) functions each, all
    orthonormal in L2 of the edge. Requires the segment count to be a
    multiple of 2^level so the dyadic breakpoints land on fine nodes.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    coords = np.asarray(edge_coords, dtype=np.float64)
    n_seg = coords.shape[0] - 1
    seg_len = np.linalg.norm(np.diff(coords, axis=0), axis=1)
    if n_seg < 1 or np.ptp(seg_len) > 1e-12 * seg_len[0]:
        raise ValueError("edge must consist of uniform fine segments")
    n_func = 2 ** level
    if n_seg < n_func or n_seg % n_func != 0:
        raise ValueError(
            f"edge with {n_seg} segments cannot carry level {level} "
            f"(needs a multiple of {n_func})")
    length = float(seg_len.sum())
    W = np.zeros((n_func, n_seg))
    W[0] = 1.0 / np.sqrt(length)
    row = 1
    for g in range(1, level + 1):
        n_blocks = 2 ** (g - 1)
        block = n_seg // n_blocks
        amp = np.sqrt(n_blocks / length)
        for p in range(n_blocks):
            lo = p * block
            W[row, lo:lo + block // 2] = amp
            W[row, lo + block // 2:lo + block] = -amp
            row += 1
    return W


def segments_to_nodes(seg_values: np.ndarray) -> np.ndarray:
    """Nodal trace data from per-segment values along the last axis:
    adjacent-segment averages, with an implicit zero outside the edge (so
    endpoints get half values)."""
    seg = np.asarray(seg_values, dtype=np.float64)
    padded = np.pad(seg, [(0, 0)] * (seg.ndim - 1) + [(1, 1)])
    return 0.5 * (padded[..., :-1] + padded[..., 1:])


def neighborhood_boundary_nodes(hood: NodeRectangle) -> np.ndarray:
    """Sorted global node indices of a rectangle's outer boundary."""
    return np.unique(np.concatenate(hood.boundary_edges))


class _LocalSolver:
    """Shared assembly and factorization for the local solves on one
    rectangle: a vertex neighborhood or, for the partition of unity, a
    coarse cell. Local node numbers are positions in the sorted
    local_nodes."""

    def __init__(self, mesh: TwoLevelMesh, kappa: CoefficientField,
                 hood: NodeRectangle):
        self.mesh = mesh
        self.hood = hood
        self.local_nodes, self.M, self.A = assemble_submesh_operators(
            mesh, kappa, hood.fine_cells)
        self.bnd_nodes = neighborhood_boundary_nodes(hood)
        self.bnd_local = np.searchsorted(self.local_nodes, self.bnd_nodes)
        mask = np.ones(self.local_nodes.size, dtype=bool)
        mask[self.bnd_local] = False
        self.int_local = np.where(mask)[0]
        self._A_ii = self.A[self.int_local][:, self.int_local].tocsc()
        self._A_ib = self.A[self.int_local][:, self.bnd_local]
        # a one-cell rectangle at one refinement has no interior node
        self._dirichlet = (factorized_spd(self._A_ii) if self.int_local.size
                           else None)

    def lift(self, trace: np.ndarray) -> np.ndarray:
        """Harmonic extension of nodal boundary data into the rectangle.

        trace is aligned with bnd_nodes along its first axis; a 2-D trace
        holds one column per boundary function, and one factorized solve
        serves them all. The result is aligned with local_nodes, with the
        same columns.
        """
        trace = np.asarray(trace, dtype=np.float64)
        if trace.shape[0] != self.bnd_local.size:
            raise ValueError("trace length does not match the boundary nodes")
        v = np.zeros((self.local_nodes.size,) + trace.shape[1:])
        v[self.bnd_local] = trace
        if self.int_local.size:
            v[self.int_local] = self._dirichlet(-(self._A_ib @ trace))
        return v

    def corrector(self, kappa_tilde: np.ndarray) -> np.ndarray:
        """Zero-mean solution of the pure Neumann problem with bulk source
        kappa_tilde (normalized to unit integral) and constant outflux
        balancing it."""
        mesh = self.mesh
        h = mesh.h
        cells = self.hood.fine_cells
        kt = np.asarray(kappa_tilde, dtype=np.float64)[cells]
        total = float(kt.sum()) * h * h
        if total <= 0:
            raise ValueError("kappa_tilde must have positive mass on omega_i")

        # bulk load: per-triangle constant source, exact P1 integration
        tri_idx = np.sort(np.concatenate([2 * cells, 2 * cells + 1]))
        tris_local = np.searchsorted(self.local_nodes,
                                     mesh.fine_triangles[tri_idx])
        g_tri = np.repeat(kt / total, 2)
        area = h * h / 2.0
        rhs = np.zeros(self.local_nodes.size + 1)    # bordered: gauge row
        np.add.at(rhs, tris_local.ravel(),
                  np.repeat(g_tri * area / 3.0, 3))

        # boundary flux: constant 1/|boundary|, trapezoid on the closed loop
        (x0, x1), (y0, y1) = self.hood.node_range
        perimeter = 2.0 * ((x1 - x0) + (y1 - y0)) * h
        q = 1.0 / perimeter
        for side in self.hood.boundary_edges:
            side_local = np.searchsorted(self.local_nodes, side)
            np.add.at(rhs, side_local[:-1], -q * h / 2.0)
            np.add.at(rhs, side_local[1:], -q * h / 2.0)

        residual = abs(rhs.sum())
        if residual > 1e-10:
            raise ValueError(
                f"Neumann data incompatible: net load {residual:.3e}")

        # zero-mean gauge through a bordered system
        m = np.asarray(self.M @ np.ones(self.local_nodes.size))
        K = sp.bmat([[self.A, m[:, None]], [m[None, :], None]]).tocsc()
        sol = spla.splu(K).solve(rhs)
        res = np.linalg.norm(K @ sol - rhs)
        if res > 1e-10 * max(np.linalg.norm(rhs), 1.0):
            raise RuntimeError(f"Neumann solve residual {res:.3e} too large")
        return sol[:-1]


def weighted_coefficient(mesh: TwoLevelMesh, kappa: CoefficientField,
                         pou: PartitionOfUnity) -> np.ndarray:
    """Per-fine-cell field H^2 kappa sum_i |grad chi_i|^2.

    Gradients of the P1 chi_i are per-triangle constants; the two triangle
    values of each cell are averaged.
    """
    _, grads = triangle_geometry(mesh.fine_node_coords, mesh.fine_triangles)
    tri = mesh.fine_triangles
    chi = pou.chi.tocsr()

    def derivative(j):
        # d chi_i / d x_j per (vertex, triangle), corner terms added in order
        terms = [chi[:, tri[:, k]].multiply(grads[:, k, j]) for k in range(3)]
        return terms[0] + terms[1] + terms[2]

    gx, gy = derivative(0), derivative(1)
    sq = (gx.multiply(gx) + gy.multiply(gy)).tocsr()
    # CSR data runs vertex by vertex, so each triangle sums in vertex order
    sum_sq = np.bincount(sq.indices, weights=sq.data, minlength=tri.shape[0])
    kappa_tri = np.repeat(kappa.values, 2)
    val_tri = mesh.H ** 2 * kappa_tri * sum_sq
    return 0.5 * (val_tri[0::2] + val_tri[1::2])


def eta_indicator(H: float, level: int, kappa: CoefficientField,
                  kappa_tilde: np.ndarray) -> float:
    """Coarse-scale accuracy indicator H max(kappa_tilde)^(1/2)
    + 2^(-level/2) max of kappa on cells touching the coarse skeleton."""
    n = int(round(np.sqrt(kappa.values.size)))
    if n * n != kappa.values.size:
        raise ValueError("kappa field is not square")
    R = int(round(n * H))
    vals = kappa.values.reshape(n, n)
    if R >= 1:
        ix = np.arange(n)
        on_skel = (ix % R == 0) | (ix % R == R - 1)
        edge_mask = on_skel[None, :] | on_skel[:, None]
        edge_max = float(vals[edge_mask].max())
    else:
        edge_max = float(vals.max())
    return float(H * np.sqrt(kappa_tilde.max()) + 2.0 ** (-level / 2.0) * edge_max)


@dataclass(frozen=True)
class MultiscaleSpace:
    level: int
    basis: sp.csr_matrix            # fine dofs x ms dofs
    ms_mass: sp.csr_matrix          # SPD after filtering
    ms_stiffness: sp.csr_matrix
    column_info: tuple              # (vertex, kind, side, wavelet index) per column
    fine_ops: OperatorPair
    mesh: TwoLevelMesh
    kappa: CoefficientField

    def __post_init__(self):
        # ms_mass never changes, so every projection shares one
        # factorization. Made with the space, it raised the sequential
        # benchmark's peak memory by its own 2 MB; made at the first
        # projection, late in the run, by 7 MB
        object.__setattr__(self, "_mass_solve", factorized_spd(self.ms_mass))

    @property
    def n_columns(self) -> int:
        return self.basis.shape[1]

    def lift(self, coeffs: np.ndarray) -> np.ndarray:
        """Fine-nodal view of an ms-coefficient vector (or stack of them)."""
        return self.basis @ coeffs

    def project(self, v: np.ndarray) -> np.ndarray:
        return edge_projection(self, v)


def _vertex_columns(mesh, kappa, pou, level, vertex, kappa_tilde):
    """All basis columns of one neighborhood: 4 * 2^level lifts + corrector.

    Returns (local_nodes, block, info): block has one row per column, over
    local_nodes, and info one entry per column.
    """
    hood = coarse_neighborhood(mesh, vertex)
    solver = _LocalSolver(mesh, kappa, hood)
    chi_local = pou.vertex_values(vertex, solver.local_nodes)

    n_wav = 2 ** level
    traces = np.zeros((solver.bnd_nodes.size, 4 * n_wav))
    info = []
    for side_idx, side in enumerate(hood.boundary_edges):
        nodal = segments_to_nodes(
            edge_wavelets(level, mesh.fine_node_coords[side]))
        rows = np.searchsorted(solver.bnd_nodes, side)
        traces[rows, side_idx * n_wav:(side_idx + 1) * n_wav] = nodal.T
        info.extend((vertex, "edge", side_idx, w_idx)
                    for w_idx in range(n_wav))
    info.append((vertex, "corrector", -1, 0))
    block = chi_local * np.vstack([solver.lift(traces).T,
                                   solver.corrector(kappa_tilde)])
    return solver.local_nodes, block, info


def _pivoted_gram_filter(gram: sp.csr_matrix, tol: float) -> np.ndarray:
    """Column subset selection by diagonally pivoted Cholesky (dpstrf).

    The sparse Gram matrix is scaled to unit diagonal into the one dense
    array that dpstrf factors in place, so the factorization stops when the
    best remaining residual diagonal, relative to the column's own squared
    norm, drops to tol. A column is dropped for its length alone only when
    its squared norm is zero, however short it is against the others.
    Returns kept indices, sorted.
    """
    d0 = gram.diagonal()
    if np.any(d0 < -tol * d0.max()):
        raise RuntimeError("Gram matrix has a negative diagonal entry")
    # identically vanishing products chi_i * v (possible in degenerate
    # refinement limits) get a zero row and column, so they are never pivots
    positive = d0 > 0.0
    s = np.zeros_like(d0)
    s[positive] = 1.0 / np.sqrt(d0[positive])
    g = gram.tocoo()
    scaled = np.zeros(gram.shape, order="F")
    scaled[g.row, g.col] = s[g.row] * s[g.col] * g.data
    _, piv, rank, info = lapack.dpstrf(scaled, tol=tol, overwrite_a=True)
    if info < 0:
        raise RuntimeError(f"dpstrf rejected its argument {-info}")
    return np.sort(piv[:rank] - 1)


def assemble_space(mesh: TwoLevelMesh, kappa: CoefficientField,
                   pou: PartitionOfUnity, level: int,
                   workers: int = 1) -> MultiscaleSpace:
    """Global multiscale space over the interior coarse vertices.

    The local solves run one after another. `workers` is ignored: two
    threads made the set-up slower than one, and the keyword stays only
    because perfbench/workloads.py passes it.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    ops = assemble_operators(mesh, kappa)
    kappa_tilde = weighted_coefficient(mesh, kappa, pou)
    vertices = np.where(mesh.coarse_vertex_interior)[0]
    if vertices.size == 0:
        raise ValueError("mesh has no interior coarse vertices")
    results = [_vertex_columns(mesh, kappa, pou, level, v, kappa_tilde)
               for v in vertices]

    interior_mask = np.zeros(mesh.n_nodes, dtype=bool)
    interior_mask[ops.free_dofs] = True
    rows, cols, vals = [], [], []
    info = []
    for local_nodes, block, block_info in results:
        keep = interior_mask[local_nodes]
        kept = block[:, keep]
        # row-major nonzeros: column by column, nodes ascending within each
        col, node = np.nonzero(kept)
        rows.append(local_nodes[keep][node])
        cols.append(len(info) + col)
        vals.append(kept[col, node])
        info.extend(block_info)
    raw = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_nodes, len(info))).tocsr()

    gram = raw.T @ (ops.mass @ raw)
    gram = ((gram + gram.T) * 0.5).tocsr()
    gram.eliminate_zeros()          # entries that cancel are not kept
    kept = _pivoted_gram_filter(gram, RANK_FILTER_TOL)
    if kept.size < 0.5 * len(info):
        raise RuntimeError(
            f"rank filter kept only {kept.size} of {len(info)} columns; "
            "the local problems look degenerate")
    basis = raw[:, kept].tocsr()
    # the Gram matrix already holds basis.T @ M @ basis, entry for entry
    ms_mass = gram[kept][:, kept]
    ms_stiff = basis.T @ (ops.stiffness @ basis)
    ms_stiff = ((ms_stiff + ms_stiff.T) * 0.5).tocsr()
    return MultiscaleSpace(level=level, basis=basis, ms_mass=ms_mass,
                           ms_stiffness=ms_stiff,
                           column_info=tuple(info[i] for i in kept),
                           fine_ops=ops, mesh=mesh, kappa=kappa)


def edge_projection(space: MultiscaleSpace, v: np.ndarray) -> np.ndarray:
    """Mass-orthogonal projection of a fine-nodal vector onto the space."""
    return space._mass_solve(space.basis.T @ (space.fine_ops.mass @ v))
