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
   form one block, made, filtered and scattered in one pass: LAPACK's
   pivoted Cholesky (dpstrf) of the block's Gram matrix, less the part the
   columns kept before it explain, scaled to unit diagonal, drops the
   near-dependent columns; the kept ones are scattered, and their mass and
   stiffness products with themselves and with the earlier blocks they
   overlap, taken with the neighbourhood's local operators, are the
   entries of the Galerkin matrices, assembled once at their exact size.

Stages 1 and 3 share one Dirichlet solver, _LocalSolver, on a rectangle of
fine cells: a coarse cell for stage 1, a vertex neighborhood for stage 3.
All rectangles of one shape share one fem.rectangle_template, so each
solver only gathers its cells' kappa into the template's patterns.

Only interior coarse vertices generate columns, so every basis function
vanishes on the domain boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .mesh import (TwoLevelMesh, NodeRectangle, coarse_neighborhood,
                   node_rectangle)
from .fem import (CoefficientField, OperatorPair, assemble_operators,
                  assemble_submesh_operators, rectangle_template,
                  triangle_geometry, factorized_spd)

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
            # integer node offsets put xi and eta exactly on 0 and 1 at the
            # cell's sides, whatever H is
            iy, ix = np.divmod(solver.bnd_nodes, mesh.n_fine_per_axis + 1)
            xi = (ix - cx * R) / R
            eta = (iy - cy * R) / R
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
    local_nodes.

    The rectangle's shape fixes its node pattern, boundary and interior
    sets and the sub-patterns read from them (fem.rectangle_template), so
    A_ii and A_ib are index selections into this rectangle's stiffness
    data.
    """

    def __init__(self, mesh: TwoLevelMesh, kappa: CoefficientField,
                 hood: NodeRectangle):
        self.mesh = mesh
        self.hood = hood
        self.local_nodes, self.M, self.A = assemble_submesh_operators(
            mesh, kappa, hood.fine_cells)
        (x0, x1), (y0, y1) = hood.node_range
        self.template = rectangle_template(mesh.n_fine_per_axis,
                                           x1 - x0, y1 - y0)
        self.bnd_local = self.template.boundary
        self.int_local = self.template.interior
        self.bnd_nodes = self.local_nodes[self.bnd_local]
        self._A_ib = self.template.coupling_block.fill(self.A.data)
        # a one-cell rectangle at one refinement has no interior node
        self._dirichlet = (
            factorized_spd(self.template.interior_block.fill(self.A.data))
            if self.int_local.size else None)

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
        balancing it.

        The zero mean is a gauge row m = M 1 bordering A; the template holds
        the bordered pattern, the map from per-cell sources to nodal loads
        and the outflux's nodal loads, so only the source and A's data are
        this rectangle's own.
        """
        t = self.template
        h = self.mesh.h
        kt = np.asarray(kappa_tilde, dtype=np.float64)[self.hood.fine_cells]
        total = float(kt.sum()) * h * h
        if total <= 0:
            raise ValueError("kappa_tilde must have positive mass on omega_i")
        rhs = np.append(t.cell_load @ (kt / total) + t.boundary_flux, 0.0)
        residual = abs(rhs.sum())
        if residual > 1e-10:
            raise ValueError(
                f"Neumann data incompatible: net load {residual:.3e}")

        K = t.bordered.fill(np.concatenate([self.A.data, t.gauge]))
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
    ms_mass: sp.csr_matrix          # basis.T M basis, SPD after filtering
    ms_stiffness: sp.csr_matrix     # basis.T A basis
    column_info: tuple              # (vertex, kind, side, wavelet index) per column
    fine_ops: OperatorPair
    mesh: TwoLevelMesh
    kappa: CoefficientField

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

    Returns (solver, block, info): the neighbourhood's _LocalSolver, block
    with one row per column over solver.local_nodes, and info one entry per
    column. Every row vanishes on the neighbourhood's boundary, where chi
    does.
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
    return solver, block, info


def _shared_nodes(a: NodeRectangle, b: NodeRectangle):
    """Positions, among the local nodes of a and of b, of the nodes of the
    rectangle they share, or None when they share no cell."""
    (ax0, ax1), (ay0, ay1) = a.node_range
    (bx0, bx1), (by0, by1) = b.node_range
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    y0, y1 = max(ay0, by0), min(ay1, by1)
    if x0 >= x1 or y0 >= y1:
        return None
    xs, ys = np.arange(x0, x1 + 1), np.arange(y0, y1 + 1)[:, None]
    return (((ys - ay0) * (ax1 - ax0 + 1) + xs - ax0).ravel(),
            ((ys - by0) * (bx1 - bx0 + 1) + xs - bx0).ravel())


def _pivoted_gram_filter(gram: np.ndarray, tol: float,
                         explained: np.ndarray | float = 0.0) -> np.ndarray:
    """Column subset selection by diagonally pivoted Cholesky (dpstrf).

    gram is the dense Gram matrix of one neighbourhood's columns, and
    explained the part of it that the columns kept before them account
    for. dpstrf factors the rest scaled by gram's diagonal, so it stops
    when the best remaining residual diagonal, relative to the column's
    own squared norm, drops to tol. A column is dropped for its length
    alone only when its squared norm is zero, however short it is against
    the others. Returns kept indices, sorted.
    """
    d0 = np.diag(gram)
    if np.any(d0 < -tol * d0.max()):
        raise RuntimeError("Gram matrix has a negative diagonal entry")
    # identically vanishing products chi_i * v (possible in degenerate
    # refinement limits) get a zero row and column, so they are never pivots
    positive = d0 > 0.0
    s = np.zeros_like(d0)
    s[positive] = 1.0 / np.sqrt(d0[positive])
    scaled = np.asfortranarray(s[:, None] * (gram - explained) * s)
    _, piv, rank, info = lapack.dpstrf(scaled, tol=tol, overwrite_a=True)
    if info < 0:
        raise RuntimeError(f"dpstrf rejected its argument {-info}")
    return np.sort(piv[:rank] - 1)


def _symmetric_csr(pieces: dict, offsets: np.ndarray) -> sp.csr_matrix:
    """The symmetric CSR matrix whose (i, j) block, between the columns
    offsets[i]:offsets[i + 1] and offsets[j]:offsets[j + 1], is the dense
    pieces[i, j] for i <= j (and its transpose below the diagonal, zero
    where no piece is given). Exact zeros are not stored, and every array
    is made at its final size, one block row at a time."""
    rows = [[] for _ in range(offsets.size - 1)]
    for (i, j), piece in pieces.items():
        rows[i].append((j, piece))
        if i != j:
            rows[j].append((i, piece.T))
    data, indices, counts = [], [], []
    for i, row in enumerate(rows):
        row.sort(key=lambda item: item[0])
        band = np.hstack([piece for _, piece in row])
        cols = np.concatenate([np.arange(offsets[j], offsets[j + 1])
                               for j, _ in row])
        stored = band != 0.0
        counts.append(stored.sum(axis=1))
        data.append(band[stored])
        indices.append(cols[np.nonzero(stored)[1]])
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    n = int(offsets[-1])
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices),
                          indptr), shape=(n, n))


def assemble_space(mesh: TwoLevelMesh, kappa: CoefficientField,
                   pou: PartitionOfUnity, level: int,
                   workers: int = 1) -> MultiscaleSpace:
    """Global multiscale space over the interior coarse vertices, made in
    one pass: each neighbourhood's block is built, rank filtered against
    the columns kept before it, and scattered, and its mass and stiffness
    products with itself and with the blocks it overlaps become the
    Galerkin matrices' entries. `workers` is ignored: two threads made the
    set-up slower than one, and the keyword stays only because
    perfbench/workloads.py passes it.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    ops = assemble_operators(mesh, kappa)
    kappa_tilde = weighted_coefficient(mesh, kappa, pou)
    vertices = np.where(mesh.coarse_vertex_interior)[0]
    if vertices.size == 0:
        raise ValueError("mesh has no interior coarse vertices")

    info, mass, stiffness = [], {}, {}
    data, rows, counts, offsets = [], [], [], [0]
    # A near-dependence can span neighbourhoods (at two refinements per
    # coarse cell, or at the finest level a mesh carries), so each block is
    # filtered on the part of its Gram matrix that the columns kept before
    # it leave unexplained: one pivoted Cholesky of the global Gram matrix,
    # a block of pivots at a time. A neighbourhood shares cells only with
    # those of the vertices one coarse step away, the earliest numbered
    # C + 2 before it (chi_i vanishes on the lines it shares with the
    # others). So `factor` holds the global factor's trailing rows and
    # columns over the `window` of blocks that a later block can meet:
    # (vertex, neighbourhood, kept rows, block number) per block.
    window, factor = [], np.zeros((0, 0))
    n_built = 0
    for vertex in vertices:
        solver, block, block_info = _vertex_columns(
            mesh, kappa, pou, level, vertex, kappa_tilde)
        hood = solver.hood
        while window and window[0][0] < vertex - mesh.coarse_divisions - 2:
            drop = len(window.pop(0)[2])
            factor = factor[drop:, drop:]
        # the block vanishes on the neighbourhood's boundary, so the local
        # products are the global ones restricted to the neighbourhood
        m_block = solver.M @ block.T
        shared = [_shared_nodes(w_hood, hood) for _, w_hood, _, _ in window]
        window_gram = [np.zeros((len(b), len(block))) if s is None
                       else b[:, s[0]] @ m_block[s[1]]
                       for s, (_, _, b, _) in zip(shared, window)]
        cross = scipy.linalg.solve_triangular(
            factor, np.vstack([np.zeros((0, len(block)))] + window_gram),
            lower=True)
        gram, explained = block @ m_block, cross.T @ cross
        kept = _pivoted_gram_filter(gram, RANK_FILTER_TOL, explained)
        new = np.linalg.cholesky((gram - explained)[np.ix_(kept, kept)])
        factor = np.block([[factor, np.zeros((len(factor), kept.size))],
                           [cross[:, kept].T, new]])
        block = block[kept]

        # the Galerkin blocks of these columns with themselves and with
        # the earlier columns they overlap
        here = len(offsets) - 1
        a_block = solver.A @ block.T
        gram, stiff = gram[np.ix_(kept, kept)], block @ a_block
        mass[here, here] = 0.5 * (gram + gram.T)
        stiffness[here, here] = 0.5 * (stiff + stiff.T)
        for s, w_gram, (_, _, b, there) in zip(shared, window_gram, window):
            if s is not None:
                mass[there, here] = w_gram[:, kept]
                stiffness[there, here] = b[:, s[0]] @ a_block[s[1]]
        window.append((vertex, hood, block, here))

        col, node = np.nonzero(block)       # column by column
        data.append(block[col, node])
        rows.append(solver.local_nodes[node])
        counts.append(np.bincount(col, minlength=len(block)))
        offsets.append(offsets[-1] + kept.size)
        info.extend(block_info[i] for i in kept)
        n_built += len(block_info)
    if len(info) < 0.5 * n_built:
        raise RuntimeError(
            f"rank filter kept only {len(info)} of {n_built} columns; "
            "the local problems look degenerate")
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    basis = sp.csc_matrix((np.concatenate(data), np.concatenate(rows), indptr),
                          shape=(mesh.n_nodes, len(info))).tocsr()
    offsets = np.array(offsets)
    return MultiscaleSpace(level=level, basis=basis,
                           ms_mass=_symmetric_csr(mass, offsets),
                           ms_stiffness=_symmetric_csr(stiffness, offsets),
                           column_info=tuple(info), fine_ops=ops, mesh=mesh,
                           kappa=kappa)


def edge_projection(space: MultiscaleSpace, v: np.ndarray) -> np.ndarray:
    """Mass-orthogonal projection of a fine-nodal vector onto the space.
    Each call factorizes ms_mass: a march projects only u0, once."""
    return factorized_spd(space.ms_mass)(
        space.basis.T @ (space.fine_ops.mass @ v))
