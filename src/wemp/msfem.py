"""Wavelet-edge multiscale space on the two-level mesh.

Construction stages:

1. partition of unity: diffusivity-harmonic extensions of the affine
   corner data into every coarse cell, four colour fields in one
   block-diagonal solve, from which each hat-like chi_i is read;
2. Haar functions on the four edges of each vertex neighborhood omega_i,
   orthonormal in L2 of the edge;
3. harmonic lifts of the edge data into omega_i, one block solve per
   neighborhood, and one Neumann corrector per neighborhood driven by the
   weighted coefficient kappa_tilde: one node pinned, the rest solved,
   and the result shifted to zero mean;
4. global space: the columns chi_i * (local function) of each neighborhood
   form one block, made, filtered and scattered in one pass: LAPACK's
   pivoted Cholesky (dpstrf) of the block's Gram matrix, less the part the
   columns kept before it explain, scaled to unit diagonal, drops the
   near-dependent columns; the kept ones are scattered, and their mass and
   stiffness products with themselves and with the earlier blocks they
   overlap, taken with the neighbourhood's local operators, are the
   entries of the Galerkin matrices, assembled once at their exact size.

Stage 3 solves on each vertex neighbourhood (mesh.coarse_neighborhood)
through a _LocalSolver and reads chi_i there through
PartitionOfUnity.vertex_values. The neighbourhoods share one
fem.rectangle_template, so each solver only gathers its cells' kappa into
the template's patterns; the edge traces and overlaps, which depend only
on shapes, are computed once. Every factorization is fem.factorized_spd.

Only interior coarse vertices generate columns, so every basis function
vanishes on the domain boundary.

fine_space gives the free fine dofs as a space of the same type, so every
march and parareal run on the fine grid through the same code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack

from .mesh import TwoLevelMesh, NodeRectangle, coarse_neighborhood
from .fem import (CoefficientField, OperatorPair, assemble_load,
                  assemble_loads, assemble_operators,
                  assemble_submesh_operators, rectangle_template,
                  triangle_geometry, factorized_spd)

RANK_FILTER_TOL = 1e-10


@dataclass(frozen=True)
class PartitionOfUnity:
    """Rows are the chi_i, one per coarse vertex, over all fine nodes."""

    chi: sp.csr_matrix

    def vertex_values(self, vertex: int, nodes: np.ndarray) -> np.ndarray:
        """chi_vertex at the sorted fine nodes `nodes`, read from the
        stored entries of its row without densifying it."""
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
    """Harmonic extensions of the affine corner data, all cells in one solve.

    Coarse vertex (vx, vy) has colour (vx mod 2) + 2 (vy mod 2), so chi_i
    of one colour meet only where both vanish, and column c of G is the
    sum of the colour-c chi_i. On the skeleton (fine nodes on coarse grid
    lines) G holds the corner data, 1 at the vertex, 0 at the others and
    linear along cell sides; one factorization extends its four columns
    kappa-harmonically into every cell. Their sum has data 1, so it is 1:
    the chi_i, each its colour's column on its closed neighbourhood, form
    a partition of unity.
    """
    C, R, n = (mesh.coarse_divisions, mesh.refinements_per_coarse,
               mesh.n_fine_per_axis)
    iy, ix = np.divmod(np.arange(mesh.n_nodes), n + 1)
    cx, cy = np.minimum(ix // R, C - 1), np.minimum(iy // R, C - 1)
    # integer node offsets put xi and eta exactly on 0 and 1 at the cell's
    # sides, whatever H is
    xi, eta = (ix - cx * R) / R, (iy - cy * R) / R
    G = np.zeros((mesh.n_nodes, 4))
    for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)):
        G[np.arange(mesh.n_nodes), (cx + a) % 2 + 2 * ((cy + b) % 2)] = (
            (xi if a else 1 - xi) * (eta if b else 1 - eta))
    if R > 1:
        # the interior nodes cell by cell, so that each cell's rows are one
        # run of the block-diagonal system and checked on their own
        inner = np.flatnonzero((ix % R != 0) & (iy % R != 0))
        inner = inner[np.argsort(cy[inner] * C + cx[inner], kind="stable")]
        rows = assemble_operators(mesh, kappa).stiffness[inner]
        G[inner] = 0.0
        G[inner] = factorized_spd(rows[:, inner], C * C)(-(rows @ G))

    # vertex v x node i is vertex (vx, vy) x node (ix, iy), and the closed
    # neighbourhood is |ix - R vx| <= R and |iy - R vy| <= R
    near = np.abs(np.arange(n + 1) - R * np.arange(C + 1)[:, None]) <= R
    chi = sp.kron(near, near, format="csr").astype(np.float64)
    vy, vx = np.divmod(np.repeat(np.arange((C + 1) ** 2),
                                 np.diff(chi.indptr)), C + 1)
    chi.data = G[chi.indices, vx % 2 + 2 * (vy % 2)]
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


class _LocalSolver:
    """Assembly and factorizations for the local solves on one vertex
    neighbourhood, which always has interior nodes. Local node numbers are
    positions in the sorted local_nodes.

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
        self._dirichlet = factorized_spd(
            self.template.interior_block.fill(self.A.data))

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
        v[self.int_local] = self._dirichlet(-(self._A_ib @ trace))
        return v

    def corrector(self, kappa_tilde: np.ndarray) -> np.ndarray:
        """Zero-mean solution of the pure Neumann problem with bulk source
        kappa_tilde (normalized to unit integral) and constant outflux
        balancing it.

        A's kernel is the constants, so local node 0 is pinned at zero,
        the other rows are solved through fem.factorized_spd, and the
        result is shifted to zero mean against the gauge m = M 1; the
        template holds the pinned pattern, the per-cell load map and the
        outflux loads. Since 1^T A = 0, the pinned row's residual is minus
        the others' sum, less the net load: the two checks bound it.
        """
        t = self.template
        h = self.mesh.h
        kt = np.asarray(kappa_tilde, dtype=np.float64)[self.hood.fine_cells]
        total = float(kt.sum()) * h * h
        if total <= 0:
            raise ValueError("kappa_tilde must have positive mass on omega_i")
        rhs = t.cell_load @ (kt / total) + t.boundary_flux
        residual = abs(rhs.sum())
        if residual > 1e-10:
            raise ValueError(
                f"Neumann data incompatible: net load {residual:.3e}")

        v = np.zeros(rhs.size)
        v[1:] = factorized_spd(t.pinned.fill(self.A.data))(rhs[1:])
        return v - (t.gauge @ v) / t.gauge.sum()


def weighted_coefficient(mesh: TwoLevelMesh, kappa: CoefficientField,
                         pou: PartitionOfUnity) -> np.ndarray:
    """Per-fine-cell field H^2 kappa sum_i |grad chi_i|^2.

    On each triangle one chi_i of each colour is nonzero, so the sum runs
    over the colour fields G = chi^T (one-hot vertex colour), whose P1
    gradients are per-triangle constants; a cell averages its two triangles.
    """
    _, grads = triangle_geometry(mesh.fine_node_coords, mesh.fine_triangles)
    vy, vx = np.divmod(np.arange(pou.chi.shape[0]), mesh.coarse_divisions + 1)
    G = pou.chi.T @ np.eye(4)[vx % 2 + 2 * (vy % 2)]
    grad_g = np.einsum("tkc,tkd->tcd", G[mesh.fine_triangles], grads)
    sum_sq = np.einsum("tcd,tcd->t", grad_g, grad_g)
    val_tri = mesh.H ** 2 * np.repeat(kappa.values, 2) * sum_sq
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
    basis: sp.csr_matrix            # fine dofs x ms dofs
    ms_mass: sp.csr_matrix          # basis.T M basis, SPD after filtering
    ms_stiffness: sp.csr_matrix     # basis.T A basis
    # (vertex, kind, side, wavelet index) per column; () for a fine space
    column_info: tuple
    fine_ops: OperatorPair
    mesh: TwoLevelMesh

    @property
    def n_columns(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        return edge_projection(self, v)

    def loads(self, f, times) -> np.ndarray:
        """basis.T @ assemble_load(mesh, fine_ops, f, t) for each instant t
        of times, one column each, from one call of f (fem.assemble_loads)."""
        return self.basis.T @ assemble_loads(self.mesh, self.fine_ops, f,
                                             times)


class FineSpace(MultiscaleSpace):
    """The free fine dofs as a space (fine_space). It projects exactly, by
    restriction, and takes one assemble_load per instant, as the L1
    reference march does, so both fine marches call f alike: with the node
    coordinates and a scalar t."""

    def project(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v)[self.fine_ops.free_dofs]

    def loads(self, f, times) -> np.ndarray:
        free = self.fine_ops.free_dofs
        return np.column_stack([assemble_load(self.mesh, self.fine_ops, f,
                                              t)[free] for t in times])


def fine_space(mesh: TwoLevelMesh, ops: OperatorPair) -> FineSpace:
    """The free dofs of ops as a space: its basis selects them, so its
    Galerkin matrices are ops.mass_free and ops.stiffness_free."""
    free = ops.free_dofs
    basis = sp.csr_matrix((np.ones(free.size), (free, np.arange(free.size))),
                          shape=(ops.mass.shape[0], free.size))
    return FineSpace(basis=basis, ms_mass=ops.mass_free,
                     ms_stiffness=ops.stiffness_free, column_info=(),
                     fine_ops=ops, mesh=mesh)


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
    for side_idx, side in enumerate(hood.boundary_edges):
        nodal = _nodal_wavelets(level, side.size - 1, mesh.h)
        rows = np.searchsorted(solver.bnd_nodes, side)
        traces[rows, side_idx * n_wav:(side_idx + 1) * n_wav] = nodal.T
    info = [(vertex, "edge", side_idx, w_idx) for side_idx in range(4)
            for w_idx in range(n_wav)] + [(vertex, "corrector", -1, 0)]
    block = chi_local * np.vstack([solver.lift(traces).T,
                                   solver.corrector(kappa_tilde)])
    return solver, block, info


@functools.lru_cache(maxsize=16)
def _nodal_wavelets(level: int, n_seg: int, h: float) -> np.ndarray:
    """The nodal traces of edge_wavelets, the same on every side of n_seg
    fine segments of length h."""
    return segments_to_nodes(
        edge_wavelets(level, np.outer(np.arange(n_seg + 1), [h, 0.0])))


def _shared_nodes(a: NodeRectangle, b: NodeRectangle):
    """Positions, among the local nodes of a and of b, of the nodes of the
    rectangle they share, or None when they share no cell: a function of
    their shapes and of b's offset from a, and cached on those."""
    (ax0, ax1), (ay0, ay1) = a.node_range
    (bx0, bx1), (by0, by1) = b.node_range
    return _overlap(ax1 - ax0, ay1 - ay0, bx1 - bx0, by1 - by0,
                    bx0 - ax0, by0 - ay0)


@functools.lru_cache(maxsize=256)
def _overlap(anx, any_, bnx, bny, dx, dy):
    x0, x1 = max(0, dx), min(anx, dx + bnx)
    y0, y1 = max(0, dy), min(any_, dy + bny)
    if x0 >= x1 or y0 >= y1:
        return None
    xs, ys = np.arange(x0, x1 + 1), np.arange(y0, y1 + 1)[:, None]
    return ((ys * (anx + 1) + xs).ravel(),
            ((ys - dy) * (bnx + 1) + xs - dx).ravel())


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
    return MultiscaleSpace(basis=basis,
                           ms_mass=_symmetric_csr(mass, offsets),
                           ms_stiffness=_symmetric_csr(stiffness, offsets),
                           column_info=tuple(info), fine_ops=ops, mesh=mesh)


def edge_projection(space: MultiscaleSpace, v: np.ndarray) -> np.ndarray:
    """Mass-orthogonal projection of a fine-nodal vector onto the space.
    Each call factorizes ms_mass: a march projects only u0, once."""
    return factorized_spd(space.ms_mass)(
        space.basis.T @ (space.fine_ops.mass @ v))
