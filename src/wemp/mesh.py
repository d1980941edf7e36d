"""Two-level structured triangulation of the unit square.

The coarse grid has `coarse_divisions` quadrilateral cells per axis (size H),
each refined into `refinements_per_coarse` fine squares per axis (size h), and
every fine square is split into two right triangles along the same diagonal.
Node positions are kept as integer grid coordinates so conformity and boundary
checks are exact; floats are derived on demand. A rectangle of fine cells, a
coarse cell or a coarse vertex's neighbourhood, is a NodeRectangle: its
cells, its integer node bounds and its four sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NODE_BUDGET = 10**7


@dataclass(frozen=True)
class TwoLevelMesh:
    coarse_divisions: int
    refinements_per_coarse: int
    fine_node_coords: np.ndarray      # (n_nodes, 2) float64 in [0,1]^2
    fine_triangles: np.ndarray        # (n_tri, 3) int node indices, CCW
    coarse_vertex_interior: np.ndarray  # (n_cv,) bool

    @property
    def n_fine_per_axis(self) -> int:
        """Fine cells per axis (1/h)."""
        return self.coarse_divisions * self.refinements_per_coarse

    @property
    def n_nodes(self) -> int:
        return self.fine_node_coords.shape[0]

    @property
    def H(self) -> float:
        return 1.0 / self.coarse_divisions

    @property
    def h(self) -> float:
        return 1.0 / self.n_fine_per_axis

    def node_index(self, ix, iy):
        """Node index from integer grid coordinates (vectorized)."""
        return np.asarray(iy) * (self.n_fine_per_axis + 1) + np.asarray(ix)

    def cell_index(self, cx, cy):
        """Fine-cell index from integer cell coordinates (vectorized)."""
        return np.asarray(cy) * self.n_fine_per_axis + np.asarray(cx)

    def coarse_vertex_index(self, cx: int, cy: int) -> int:
        return cy * (self.coarse_divisions + 1) + cx


@dataclass(frozen=True)
class NodeRectangle:
    """The fine cells between integer node bounds.

    The boundary is carried as the four sides of the rectangle,
    counterclockwise starting from the bottom side, each an ordered array of
    fine-node indices.
    """

    fine_cells: np.ndarray       # sorted fine-cell indices inside
    boundary_edges: tuple        # four arrays of fine-node indices (ordered along each side)
    node_range: tuple            # ((ix0, ix1), (iy0, iy1)) inclusive integer node bounds


def build_mesh(coarse_divisions: int, refinements_per_coarse: int) -> TwoLevelMesh:
    """Build the two-level mesh; triangles split each fine square along the
    bottom-left to top-right diagonal."""
    if coarse_divisions < 1 or refinements_per_coarse < 1:
        raise ValueError("coarse_divisions and refinements_per_coarse must be >= 1")
    n = coarse_divisions * refinements_per_coarse
    n_nodes = (n + 1) ** 2
    if n_nodes > NODE_BUDGET:
        raise ValueError(f"node count {n_nodes} exceeds budget {NODE_BUDGET}")

    ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    ix = ix.ravel()
    iy = iy.ravel()
    coords = np.column_stack([ix / n, iy / n]).astype(np.float64)

    # two CCW triangles per fine square, diagonal from (i,j) to (i+1,j+1)
    cx, cy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    cx = cx.ravel()
    cy = cy.ravel()
    v00 = cy * (n + 1) + cx
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    g = np.arange(coarse_divisions + 1)
    inner = (g > 0) & (g < coarse_divisions)

    return TwoLevelMesh(
        coarse_divisions=coarse_divisions,
        refinements_per_coarse=refinements_per_coarse,
        fine_node_coords=coords,
        fine_triangles=triangles,
        coarse_vertex_interior=(inner[:, None] & inner[None, :]).ravel(),
    )


def coarse_neighborhood(mesh: TwoLevelMesh, vertex: int) -> NodeRectangle:
    """The union of the coarse cells sharing coarse vertex `vertex`: a
    rectangle of 1, 2 or 4 cells, its four sides ordered counterclockwise."""
    C = mesh.coarse_divisions
    R = mesh.refinements_per_coarse
    if not (0 <= vertex < (C + 1) ** 2):
        raise IndexError(f"coarse vertex {vertex} out of range")
    gx = vertex % (C + 1)
    gy = vertex // (C + 1)

    # the coarse cells touching the vertex span [cx0, cx1) x [cy0, cy1)
    cx0, cx1 = max(gx - 1, 0), min(gx + 1, C)
    cy0, cy1 = max(gy - 1, 0), min(gy + 1, C)
    return node_rectangle(mesh, (cx0 * R, cx1 * R), (cy0 * R, cy1 * R))


def node_rectangle(mesh: TwoLevelMesh, x_range: tuple,
                   y_range: tuple) -> NodeRectangle:
    """Fine cells and the four counterclockwise sides of the rectangle
    between inclusive integer node bounds x_range and y_range."""
    (x0, x1), (y0, y1) = x_range, y_range
    xs = np.arange(x0, x1 + 1)
    ys = np.arange(y0, y1 + 1)
    CX, CY = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1), indexing="xy")
    fine_cells = np.sort(mesh.cell_index(CX.ravel(), CY.ravel()))

    # four sides, CCW from the bottom: bottom, right, top, left
    bottom = mesh.node_index(xs, np.full_like(xs, y0))
    right = mesh.node_index(np.full_like(ys, x1), ys)
    top = mesh.node_index(xs[::-1], np.full_like(xs, y1))
    left = mesh.node_index(np.full_like(ys, x0), ys[::-1])

    return NodeRectangle(fine_cells=fine_cells,
                         boundary_edges=(bottom, right, top, left),
                         node_range=((x0, x1), (y0, y1)))
