"""Rectilinear (tensor-product) grids: diagonal Hodge and statics solves.

Grids keep their native rectilinear structure instead of being split into
simplices, which keeps the diagonal Hodge star well-defined (including
Lorentzian diagonal metrics, where circumcentric simplicial duals fail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

from .metric import Metric


@dataclass(frozen=True)
class RectGrid:
    """Axis-aligned grid given by cell counts and spacings per axis."""

    shape: tuple  # cells per axis
    spacing: tuple

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        if len(self.shape) != len(self.spacing):
            raise ValueError("shape and spacing must agree on dimension")
        if any(s < 1 for s in self.shape) or any(h <= 0 for h in self.spacing):
            raise ValueError("need positive cell counts and spacings")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def node_shape(self) -> tuple:
        return tuple(s + 1 for s in self.shape)

    def node_count(self) -> int:
        return int(np.prod(self.node_shape))

    def node_index(self, coords: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(coords), self.node_shape))

    def hodge_sign(self, directions: Sequence[int], g: Metric | None = None) -> int:
        """Signature sign of the diagonal Hodge for a cell spanning the
        given axes: product of the metric signs over those axes."""
        if g is None:
            return 1
        if g.dim != self.dim:
            raise ValueError("metric dimension mismatch")
        for i in range(g.dim):
            for j in range(g.dim):
                if i != j and g.matrix[i][j] != 0:
                    raise ValueError("grid Hodge needs a diagonal metric")
        sign = 1
        for d in directions:
            sign *= 1 if g.matrix[d][d] > 0 else -1
        return sign

    def hodge_factor(self, directions: Sequence[int], g: Metric | None = None) -> float:
        """dual volume / primal volume for a unit cell spanning ``directions``,
        with metric scale factors and the signature sign."""
        dirs = set(directions)
        primal = 1.0
        dual = 1.0
        for d in range(self.dim):
            scale = 1.0 if g is None else math.sqrt(abs(float(g.matrix[d][d])))
            if d in dirs:
                primal *= self.spacing[d] * scale
            else:
                dual *= self.spacing[d] * scale
        return (dual / primal) * self.hodge_sign(directions, g)


# -- edge enumeration on non-periodic grids ----------------------------------

def _edges(grid: RectGrid):
    """Yield (direction, tail-node multi-index) for every edge."""
    ns = grid.node_shape
    for d in range(grid.dim):
        span = list(ns)
        span[d] -= 1
        for idx in np.ndindex(*span):
            yield d, idx


def gradient_matrix(grid: RectGrid) -> sparse.csr_matrix:
    """Node-to-edge difference operator (the degree-0 coboundary)."""
    rows, cols, vals = [], [], []
    for e, (d, tail) in enumerate(_edges(grid)):
        head = list(tail)
        head[d] += 1
        rows.extend([e, e])
        cols.extend([grid.node_index(tail), grid.node_index(head)])
        vals.extend([-1.0, 1.0])
    nedges = len(rows) // 2
    return sparse.csr_matrix((vals, (rows, cols)),
                             shape=(nedges, grid.node_count()))


def edge_hodge_diagonal(grid: RectGrid, coeff_per_cell: np.ndarray | float,
                        g: Metric | None = None) -> np.ndarray:
    """Diagonal Hodge weights for edges: material coefficient (averaged
    from adjacent cells) times dual-area / primal-length."""
    weights = []
    cells = None
    if not np.isscalar(coeff_per_cell):
        cells = np.asarray(coeff_per_cell, dtype=float)
        if cells.shape != grid.shape:
            raise ValueError("per-cell coefficient array must match grid shape")
    for d, tail in _edges(grid):
        factor = grid.hodge_factor([d], g)
        if cells is None:
            coeff = float(coeff_per_cell)
        else:
            # average over the <= 2^(dim-1) cells around the edge
            neighbors = []
            other_axes = [a for a in range(grid.dim) if a != d]
            from itertools import product
            for offs in product([-1, 0], repeat=len(other_axes)):
                c = list(tail)
                ok = True
                for a, o in zip(other_axes, offs):
                    c[a] += o
                    if not 0 <= c[a] < grid.shape[a]:
                        ok = False
                        break
                if ok and 0 <= c[d] < grid.shape[d]:
                    neighbors.append(cells[tuple(c)])
            coeff = float(np.mean(neighbors))
        weights.append(coeff * factor)
    return np.asarray(weights)


def _boundary_nodes(grid: RectGrid) -> np.ndarray:
    mask = np.zeros(grid.node_shape, dtype=bool)
    for d in range(grid.dim):
        sl = [slice(None)] * grid.dim
        sl[d] = 0
        mask[tuple(sl)] = True
        sl[d] = -1
        mask[tuple(sl)] = True
    return mask.ravel()


@dataclass
class StaticsSolution:
    potential: np.ndarray        # per node
    field_edges: np.ndarray      # E (or dA) per edge, primal 1-cochain
    flux_edges: np.ndarray       # D (or H) per edge's dual cell, twisted
    residual: float
    iterations: int


def solve_poisson_grounded(grid: RectGrid, source_per_node: np.ndarray,
                           coeff_per_cell: np.ndarray | float,
                           g: Metric | None = None, tol: float = 1e-10,
                           ) -> StaticsSolution:
    """Solve d(coeff * hodge(d phi)) = -source with phi = 0 on the boundary.

    Returns the potential, the primal 1-cochain -d(phi), and its dual-cell
    flux values; the discrete Gauss identity holds to the solver residual."""
    src = np.asarray(source_per_node, dtype=float).ravel()
    if src.size != grid.node_count():
        raise ValueError("source must give one value per node")
    G = gradient_matrix(grid)
    H = sparse.diags(edge_hodge_diagonal(grid, coeff_per_cell, g))
    L = (G.T @ H @ G).tocsr()
    fixed = _boundary_nodes(grid)
    free = ~fixed
    if not free.any():
        raise ValueError("grid too small: every node is on the boundary")
    Lff = L[free][:, free]
    rhs = src[free]
    x, info = cg(Lff, rhs, rtol=tol, atol=0.0, maxiter=20000)
    if info != 0:
        raise RuntimeError(f"conjugate gradient did not converge (info={info}); "
                           f"residual {np.linalg.norm(Lff @ x - rhs):.3e}")
    phi = np.zeros(grid.node_count())
    phi[free] = x
    field = -(G @ phi)
    flux = H.diagonal() * field
    res = float(np.linalg.norm(Lff @ x - rhs) / max(np.linalg.norm(rhs), 1e-300))
    return StaticsSolution(phi, field, flux, res, -1)


def box_node_set(grid: RectGrid, radius: int) -> np.ndarray:
    """Boolean mask of nodes within ``radius`` grid steps of the center."""
    ns = grid.node_shape
    center = tuple(s // 2 for s in ns)
    mask = np.ones(ns, dtype=bool)
    for d, c in enumerate(center):
        coords = np.arange(ns[d])
        sel = np.abs(coords - c) <= radius
        shape = [1] * grid.dim
        shape[d] = ns[d]
        mask &= sel.reshape(shape)
    return mask.ravel()


def surface_flux(grid: RectGrid, flux_edges: np.ndarray, inside: np.ndarray,
                 ) -> float:
    """Flux through the closed surface around a node set: signed sum of
    dual-cell flux values on edges cut by the surface."""
    total = 0.0
    for e, (d, tail) in enumerate(_edges(grid)):
        head = list(tail)
        head[d] += 1
        t_in = inside[grid.node_index(tail)]
        h_in = inside[grid.node_index(head)]
        if t_in and not h_in:
            total += flux_edges[e]
        elif h_in and not t_in:
            total -= flux_edges[e]
    return float(total)
