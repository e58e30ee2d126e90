"""Rectilinear (tensor-product) grids: diagonal Hodge and statics solves.

Grids keep their native rectilinear structure instead of being split into
simplices, which keeps the diagonal Hodge star well-defined.  Operators are
assembled from index arithmetic on the C-ordered node array: an edge along
axis d joins a tail node to the node one axis-d stride further on, so d0
has -1 at the tail and +1 at the head of each edge, and the grounded
operator d0^T diag(w) d0 on the interior nodes is a (2 dim + 1)-point
stencil whose entries are sums of edge weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class RectGrid:
    """Axis-aligned grid given by cell counts and spacings per axis.

    Nodes are numbered in C order over ``node_shape``.  Edges come in one
    block per axis, axes in order; the block of axis ``d`` holds the edges
    along ``d`` in C order over their tail nodes, an array of shape
    ``edge_shape(d)``."""

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

    def edge_shape(self, d: int) -> tuple:
        """Shape of the tail nodes of the edges along axis ``d``."""
        return tuple(n - (a == d) for a, n in enumerate(self.node_shape))

    def edge_blocks(self, edge_values: np.ndarray) -> list[np.ndarray]:
        """Split a per-edge array into one array of shape ``edge_shape(d)``
        per axis ``d``."""
        shapes = [self.edge_shape(d) for d in range(self.dim)]
        ends = np.cumsum([math.prod(s) for s in shapes])[:-1]
        return [block.reshape(s)
                for block, s in zip(np.split(np.asarray(edge_values), ends), shapes)]


def _along(axis: int, sl, ndim: int) -> tuple:
    """Index that applies ``sl`` on ``axis`` and takes everything elsewhere."""
    index = [slice(None)] * ndim
    index[axis] = sl
    return tuple(index)


def _strides(shape: tuple) -> list[int]:
    """Flat-index step of one unit along each axis of a C-ordered array."""
    return [math.prod(shape[d + 1:]) for d in range(len(shape))]


def gradient_matrix(grid: RectGrid) -> tuple[np.ndarray, np.ndarray]:
    """Node-to-edge difference operator (the degree-0 coboundary) as the
    tail and head node index of every edge, so that
    ``(d0 phi)[e] = phi[head[e]] - phi[tail[e]]``.  The head is the tail
    plus the axis stride of the node array."""
    nodes = np.arange(grid.node_count(), dtype=np.int32).reshape(grid.node_shape)
    tails, heads = [], []
    for d, stride in enumerate(_strides(grid.node_shape)):
        tail = nodes[_along(d, slice(None, -1), grid.dim)].ravel()
        tails.append(tail)
        heads.append(tail + np.int32(stride))
    return np.concatenate(tails), np.concatenate(heads)


def edge_hodge_diagonal(grid: RectGrid, coeff_per_cell: np.ndarray | float,
                        ) -> np.ndarray:
    """Diagonal Hodge weights for edges: material coefficient (averaged
    from adjacent cells) times dual-area / primal-length."""
    cells = np.asarray(coeff_per_cell, dtype=float)
    volume = math.prod(grid.spacing)
    if cells.ndim == 0:
        # every neighbour average of a constant is that constant
        return np.concatenate([np.full(math.prod(grid.edge_shape(d)), volume / h**2 * cells)
                               for d, h in enumerate(grid.spacing)])
    if cells.shape != grid.shape:
        raise ValueError("per-cell coefficient array must match grid shape")
    weights = []
    for d, h in enumerate(grid.spacing):
        # An edge along d touches the cells on either side of it along every
        # other axis; zero padding drops the ones beyond the boundary.
        pad = [(0, 0) if a == d else (1, 1) for a in range(grid.dim)]
        total = np.pad(cells, pad)
        count = np.pad(np.ones(grid.shape), pad)
        for a in range(grid.dim):
            if a != d:
                lo = _along(a, slice(None, -1), grid.dim)
                hi = _along(a, slice(1, None), grid.dim)
                total, count = total[lo] + total[hi], count[lo] + count[hi]
        weights.append((volume / h**2 * total / count).ravel())
    return np.concatenate(weights)


@dataclass
class StaticsSolution:
    potential: np.ndarray        # per node
    field_edges: np.ndarray      # E (or dA) per edge, primal 1-cochain
    flux_edges: np.ndarray       # D (or H) per edge's dual cell, twisted
    residual: float              # final true relative residual
    iterations: int              # preconditioned CG iterations
    residuals: list[float]       # relative CG residual after each iteration


def _uniform_inverse(grid: RectGrid) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of the coefficient-1 grounded operator on the free nodes.

    That operator is the sum over axes d of (volume / h_d**2) T_d, with
    T_d = tridiag(-1, 2, -1) of size m_d = cells_d - 1 acting along axis d.
    The sine matrix S_d[j, k] = sqrt(2 / (m + 1)) sin(j k pi / (m + 1)) is
    symmetric, squares to the identity and diagonalises T_d with eigenvalues
    4 sin^2(k pi / (2 (m + 1))), so the inverse is S diag(1 / lambda) S with
    S the product of the S_d over the axes (Buzbee, Golub & Nielson 1970)."""
    volume = math.prod(grid.spacing)
    free_shape = tuple(s - 1 for s in grid.shape)
    sines, eigenvalues = [], []
    for m, h in zip(free_shape, grid.spacing):
        k = np.arange(1, m + 1)
        # j k reduced mod 2(m + 1) in integers keeps the sine's argument small
        sines.append(math.sqrt(2 / (m + 1))
                     * np.sin(np.outer(k, k) % (2 * (m + 1)) * (math.pi / (m + 1))))
        eigenvalues.append(volume / h**2 * 4 * np.sin(k * (math.pi / (2 * (m + 1))))**2)
    inverse_eigenvalues = 1.0 / reduce(
        np.add, np.meshgrid(*eigenvalues, indexing="ij", sparse=True))

    def sine_transform(x: np.ndarray) -> np.ndarray:
        # contracting axis 0 appends the transformed axis last, so one
        # contraction per axis transforms them all and restores their order
        for S in sines:
            x = np.tensordot(x, S, axes=(0, 0))
        return x

    def apply(v: np.ndarray) -> np.ndarray:
        return sine_transform(sine_transform(v.reshape(free_shape))
                              * inverse_eigenvalues).ravel()

    return apply


class Stencil:
    """Symmetric operator on a flattened grid: ``diagonal`` plus, for each
    ``(stride, band)``, ``band`` on the diagonals at +-stride.  ``nnz``
    counts the nonzero entries of its matrix."""

    def __init__(self, diagonal: np.ndarray, bands: list[tuple[int, np.ndarray]]):
        self.diagonal, self.bands = diagonal, bands
        self.nnz = int(np.count_nonzero(diagonal)) + 2 * sum(
            int(np.count_nonzero(band)) for _, band in bands)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diagonal * x
        for stride, band in self.bands:
            y[:-stride] += band * x[stride:]
            y[stride:] += band * x[:-stride]
        return y

    __matmul__ = matvec


def cg(A, b: np.ndarray, *, M: Callable[[np.ndarray], np.ndarray], rtol: float,
       maxiter: int, callback: Callable[[np.ndarray], None] | None = None,
       ) -> tuple[np.ndarray, int, list[float]]:
    """Preconditioned conjugate gradients from x = 0 for a symmetric positive
    definite ``A`` (anything with ``@``) and preconditioner ``M`` (Hestenes &
    Stiefel 1952).  Stops once ||r|| <= rtol ||b||; calls ``callback(x)``
    after each iteration.  Returns x, info (0 on convergence, else the
    ``maxiter`` iterations run) and the relative residual ||r|| / ||b||
    after each iteration."""
    x = np.zeros_like(b)
    r = b.copy()
    b_norm = np.linalg.norm(b)
    residuals: list[float] = []
    if b_norm == 0:
        return x, 0, residuals
    p, rho_prev = None, 1.0
    for _ in range(maxiter):
        z = M(r)
        rho = r @ z
        p = z if p is None else z + (rho / rho_prev) * p
        q = A @ p
        alpha = rho / (p @ q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        residuals.append(float(np.linalg.norm(r) / b_norm))
        if callback is not None:
            callback(x)
        if residuals[-1] <= rtol:
            return x, 0, residuals
    return x, maxiter, residuals


def _interior_operator(grid: RectGrid, weights: np.ndarray) -> Stencil:
    """d0^T diag(weights) d0 restricted to the interior (free) nodes.

    Assembled as a stencil on the free-node grid, of shape ``cells - 1``
    per axis: the diagonal at a free node sums the weights of the 2 dim
    edges touching it, and the off-diagonal at +-(axis-d stride) is -w for
    the edge joining two free nodes along d, zero across the end of axis d.
    An axis with fewer than two free nodes has no such couplings; skipping
    it keeps the strides of the remaining axes distinct."""
    free_shape = tuple(s - 1 for s in grid.shape)
    size = math.prod(free_shape)
    interior = tuple(slice(1, -1) for _ in free_shape)
    diagonal = np.zeros(free_shape)
    bands = []
    for d, (block, stride) in enumerate(zip(grid.edge_blocks(weights),
                                            _strides(free_shape))):
        # the axis-d edges with a free tail or head: inside the box along the
        # other axes, one more along d than there are free nodes
        touching = block[interior[:d] + (slice(None),) + interior[d + 1:]]
        diagonal += touching[_along(d, slice(None, -1), grid.dim)]
        diagonal += touching[_along(d, slice(1, None), grid.dim)]
        if free_shape[d] < 2:
            continue
        band = np.zeros(free_shape)
        band[_along(d, slice(None, -1), grid.dim)] = -touching[
            _along(d, slice(1, -1), grid.dim)]
        bands.append((stride, band.ravel()[:size - stride]))
    return Stencil(diagonal.ravel(), bands)


def solve_poisson_grounded(grid: RectGrid, source_per_node: np.ndarray,
                           coeff_per_cell: np.ndarray | float,
                           tol: float = 1e-10) -> StaticsSolution:
    """Solve d(coeff * hodge(d phi)) = -source with phi = 0 on the boundary.

    The operator on the free (interior) nodes is assembled straight from its
    stencil (``_interior_operator``); boundary rows are never built.
    Conjugate gradients on the free nodes, preconditioned with the exact
    inverse of the coefficient-1 operator (``_uniform_inverse``): one
    iteration for a uniform coefficient, a few dozen for a varying one
    (Concus & Golub 1973).  The coefficient must be positive and finite in
    every cell, and the source finite, so that the operator is symmetric
    positive definite.  Returns the potential, the primal 1-cochain
    -d(phi), and its dual-cell flux values; the discrete Gauss identity
    holds to the solver residual."""
    src = np.asarray(source_per_node, dtype=float).ravel()
    if src.size != grid.node_count():
        raise ValueError("source must give one value per node")
    if not np.isfinite(src).all():
        raise ValueError("source must be finite at every node")
    coeff = np.asarray(coeff_per_cell, dtype=float)
    if not ((coeff > 0) & (coeff < math.inf)).all():
        raise ValueError("coefficient must be positive and finite in every cell, "
                         f"got values from {coeff.min()} to {coeff.max()}")
    if min(grid.shape) < 2:
        raise ValueError("grid too small: every node is on the boundary")
    interior = tuple(slice(1, -1) for _ in grid.shape)
    free_shape = tuple(s - 1 for s in grid.shape)
    tail, head = gradient_matrix(grid)
    weights = edge_hodge_diagonal(grid, coeff)
    Lff = _interior_operator(grid, weights)
    rhs = src.reshape(grid.node_shape)[interior].ravel()
    # Solve for 2**-exponent phi, whose source peaks in [1/2, 1), so that
    # CG's dot products neither overflow nor underflow; scaling by a power
    # of two is exact, so a source already in range gives the same bits.
    exponent = math.frexp(float(max(rhs.max(initial=0.0), -rhs.min(initial=0.0))))[1]
    rhs = np.ldexp(rhs, -exponent)
    x, info, residuals = cg(Lff, rhs, M=_uniform_inverse(grid), rtol=tol, maxiter=20000)
    if info != 0:
        raise RuntimeError(f"conjugate gradient did not converge (info={info}); "
                           f"relative residual {residuals[-1]:.3e}")
    res = float(np.linalg.norm(Lff @ x - rhs) / max(np.linalg.norm(rhs), 1e-300))
    phi = np.zeros(grid.node_shape)
    phi[interior] = np.ldexp(x, exponent).reshape(free_shape)
    phi = phi.ravel()
    field = phi[tail] - phi[head]  # -d0 phi
    flux = weights * field
    return StaticsSolution(phi, field, flux, res, len(residuals), residuals)


def box_node_set(grid: RectGrid, radius: int) -> np.ndarray:
    """Boolean mask of nodes within ``radius`` grid steps of the center."""
    near = np.meshgrid(*[np.abs(np.arange(n) - n // 2) <= radius for n in grid.node_shape],
                       indexing="ij", sparse=True)
    return reduce(np.logical_and, near).ravel()


def surface_flux(grid: RectGrid, flux_edges: np.ndarray, inside: np.ndarray,
                 ) -> float:
    """Flux through the closed surface around a node set: signed sum of
    dual-cell flux values on edges cut by the surface."""
    inside = np.asarray(inside, dtype=bool).reshape(grid.node_shape)
    total = 0.0
    for d, flux in enumerate(grid.edge_blocks(flux_edges)):
        tail_in = inside[_along(d, slice(None, -1), grid.dim)]
        head_in = inside[_along(d, slice(1, None), grid.dim)]
        total += flux[tail_in & ~head_in].sum() - flux[head_in & ~tail_in].sum()
    return float(total)
