"""Rectilinear grid operators against brute-force per-edge references, and
the grounded Poisson solve against a direct sparse solve and SciPy's
conjugate gradients.  SciPy is used here only, as the reference."""

import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, spsolve
from scipy.sparse.linalg import cg as scipy_cg

from formcalc.grid import (RectGrid, _interior_operator, _uniform_inverse, box_node_set, cg,
                           edge_hodge_diagonal, gradient_matrix, solve_poisson_grounded,
                           surface_flux)

GRIDS = [((5,), (0.3,)), ((4, 7), (0.5, 1.3)), ((3, 5, 4), (0.7, 1.1, 0.4)),
         ((1, 1, 2), (1.0, 2.0, 3.0))]
GRID_IDS = ["1d", "2d", "3d", "3d-thin"]


def reference_edges(grid):
    """(axis, tail multi-index, head multi-index) of every edge: one block per
    axis, C order over tail nodes inside each block."""
    for d in range(grid.dim):
        span = list(grid.node_shape)
        span[d] -= 1
        for tail in np.ndindex(*span):
            head = list(tail)
            head[d] += 1
            yield d, tail, tuple(head)


def gradient_csr(grid):
    """d0 as a sparse matrix: -1 at each edge's tail node, +1 at its head."""
    tail, head = gradient_matrix(grid)
    edges = np.arange(len(tail))
    return sparse.csr_matrix(
        (np.repeat([-1.0, 1.0], len(tail)), (np.tile(edges, 2), np.concatenate([tail, head]))),
        shape=(len(tail), grid.node_count()))


def reference_gradient(grid):
    edges = list(reference_edges(grid))
    G = np.zeros((len(edges), grid.node_count()))
    for e, (_, tail, head) in enumerate(edges):
        G[e, np.ravel_multi_index(tail, grid.node_shape)] = -1.0
        G[e, np.ravel_multi_index(head, grid.node_shape)] = 1.0
    return G


def reference_hodge(grid, cells):
    weights = []
    for d, tail, _ in reference_edges(grid):
        dual = np.prod([h for a, h in enumerate(grid.spacing) if a != d])
        others = [a for a in range(grid.dim) if a != d]
        neighbours = []
        for offsets in product([-1, 0], repeat=len(others)):
            cell = list(tail)
            for a, o in zip(others, offsets):
                cell[a] += o
            if all(0 <= c < s for c, s in zip(cell, grid.shape)):
                neighbours.append(cells[tuple(cell)])
        weights.append(np.mean(neighbours) * dual / grid.spacing[d])
    return np.array(weights)


def reference_flux(grid, flux_edges, inside):
    inside = inside.reshape(grid.node_shape)
    total = 0.0
    for e, (_, tail, head) in enumerate(reference_edges(grid)):
        if inside[tail] and not inside[head]:
            total += flux_edges[e]
        elif inside[head] and not inside[tail]:
            total -= flux_edges[e]
    return total


@pytest.mark.parametrize("shape, spacing", GRIDS, ids=GRID_IDS)
def test_gradient_matrix_matches_reference(shape, spacing):
    grid = RectGrid(shape, spacing)
    tail, head = gradient_matrix(grid)
    assert (head > tail).all()
    assert np.array_equal(gradient_csr(grid).toarray(), reference_gradient(grid))


@pytest.mark.parametrize("shape, spacing", GRIDS, ids=GRID_IDS)
def test_edge_hodge_matches_reference(shape, spacing):
    grid = RectGrid(shape, spacing)
    rng = np.random.default_rng(7)
    for coeff in (2.5, rng.uniform(0.5, 4.0, shape)):
        cells = np.broadcast_to(coeff, shape)
        want = reference_hodge(grid, cells)
        got = edge_hodge_diagonal(grid, coeff)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
    # a scalar takes a shortcut past the neighbour averages
    full = edge_hodge_diagonal(grid, np.full(shape, 2.5))
    assert np.all(np.abs(edge_hodge_diagonal(grid, 2.5) - full) <= 1e-15 * full)
    with pytest.raises(ValueError, match="grid shape"):
        edge_hodge_diagonal(grid, np.ones(tuple(s + 1 for s in shape)))


@pytest.mark.parametrize("shape, spacing", GRIDS, ids=GRID_IDS)
def test_surface_flux_matches_reference(shape, spacing):
    grid = RectGrid(shape, spacing)
    rng = np.random.default_rng(11)
    flux = rng.normal(size=len(gradient_matrix(grid)[0]))
    masks = [box_node_set(grid, r) for r in (0, 1)]
    masks += [rng.random(grid.node_count()) < 0.5 for _ in range(3)]
    for inside in masks:
        assert abs(surface_flux(grid, flux, inside)
                   - reference_flux(grid, flux, inside)) <= 1e-12


# Grids with a different cell count and spacing on every axis, so that a
# preconditioner weighting the axes wrongly, or mixing them up, shows.
SOLVER_GRIDS = [((5, 7, 9), (0.5, 1.0, 2.0)), ((6, 11), (0.3, 1.7))]


# Grids with exactly two cells along some axis leave a single free plane,
# line or node there.
DEGENERATE_GRIDS = [((2, 5, 7), (0.5, 1.0, 2.0)), ((5, 2), (0.3, 1.7)),
                    ((2, 2, 2), (1.0, 0.7, 1.3))]


def interior_mask(grid):
    free = np.zeros(grid.node_shape, dtype=bool)
    free[tuple(slice(1, -1) for _ in grid.shape)] = True
    return free.ravel()


def reference_operator(grid, weights):
    """The full node operator d0^T diag(w) d0, cut to the interior nodes."""
    G = gradient_csr(grid)
    free = interior_mask(grid)
    return (G.T @ sparse.diags(weights) @ G).tocsr()[free][:, free]


def reference_potential(grid, source, coeff):
    """Direct sparse solve of the grounded operator restricted to the
    interior nodes."""
    free = interior_mask(grid)
    L = reference_operator(grid, edge_hodge_diagonal(grid, coeff))
    phi = np.zeros(grid.node_count())
    phi[free] = spsolve(L.tocsc(), source[free])
    return phi


@pytest.mark.parametrize("shape, spacing", [
    *GRIDS, *SOLVER_GRIDS, *DEGENERATE_GRIDS, ((3, 4, 2, 5), (0.6, 1.2, 0.9, 1.5))],
    ids=[*GRID_IDS, "solver-3d", "solver-2d", "2x5x7", "5x2", "2x2x2", "4d"])
def test_interior_operator_matches_cut_node_operator(shape, spacing):
    grid = RectGrid(shape, spacing)
    rng = np.random.default_rng(13)
    for coeff in (2.5, rng.uniform(0.5, 4.0, shape)):
        weights = edge_hodge_diagonal(grid, coeff)
        got = _interior_operator(grid, weights)
        want = reference_operator(grid, weights).toarray()
        assert got.nnz == np.count_nonzero(want)
        # column j of the stencil's matrix is the stencil applied to e_j
        dense = np.array([got @ e for e in np.eye(len(want))]).T.reshape(want.shape)
        if want.size:
            assert np.abs(dense - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("shape, spacing", [*SOLVER_GRIDS, *DEGENERATE_GRIDS],
                         ids=["3d", "2d", "2x5x7", "5x2", "2x2x2"])
@pytest.mark.parametrize("uniform", [True, False], ids=["scalar", "per-cell"])
def test_grounded_solve_matches_direct_solve(shape, spacing, uniform):
    grid = RectGrid(shape, spacing)
    rng = np.random.default_rng(5)
    source = rng.normal(size=grid.node_count())
    coeff = 2.5 if uniform else rng.uniform(0.5, 4.0, shape)
    sol = solve_poisson_grounded(grid, source, coeff)
    want = reference_potential(grid, source, coeff)
    assert np.linalg.norm(sol.potential - want) <= 1e-9 * np.linalg.norm(want)
    assert sol.residual <= 1e-10
    # the exact inverse of the uniform operator solves it in one step; a
    # varying coefficient leaves a spectrum the preconditioner only bunches
    assert (sol.iterations == 1) if uniform else (sol.iterations <= 60)
    assert len(sol.residuals) == sol.iterations
    assert sol.residuals[-1] <= 1e-10 < min(sol.residuals[:-1], default=1.0)


@pytest.mark.parametrize("scale", [2.0**-900, 2.0**660, 1e-300, 1e200],
                         ids=["2^-900", "2^660", "1e-300", "1e200"])
@pytest.mark.parametrize("uniform", [True, False], ids=["scalar", "per-cell"])
def test_grounded_solve_at_extreme_source_sizes(scale, uniform):
    """The solve scales the source by a power of two that brings it into
    [1/2, 1), so CG's dot products neither overflow nor underflow: a source
    times 2**k gives the potential, field and flux times 2**k bit for bit,
    and a source of 1e200 or 1e-300 solves like one of size 1."""
    grid = RectGrid((6, 7, 5), (0.5, 1.0, 0.75))
    rng = np.random.default_rng(8)
    source = rng.normal(size=grid.node_count())
    coeff = 1.5 if uniform else rng.uniform(0.5, 3.0, grid.shape)
    unit = solve_poisson_grounded(grid, source, coeff)
    sol = solve_poisson_grounded(grid, source * scale, coeff)
    mantissa, exponent = np.frexp(scale)
    if mantissa == 0.5:
        for got, want in [(sol.potential, unit.potential), (sol.field_edges, unit.field_edges),
                          (sol.flux_edges, unit.flux_edges)]:
            assert np.array_equal(got, np.ldexp(want, exponent - 1))
        assert (sol.residual, sol.residuals) == (unit.residual, unit.residuals)
    else:
        peak = np.abs(unit.flux_edges).max() * scale
        assert np.abs(sol.flux_edges - unit.flux_edges * scale).max() <= 1e-12 * peak
        assert sol.iterations == unit.iterations and sol.residual <= 1e-10


ONE_CELL_AT_ZERO = np.ones((8, 8, 8))
ONE_CELL_AT_ZERO[3, 4, 5] = 0.0


@pytest.mark.parametrize("coeff, source, named", [
    (0.0, 1.0, "coefficient"),
    (-1.0, 1.0, "coefficient"),
    (np.nan, 1.0, "coefficient"),
    (np.inf, 1.0, "coefficient"),
    (ONE_CELL_AT_ZERO, 1.0, "coefficient"),
    (1.0, np.nan, "source"),
    (1.0, np.inf, "source"),
], ids=["0", "-1", "nan", "inf", "one-cell-0", "source-nan", "source-inf"])
def test_grounded_solve_rejects_bad_input_before_solving(coeff, source, named):
    grid = RectGrid((8, 8, 8), (1.0, 1.0, 1.0))
    rho = np.zeros(grid.node_count())
    rho[grid.node_count() // 2] = source
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            solve_poisson_grounded(grid, rho, coeff)


def test_grounded_solve_peak_memory_at_48_cubed():
    """Applying the operator as its stencil on the free nodes, with d0 as
    edge end indices and no matrix, keeps the traced peak of one 48^3 solve
    near 19 MB; a CSR operator on the free nodes peaks near 31 MB, and the
    full node operator cut to its interior rows and columns near 43 MB."""
    grid = RectGrid((48, 48, 48), (1.0, 1.0, 1.0))
    rho = np.zeros(grid.node_count())
    rho[grid.node_count() // 2] = 1.0
    tracemalloc.start()
    try:
        solve_poisson_grounded(grid, rho, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25e6


def test_cg_reports_no_convergence():
    grid = RectGrid((6, 11), (0.3, 1.7))
    rng = np.random.default_rng(19)
    A = _interior_operator(grid, edge_hodge_diagonal(grid, rng.uniform(0.5, 4.0, grid.shape)))
    b = rng.normal(size=len(A.diagonal))
    calls = []
    x, info, residuals = cg(A, b, M=_uniform_inverse(grid), rtol=1e-14, maxiter=2,
                            callback=calls.append)
    assert info == 2 and len(residuals) == len(calls) == 2
    assert residuals[-1] > 1e-14
    assert cg(A, np.zeros_like(b), M=_uniform_inverse(grid), rtol=1e-10,
              maxiter=5)[1:] == (0, [])


@pytest.mark.parametrize("shape", [(48, 48, 48), (256, 256)], ids=["48^3", "256^2"])
@pytest.mark.parametrize("uniform", [True, False], ids=["scalar", "per-cell"])
def test_cg_matches_scipy_cg(shape, uniform):
    """Same system, same preconditioner: the potentials agree to 1e-12 and
    the iteration counts to within one."""
    grid = RectGrid(shape, (1.0,) * len(shape))
    rng = np.random.default_rng(23)
    coeff = 1.0 if uniform else rng.uniform(0.5, 4.0, shape)
    A = _interior_operator(grid, edge_hodge_diagonal(grid, coeff))
    M = _uniform_inverse(grid)
    b = rng.normal(size=len(A.diagonal))
    x, info, residuals = cg(A, b, M=M, rtol=1e-10, maxiter=20000)
    size = len(b)
    want_iterations = []
    want, want_info = scipy_cg(LinearOperator((size, size), matvec=A.matvec), b,
                               rtol=1e-10, atol=0.0, maxiter=20000,
                               M=LinearOperator((size, size), matvec=M),
                               callback=want_iterations.append)
    assert info == want_info == 0
    assert abs(len(residuals) - len(want_iterations)) <= 1
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
