"""Rectilinear grid operators against brute-force per-edge references."""

from itertools import product

import numpy as np
import pytest

from formcalc.grid import (RectGrid, box_node_set, edge_hodge_diagonal, gradient_matrix,
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
    G = gradient_matrix(grid)
    assert np.array_equal(G.toarray(), reference_gradient(grid))


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
    with pytest.raises(ValueError, match="grid shape"):
        edge_hodge_diagonal(grid, np.ones(tuple(s + 1 for s in shape)))


@pytest.mark.parametrize("shape, spacing", GRIDS, ids=GRID_IDS)
def test_surface_flux_matches_reference(shape, spacing):
    grid = RectGrid(shape, spacing)
    rng = np.random.default_rng(11)
    flux = rng.normal(size=gradient_matrix(grid).shape[0])
    masks = [box_node_set(grid, r) for r in (0, 1)]
    masks += [rng.random(grid.node_count()) < 0.5 for _ in range(3)]
    for inside in masks:
        assert abs(surface_flux(grid, flux, inside)
                   - reference_flux(grid, flux, inside)) <= 1e-12
