"""Full-node power method: the reference for ``stableset._ascend``.

The same generalized power method as the ascent, written on mesh fields:
each step gathers the free entries of the gradient, solves on the free
nodes, scatters the new iterate into a zeroed mesh field and takes the
gradient of that field, which must be zero on Gamma_0.  The stop test is
the ascent's own.  From the ascent's ground-mode start the two differ only
in the summation order of the dot products that read u . g; from random
starts, the best of several is the reference the single ascent must reach.
"""

from __future__ import annotations

import math

import numpy as np

from viscowave.assembly import solve_free_stiffness
from viscowave.stableset import _MAX_ASCENT_STEPS, _STATIONARY_TOL


def ground_gradient(ops) -> np.ndarray:
    """K's ground mode as a mesh field, the ascent's first gradient."""
    y, x = ops.axes
    g = np.zeros(ops.n_nodes)
    g[ops.mesh.free_nodes] = np.outer(y.vectors[:, 0], x.vectors[:, 0]).ravel()
    return g


def full_node_ascent(ops, gradient, degree: float, g: np.ndarray):
    """(last iterate, value, steps) of one ascent whose first gradient is
    the mesh field ``g``, with ``gradient`` taking and returning mesh
    fields."""
    free = ops.mesh.free_nodes
    u = np.zeros(ops.n_nodes)
    steps = 0
    while steps < _MAX_ASCENT_STEPS:
        g_free = g[free]
        x = solve_free_stiffness(ops, g_free)
        norm = math.sqrt(g_free @ x)
        if 2.0 - 2.0 * (u @ g) / norm < _STATIONARY_TOL**2:
            break
        u = np.zeros(ops.n_nodes)
        u[free] = x / norm
        g = gradient(u)
        steps += 1
    return u, float(u @ g) ** (1.0 / degree), steps


def best_of_random_starts(ops, gradient, degree: float, seed: int) -> float:
    """The largest value of 8 full-node ascents, each from a gradient of
    standard normals on the free nodes drawn from ``seed``."""
    free = ops.mesh.free_nodes
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(8):
        g = np.zeros(ops.n_nodes)
        g[free] = rng.standard_normal(len(free))
        values.append(full_node_ascent(ops, gradient, degree, g)[1])
    return max(values)
