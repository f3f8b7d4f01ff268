"""Full-node power method: the reference for ``stableset._ascend``.

The same generalized power method as the ascent, written on mesh fields:
each step gathers the free entries of the gradient, solves on the free
nodes, scatters the new iterate into a zeroed mesh field and takes the
gradient of that field, which must be zero on Gamma_0.  The stop test, the
random starts and the diagnostics are the ascent's own, so the two differ
only in the summation order of the dot products that read u . g.
"""

from __future__ import annotations

import math

import numpy as np

from viscowave.assembly import solve_free_stiffness
from viscowave.stableset import _MAX_ASCENT_STEPS, _STATIONARY_TOL, AscentDiagnostics


def full_node_ascent(ops, gradient, degree: float, seed: int, n_starts: int):
    """(best iterate, AscentDiagnostics), with ``gradient`` taking and
    returning mesh fields."""
    free = ops.mesh.free_nodes
    rng = np.random.default_rng(seed)
    points, values, iters = [], [], []
    for _ in range(n_starts):
        u = np.zeros(ops.n_nodes)
        g = np.zeros(ops.n_nodes)
        g[free] = rng.standard_normal(len(free))
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
        points.append(u)
        values.append(float(u @ g) ** (1.0 / degree))
        iters.append(steps)

    diag = AscentDiagnostics(start_values=tuple(values), iterations=tuple(iters),
                             converged=tuple(n < _MAX_ASCENT_STEPS for n in iters))
    return points[values.index(diag.value)], diag
