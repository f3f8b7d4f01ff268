"""The mode loop: the reference for ``assembly.free_stiffness_inverse_block``.

K on the free grid is the Kronecker sum D_y (x) K_x + K_y (x) D_x, so with
G and H the rows of the y and x axis eigenvectors at the nodes' iy and ix,

  (K^-1)_{nodes, nodes} = sum_a outer(G_a, G_a) * (H diag(1 / (lam_y,a + lam_x)) H^T),

one term per y mode a.  This is the form the package used before it
grouped the nodes by the axis index they share; it costs m_y m_x |nodes|^2
flops, and its terms are added in the order of the y modes.
"""

from __future__ import annotations

import numpy as np


def mode_loop_block(ops, nodes: np.ndarray) -> np.ndarray:
    """(K^-1)_{nodes, nodes} for free mesh ``nodes``, summed over the y modes."""
    y, x = ops.axes
    stride = ops.mesh.spec.resolution[0] + 1
    G = y.vectors[np.searchsorted(y.free, nodes // stride)]
    H = x.vectors[np.searchsorted(x.free, nodes % stride)]
    block = np.zeros((len(nodes), len(nodes)))
    for g, lam in zip(G.T, ops.eigenvalue_sums):
        block += np.outer(g, g) * ((H / lam) @ H.T)
    return block


def mode_loop_trace_constant(ops) -> float:
    """c_bar_star from the mode loop's Gamma_1 block, symmetrised, the way
    the package computed it before: the square root of the largest
    eigenvalue of W^(1/2) (K^-1)_{Gamma_1, Gamma_1} W^(1/2)."""
    block = mode_loop_block(ops, ops.mesh.gamma1_nodes)
    sw = np.sqrt(ops.mesh.gamma1_weights)
    block *= np.outer(sw, sw)
    return float(np.sqrt(np.linalg.eigvalsh(0.5 * (block + block.T))[-1]))
