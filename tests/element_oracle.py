"""Element-sum assembly: the reference for ``assembly.assemble``'s stencils.

Two routes to the P1 stiffness K and consistent mass M of a uniform mesh,
both summing one matrix per element of ``Mesh.elements``:

- ``element_sum_forms`` is the float assembly the package used before it
  wrote the diagonals straight from the cell pattern: the forms of an
  interval as three diagonals, those of a rectangle from each triangle's
  node coordinates, summed in CSR.  On every interval and on every
  rectangle whose cell sizes are powers of two its products with a vector
  are bitwise those of the stencils.
- ``exact_element_sum`` sums the same element matrices in rational
  arithmetic from the float cell sizes (hx, hy), each corner at
  (ix hx, iy hy) exactly.  Elsewhere the coordinates ``numpy.linspace``
  rounds shift the float route by roundoff, so both routes are measured
  against this one.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp


def element_sum_forms(mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(K, M) summed in CSR, with K's zero diagonal-edge couplings kept."""
    if mesh.dimension == 1:
        K, M = _interval_forms(mesh)
    else:
        K, M = _triangle_forms(mesh)
    return K.tocsr(), M.tocsr()


def _interval_forms(mesh):
    m = mesh.spec.resolution[0]
    h = mesh.spec.extent[0] / m
    n = mesh.n_nodes
    main_k = np.full(n, 2.0 / h)
    main_k[0] = main_k[-1] = 1.0 / h
    K = sp.diags([np.full(n - 1, -1.0 / h), main_k, np.full(n - 1, -1.0 / h)], [-1, 0, 1])
    main_m = np.full(n, 4.0 * h / 6.0)
    main_m[0] = main_m[-1] = 2.0 * h / 6.0
    M = sp.diags([np.full(n - 1, h / 6.0), main_m, np.full(n - 1, h / 6.0)], [-1, 0, 1])
    return K, M


def _triangle_forms(mesh):
    n = mesh.n_nodes
    elems = mesh.elements
    pts = mesh.nodes
    p0, p1, p2 = pts[elems[:, 0]], pts[elems[:, 1]], pts[elems[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * np.abs(det)
    # gradients of the barycentric coordinates
    g0 = np.column_stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]]) / det[:, None]
    g1 = np.column_stack([p2[:, 1] - p0[:, 1], p0[:, 0] - p2[:, 0]]) / det[:, None]
    g2 = np.column_stack([p0[:, 1] - p1[:, 1], p1[:, 0] - p0[:, 0]]) / det[:, None]
    grads = np.stack([g0, g1, g2], axis=1)  # (ne, 3, 2)

    ke = np.einsum("eid,ejd,e->eij", grads, grads, area)
    me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = area[:, None, None] * me_ref[None, :, :]

    rows = np.repeat(elems, 3, axis=1).ravel()
    cols = np.tile(elems, (1, 3)).ravel()
    K = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n))
    M = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n))
    return K, M


def exact_element_sum(mesh) -> tuple[dict, dict]:
    """(K, M) of a rectangle as {(row, col): Fraction}, every pair of
    corners of an element present, a zero coupling too."""
    nx = mesh.spec.resolution[0]
    hx, hy = (Fraction(e / r) for e, r in zip(mesh.spec.extent, mesh.spec.resolution))

    def point(node):
        return hx * (node % (nx + 1)), hy * (node // (nx + 1))

    K, M = {}, {}
    for element in mesh.elements.tolist():
        (x0, y0), (x1, y1), (x2, y2) = map(point, element)
        det = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        area = abs(det) / 2
        grads = [((y1 - y2) / det, (x2 - x1) / det), ((y2 - y0) / det, (x0 - x2) / det),
                 ((y0 - y1) / det, (x1 - x0) / det)]
        for a, ga in zip(element, grads):
            for b, gb in zip(element, grads):
                K[a, b] = K.get((a, b), 0) + area * (ga[0] * gb[0] + ga[1] * gb[1])
                M[a, b] = M.get((a, b), 0) + area * (1 + (a == b)) / 12
    return K, M


def ulps_from_exact(matrix, exact: dict) -> float:
    """The largest distance of ``matrix`` from ``exact`` over the entries
    ``exact`` holds, in units of the last place of each exact entry (of the
    largest entry where the exact one is zero); raises if ``matrix`` holds a
    nonzero entry outside ``exact``."""
    dense = matrix.toarray()
    scale = max(abs(float(v)) for v in exact.values())
    worst = 0.0
    for (a, b), value in exact.items():
        error = abs(Fraction(dense[a, b]) - value)
        worst = max(worst, float(error) / np.spacing(abs(float(value)) or scale))
        dense[a, b] = 0.0
    if np.any(dense):
        raise AssertionError("an entry outside the element sum")
    return worst
