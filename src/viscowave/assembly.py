"""P1 finite-element forms: mass, stiffness, boundary mass, L^k quantities.

Piecewise-linear elements on the uniform meshes of :mod:`viscowave.geometry`.
Mass and stiffness are assembled exactly; the lumped mass m_i is the row sum
of the consistent mass, m_i = int phi_i.

The two nonlinear integrals use the nodal ("product approximation") rule,
which needs the lumped mass alone:

  int |u_h|^k                  ~  lk(u)  = sum_i m_i |u_i|^k
  int |u_h|^{k-2} u_h phi_i    ~  S(u)_i = m_i |u_i|^{k-2} u_i   (0 where u_i = 0)

S is the exact gradient of lk/k on the free nodes, so for u zero on Gamma_0,
u . source_vector(u) == lk_norm_pow(u) up to roundoff; the stepper and the
well-constant ascent use the dot product.  lk is the integral of the P1
interpolant of |u_h|^k, and that interpolant lies above |u_h|^k on every
element (t -> |t|^k is convex), so lk >= int |u_h|^k for every field.  For
smooth u both rules are O(h^2) accurate for every exponent k > 2.

Every mesh is a uniform interval or rectangle whose Dirichlet part is a
union of whole faces, so the free nodes form a grid and K on them is the
Kronecker sum D_y (x) K_x + K_y (x) D_x of each axis's 1D stiffness K_x and
lumped mass D_x (an interval has a one-node y axis).  ``assemble`` keeps the
closed-form eigenpairs of each axis; they give K^{-1} b, the Gamma_1 block
of K^{-1} and the CFL eigenvalue without factoring K.  The block is formed
face by face: the nodes of a face share one axis index, so the sum over
that axis collapses, and each pair of faces costs one small product.

On such a grid K is a stencil: it couples a node to its neighbours along
the axes (3 entries a row in 1D, 5 in 2D).  Every cell is cut the same way
(one segment in 1D; in 2D two right triangles, whose right angles make K's
couplings across each cell's diagonal edge exactly zero), so both forms are
a few constant-offset diagonals, K's of its stencil alone and M's 3 or 7.
``assemble`` writes them straight into diagonal (DIA) storage (Saad,
*Iterative Methods for Sparse Linear Systems*, 2nd ed., 2003, sec. 3.4):
the element matrices of one cell are computed once, and each local pair of
corners adds its entry to one slice of one diagonal, for every cell at once.
Every product with K or M is one ``dia_product``, with no index gather; with
the diagonals in ascending offset order a row's terms are added in column
order, as a CSR product adds them, and the zeros the diagonals hold where a
row has no coupling add nothing.

The diagonals live in a :class:`Stencil`, the package's own two arrays
(int32 offsets ascending, one row of data per diagonal) and a shape, and the
stepper's acoustic closure map is three CSR arrays it builds itself.  Their
products call the compiled kernels ``dia_matvec`` and ``csr_matvec`` of
scipy's private extension ``scipy/sparse/_sparsetools``, the kernels that
scipy's own ``dia_matrix @ x`` and ``csr_matrix @ x`` end in, so each
product is bitwise scipy's.  The extension is loaded from its file, found
by ``importlib.util.find_spec("scipy")`` (which imports nothing) and the
interpreter's extension suffixes, because importing it by name imports
``scipy.sparse`` first: about 21 MB and 0.16 s per process, for classes the
package used only as containers.  A missing file raises an ImportError that
lists the paths searched.  No module of the package imports ``scipy.sparse``:
the CFL eigenvalue at a free corner solves a corner-sized secular equation
from the axis eigenpairs (see :func:`_lam_max`), with no sparse eigensolver.

Fields are plain numpy arrays with one value per mesh node; entries at
Dirichlet nodes are pinned to zero.  The well-constant ascent alone works on
vectors over the free nodes, which hold no Dirichlet entry to pin.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np

from .geometry import Mesh


def _load_sparsetools():
    """scipy's compiled sparse kernels, ``scipy/sparse/_sparsetools``, loaded
    from their file without importing scipy or scipy.sparse.

    The extension's single-phase init enters it in ``sys.modules`` under its
    own name; that entry is put back as it was, so a later
    ``import scipy.sparse`` imports the package as usual."""
    name = "scipy.sparse._sparsetools"
    spec = importlib.util.find_spec("scipy")  # locates scipy, does not import it
    roots = spec.submodule_search_locations if spec is not None else []
    searched = [Path(root, "sparse", f"_sparsetools{suffix}")
                for root in roots for suffix in EXTENSION_SUFFIXES]
    path = next((str(p) for p in searched if p.is_file()), None)
    if path is None:
        where = ", ".join(map(str, searched)) or "no scipy package on sys.path"
        raise ImportError(f"{name} not found; searched: {where}", name=name)
    loader = ExtensionFileLoader(name, path)
    registered = sys.modules.get(name)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    if registered is None:
        sys.modules.pop(name, None)
    else:
        sys.modules[name] = registered
    return module.csr_matvec, module.dia_matvec


csr_matvec, dia_matvec = _load_sparsetools()


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the wave system.

    ``kappa`` is the exponent of the nonlocal stiffness a + b |grad u|^(2 kappa)
    and ``k_exp`` the source exponent (> 2; unrestricted above that in one and
    two dimensions).  ``b = 0`` switches the nonlocal term off and
    ``source_enabled = False`` drops the source term (reference and
    manufactured-solution runs).
    """

    a: float
    b: float
    kappa: float
    k_exp: float
    p_c: float
    q_c: float
    source_enabled: bool = True

    def __post_init__(self):
        errors = self.validation_errors()
        if errors:
            raise ValueError("; ".join(errors))

    def validation_errors(self) -> list[str]:
        errs = []
        if self.a <= 0:
            errs.append(f"a must be positive, got {self.a}")
        if self.b < 0:
            errs.append(f"b must be nonnegative, got {self.b}")
        if self.kappa < 0:
            errs.append(f"kappa must be nonnegative, got {self.kappa}")
        if self.k_exp <= 2:
            errs.append(f"source exponent k must exceed 2, got {self.k_exp}")
        if self.p_c <= 0:
            errs.append(f"(H1) requires p > 0, got {self.p_c}")
        if self.q_c <= 0:
            errs.append(f"(H1) requires q > 0, got {self.q_c}")
        return errs

    def kirchhoff_coefficient(self, grad_sq: float) -> float:
        """a + b |grad u|^(2 kappa); exactly a when b = 0, however large the power."""
        if self.b == 0.0:
            return self.a
        return self.a + self.b * float_pow(grad_sq, self.kappa)

    def kirchhoff_potential(self, grad_sq: float) -> float:
        """b/(kappa+1) |grad u|^(2(kappa+1)), the Kirchhoff term of the well
        functional and twice that of the energy; 0.0 when b = 0, where the
        power may overflow."""
        if self.b == 0.0:
            return 0.0
        return self.b / (self.kappa + 1.0) * float_pow(grad_sq, self.kappa + 1.0)


def float_pow(x: float, p: float) -> float:
    """x ** p for x >= 0, with inf where the float power overflows."""
    try:
        return x**p
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class AxisModes:
    """Eigenpairs of one mesh axis: K_1 V = D_1 V diag(values) with
    V^T D_1 V = I, where K_1 is the 1D P1 stiffness and D_1 the 1D lumped
    mass of the axis, both on the axis indices ``free`` that no Dirichlet
    face pins.  ``values`` ascend."""

    free: np.ndarray
    values: np.ndarray
    vectors: np.ndarray


# The y axis of an interval: one node, unit mass, zero stiffness, so that
# D_y (x) K_x + K_y (x) D_x is K_x itself.
_POINT_AXIS = AxisModes(free=np.zeros(1, dtype=int), values=np.zeros(1),
                        vectors=np.ones((1, 1)))


@dataclass(frozen=True)
class Stencil:
    """A square matrix in diagonal (DIA) storage: row k of ``data`` is the
    diagonal at ``offsets[k]`` (int32, ascending), and ``data[k, j]`` is the
    entry in column j, as scipy's ``dia_matrix`` stores it with one column
    of data per column of the matrix.  :func:`dia_product` is its product."""

    offsets: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


@dataclass(frozen=True)
class DiscreteOperators:
    """Assembled linear forms; the lumped mass also carries the nonlinear terms.

    ``stiffness`` and ``mass`` are stencils in DIA storage, their diagonals
    in ascending offset order, for :func:`dia_product`; K holds the offsets
    of its stencil alone.  ``axes`` = (y, x) diagonalises K on the
    free nodes (see :func:`solve_free_stiffness`); in 1D y is the one-node
    axis.  ``eigenvalue_sums`` is the table lam_y (+) lam_x of K's
    eigenvalues on the free grid, entry (a, b) = y.values[a] + x.values[b].
    ``lam_max`` is the exact largest eigenvalue of M_lump^{-1} K on the free
    nodes, with no margin: the stepper owns the CFL margins.
    """

    mesh: Mesh
    stiffness: Stencil
    mass: Stencil
    mass_lumped: np.ndarray
    lam_max: float
    axes: tuple[AxisModes, AxisModes]
    eigenvalue_sums: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes


def assemble(mesh: Mesh) -> DiscreteOperators:
    """Assemble stiffness, consistent and lumped mass, the per-axis
    eigenpairs of the stiffness and the CFL eigenvalue."""
    corners, stiffness, mass = _cell_forms(mesh)
    K = _cell_stencil(mesh, corners, stiffness)
    M = _cell_stencil(mesh, corners, mass)
    lumped = dia_product(M, np.ones(mesh.n_nodes), np.empty(mesh.n_nodes))  # the row sums
    x = _axis_modes(mesh.spec.extent[0], mesh.spec.resolution[0],
                    _free_indices(mesh, 0, ("left", "right")))
    y = _POINT_AXIS
    if mesh.dimension == 2:
        y = _axis_modes(mesh.spec.extent[1], mesh.spec.resolution[1],
                        _free_indices(mesh, 1, ("bottom", "top")))
    sums = y.values[:, None] + x.values[None, :]
    return DiscreteOperators(
        mesh=mesh,
        stiffness=K,
        mass=M,
        mass_lumped=lumped,
        lam_max=_lam_max(mesh, lumped, (y, x), sums),
        axes=(y, x),
        eigenvalue_sums=sums,
    )


def _cell_forms(mesh: Mesh):
    """The simplices of one cell, each as the (iy, ix) offsets of its
    corners from the cell's lower-left node, and their element stiffness and
    mass matrices, the same in every cell of the uniform mesh.

    In 2D a cell is cut into (v00, v10, v11) and (v00, v11, v01) as in
    :func:`viscowave.geometry.build_mesh`, right-angled at v10 and v01; with
    cx = hy / (2 hx) and cy = hx / (2 hy) the stiffness couples two corners
    along x by -cx, along y by -cy, and across the diagonal edge by 0.
    """
    if mesh.dimension == 1:
        h = mesh.spec.extent[0] / mesh.spec.resolution[0]
        return ([[(0, 0), (0, 1)]], [np.array([[1.0, -1.0], [-1.0, 1.0]]) / h],
                [(np.ones((2, 2)) + np.eye(2)) * h / 6.0])
    hx, hy = (e / r for e, r in zip(mesh.spec.extent, mesh.spec.resolution))
    cx, cy = 0.5 * hy / hx, 0.5 * hx / hy
    lower = np.array([[cx, -cx, 0.0], [-cx, cx + cy, -cy], [0.0, -cy, cy]])
    upper = np.array([[cy, 0.0, -cy], [0.0, cx, -cx], [-cy, -cx, cx + cy]])
    mass = 0.5 * hx * hy * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
    return [[(0, 0), (0, 1), (1, 1)], [(0, 0), (1, 1), (1, 0)]], [lower, upper], [mass, mass]


def _cell_stencil(mesh: Mesh, corners, elements) -> Stencil:
    """The sum over all cells of the element matrices ``elements`` of the
    cell's simplices ``corners`` (see :func:`_cell_forms`), in DIA storage
    with its diagonals in ascending offset order.  A local pair (a, b) adds
    its entry to A[i, i + k], k the node offset from a to b, for every cell
    at once: entry (i, i + k) sits at column i + k, b's node, so that is one
    slice of the k-th diagonal over the grid of the cells' b nodes.  Zero
    entries are not added, and a diagonal that holds none is not stored."""
    nx, ny = (*mesh.spec.resolution, 1)[:2]  # cells per axis; one row in 1D
    pairs = [((b[0] - a[0]) * (nx + 1) + b[1] - a[1], b, value)
             for simplex, element in zip(corners, elements)
             for a, row in zip(simplex, element)
             for b, value in zip(simplex, row) if value != 0.0]
    offsets = sorted({k for k, _, _ in pairs})
    data = np.zeros((len(offsets), mesh.n_nodes))
    grid = data.reshape(len(offsets), -1, nx + 1)
    for k, (by, bx), value in pairs:
        grid[offsets.index(k), by:by + ny, bx:bx + nx] += value
    return Stencil(np.array(offsets, dtype=np.int32), data, (mesh.n_nodes, mesh.n_nodes))


def _free_indices(mesh: Mesh, axis: int, ends: tuple[str, str]) -> np.ndarray:
    """The indices along ``axis`` that hold a free node: 0 .. m, less each
    end whose face is Dirichlet (a pinned face pins its whole line of
    nodes, and every other line keeps a free node)."""
    low, high = (face in mesh.spec.gamma0_faces for face in ends)
    return np.arange(int(low), mesh.spec.resolution[axis] + 1 - int(high))


def _axis_modes(length: float, m: int, free: np.ndarray) -> AxisModes:
    """Eigenpairs of the 1D forms on [0, length], m cells, in closed form.

    With h = length / m, the stiffness rows of the free indices read
    (-v_{i-1} + 2 v_i - v_{i+1}) / h = lam h v_i, and a free end's row is
    the same row for the even extension of v.  So v_i = sin(i theta) from a
    pinned left end, cos(i theta) from a free one, and theta_j =
    (j + c) pi / m with c = 1, 1/2 or 0 for two, one or no pinned ends;
    lam_j = (4 / h^2) sin^2(theta_j / 2).  These are exact to roundoff
    relative to each eigenvalue, where a dense eigensolver's error is
    eps |K_1| on every eigenvalue, and the smallest ones dominate K^{-1}.
    """
    h = length / m
    pinned_ends = 2 - (free[0] == 0) - (free[-1] == m)
    theta = (np.arange(len(free)) + 0.5 * pinned_ends) * (np.pi / m)
    phase = np.sin if free[0] > 0 else np.cos
    vectors = phase(np.outer(free, theta))
    mass = np.full(len(free), h)
    mass[free == 0] = mass[free == m] = h / 2.0
    vectors /= np.sqrt(mass @ vectors**2)
    values = (2.0 / h * np.sin(0.5 * theta)) ** 2
    return AxisModes(free=free, values=values, vectors=vectors)


def _lam_max(mesh: Mesh, lumped: np.ndarray, axes, sums: np.ndarray) -> float:
    """Largest eigenvalue of diag(M_lump)^{-1} K on the free nodes, from the
    axis eigenpairs and the table ``sums`` of Lam = lam_y (+) lam_x.

    On the free nodes K = D_y (x) K_x + K_y (x) D_x, and the lumped mass is
    D_y (x) D_x + Delta, with Delta zero but at a free corner: h_x h_y / 12
    heavier at (0, 0) and (n_x, n_y), and as much lighter at (n_x, 0) and
    (0, n_y).  An interval has no corner, and a free corner needs two
    acoustic faces to meet.  In V = V_y (x) V_x the pencil reads
    Lam c = lam (I + Z^T Delta Z) c, Z the rows of V at the free corners.
    For mu > 0 off Lam, Haynsworth's inertia theorem on
    [[Lam - mu I, Z^T], [Z, (mu Delta)^{-1}]] counts its eigenvalues below
    mu as #(Lam < mu) + neg(H(mu)) - neg(Delta), with the corner-sized
    secular matrix H(mu) = Delta^{-1} - mu Z (Lam - mu I)^{-1} Z^T
    (Golub, SIAM Rev. 15, 1973).  Bisection on that count pins the largest
    eigenvalue to adjacent floats, inside the Rayleigh bracket Lam_max times
    [min(1, r), max(1, r)], r the corners' ratios of D_y (x) D_x to the
    lumped mass.  With every corner pinned the bracket is the one point
    Lam_max = lam_y + lam_x, returned as it is.  The sum is no bound at a
    free corner (unit square, 5 x 7 cells, acoustic left, bottom and top:
    293.55 against 308.67).
    """
    y, x = axes
    lam_top = float(sums[-1, -1])
    if mesh.dimension == 1:
        return lam_top
    nx, ny = mesh.spec.resolution
    corners = [(iy, ix) for iy in (0, ny) if iy in y.free for ix in (0, nx) if ix in x.free]
    if not corners:
        return lam_top
    iy, ix = np.array(corners).T
    zy, zx = y.vectors[iy - y.free[0]], x.vectors[ix - x.free[0]]  # free index i is row i - free[0]
    Z = (zy[:, :, None] * zx[:, None, :]).reshape(len(corners), -1)
    lam = sums.ravel()
    base = 0.25 * math.prod(e / r for e, r in zip(mesh.spec.extent, mesh.spec.resolution))
    mass = lumped[iy * (nx + 1) + ix]
    delta = mass - base
    below_top = len(lam) - 1 + np.count_nonzero(delta < 0)
    inv_delta = np.diag(1.0 / delta)
    ratio = base / mass
    lo, hi = lam_top * min(1.0, *ratio), lam_top * max(1.0, *ratio)
    while True:
        mu = 0.5 * (lo + hi)
        if not lo < mu < hi:
            return float(hi)
        if np.any(lam == mu):  # a pole of H(mu): step one float aside
            mu = np.nextafter(mu, hi)
        secular = inv_delta - mu * (Z / (lam - mu)) @ Z.T
        below = np.count_nonzero(lam < mu) + np.count_nonzero(np.linalg.eigvalsh(secular) < 0)
        if below <= below_top:
            lo = mu
        else:
            hi = mu


def solve_free_stiffness(ops: DiscreteOperators, b: np.ndarray) -> np.ndarray:
    """K^{-1} b on the free nodes (b and the result ordered as ``free_nodes``).

    The free nodes form a grid, iy-major, and K on them is
    D_y (x) K_x + K_y (x) D_x; in the axis eigenvectors it is the diagonal
    lam_y (+) lam_x (Lynch, Rice and Thomas, Numer. Math. 6, 1964), the
    table ``ops.eigenvalue_sums``.
    """
    y, x = ops.axes
    B = b.reshape(len(y.free), len(x.free))
    C = (y.vectors.T @ B @ x.vectors) / ops.eigenvalue_sums
    return (y.vectors @ C @ x.vectors.T).ravel()


def free_stiffness_inverse_block(ops: DiscreteOperators, nodes: np.ndarray) -> np.ndarray:
    """The block (K^{-1})_{nodes, nodes} of K^{-1} on the free nodes, for
    free mesh ``nodes``, exactly symmetric, with no solve.

    With L = 1 / ``ops.eigenvalue_sums`` and G and H the rows of the y and
    x eigenvectors at the nodes' iy and ix, entry (p, q) is
    sum_ab G_pa G_qa L_ab H_pb H_qb.  The nodes are grouped by an axis index
    they share: by ix for the nodes with ix in {0, nx} (the left and right
    faces), by iy for every other node, and all by iy when the free grid
    has one row, as in 1D.  In an x-group every H row is the shared row
    h_i, in a y-group every G row is g_k, so the sum over that axis
    collapses, and the block between groups P and Q is one product of
    small matrices (G_P, H_P the rows of the group's other axis):

      two x-groups:       G_P diag(L (h_i o h_j)) G_Q^T
      two y-groups:       H_P diag((g_k o g_l)^T L) H_Q^T
      x- with a y-group:  G_P diag(g_l) L diag(h_i) H_Q^T

    A group's own weights are positive, so its block is A A^T with A the
    rows scaled by their square roots, a symmetric product; the block of
    (Q, P) is the transpose of that of (P, Q).  On an m_y x m_x free grid
    a pair of groups of n_P and n_Q nodes costs at most
    O(n_P m_y m_x + n_P n_Q m) flops, m = max(m_y, m_x).  Gamma_1 makes at
    most four groups of at most m nodes, so its block costs O(m^3), where
    the sum over the y modes, sum_a outer(G_a, G_a) * (H diag(L_a) H^T),
    costs m_y m_x |nodes|^2 = O(m^4): 0.05 against 2.4 ms on the 64 x 64
    square with one acoustic face (timeit, one BLAS thread, 2-core x86).
    """
    y, x = ops.axes
    nx = ops.mesh.spec.resolution[0]
    iy, ix = np.divmod(nodes, nx + 1)
    L = 1.0 / ops.eigenvalue_sums
    # an axis's free indices are a range: index i is row i - free[0]
    if len(y.free) == 1:  # one free row, as in 1D: one y-group
        scaled = x.vectors[ix - x.free[0]] * np.sqrt((y.vectors[0] * y.vectors[0]) @ L)
        return scaled @ scaled.T
    key = np.where(ix % nx, iy + (nx + 1), ix)  # the x-groups sort first
    order = np.argsort(key, kind="stable")
    G = y.vectors[iy[order] - y.free[0]]  # rows in the grouped order
    H = x.vectors[ix[order] - x.free[0]]
    given = key.tolist()
    key = sorted(given)
    starts = [p for p in range(len(key)) if p == 0 or key[p] != key[p - 1]]
    groups = []  # (slice of the grouped order, in an x-group?, rows, shared row)
    for start, stop in zip(starts, [*starts[1:], len(key)]):
        P = slice(start, stop)
        if key[start] <= nx:
            groups.append((P, True, G[P], H[start]))
        else:
            groups.append((P, False, H[P], G[start]))
    block = np.empty((len(nodes), len(nodes)))
    for i, (P, p_on_x, rows_P, shared_P) in enumerate(groups):
        for Q, q_on_x, rows_Q, shared_Q in groups[i:]:
            if p_on_x and not q_on_x:
                pair = rows_P @ (shared_Q[:, None] * L * shared_P) @ rows_Q.T
            else:
                weights = L @ (shared_P * shared_Q) if p_on_x else (shared_P * shared_Q) @ L
                if Q is P:
                    scaled = rows_P * np.sqrt(weights)
                    block[P, P] = scaled @ scaled.T
                    continue
                pair = (rows_P * weights) @ rows_Q.T
            block[P, Q] = pair
            block[Q, P] = pair.T
    if key == given:  # the nodes came in the grouped order
        return block
    out = np.empty_like(block)
    out[np.ix_(order, order)] = block
    return out


def pin_gamma0(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Copy of ``u`` with Dirichlet entries forced to zero."""
    out = np.array(u, dtype=float)
    out[mesh.gamma0_nodes] = 0.0
    return out


def _csr_accumulate(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                    x: np.ndarray, out: np.ndarray) -> None:
    """out += A @ x in place, for the CSR arrays of A (int32 ``indptr`` and
    ``indices``, each row's columns ascending).  ``out`` may be a slice of
    ``x`` itself when no column of A reads an entry of that slice: the
    stepper's acoustic closure map writes into its own state array this
    way.  This and :func:`dia_product` are the package's two calls of
    ``_sparsetools``; scipy's ``csr_matrix @ x`` ends in the same kernel,
    after about 2 us of Python dispatch per call, more than the arithmetic
    on the meshes the stepper runs every step."""
    csr_matvec(len(out), len(x), indptr, indices, data, x, out)


def dia_product(A: Stencil, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A @ x written into ``out`` and returned, for a square stencil A (as
    :func:`assemble` stores K and M), a float vector x and a contiguous
    float vector ``out`` that shares no memory with x; bitwise scipy's
    ``dia_matrix @ x``, with none of its dispatch.  ``dia_matvec`` adds to
    its output, so ``out`` is zeroed first.  The stepper passes the history
    ring's row that will hold K u, so the product is stored where the push
    keeps it."""
    n = A.shape[0]
    out.fill(0.0)
    dia_matvec(n, n, len(A.offsets), n, A.offsets, A.data, x, out)
    return out


def grad_norm_sq(ops: DiscreteOperators, u: np.ndarray) -> float:
    """|grad u|_2^2 = u^T K u (exact for P1)."""
    return float(u @ dia_product(ops.stiffness, u, np.empty(len(u))))


def l2_norm_sq(ops: DiscreteOperators, u: np.ndarray) -> float:
    """|u|_2^2 via the consistent mass form."""
    return float(u @ dia_product(ops.mass, u, np.empty(len(u))))


def lk_norm_pow(ops: DiscreteOperators, u: np.ndarray, k_exp: float) -> float:
    """int |u_h|^k by the nodal rule, sum_i m_i |u_i|^k."""
    return float(ops.mass_lumped @ np.abs(u) ** k_exp)


def source_vector(ops: DiscreteOperators, u: np.ndarray, k_exp: float,
                  out: np.ndarray) -> np.ndarray:
    """Nodal weak form of the odd source, m_i |u_i|^{k-2} u_i, written into
    ``out`` (a float vector of u's size, not u itself) and returned; zero on
    Gamma_0 for u zero there.  The stepper passes its state's source slot.

    The gradient of lk_norm_pow(u) / k, so for u zero on Gamma_0,
    u . source_vector(u) == lk_norm_pow(u) to roundoff.
    """
    return _nodal_source(ops.mass_lumped, u, k_exp, out)


def _nodal_source(mass: np.ndarray, u: np.ndarray, k_exp: float,
                  out: np.ndarray) -> np.ndarray:
    """The nodal rule m_i |u_i|^{k-2} u_i for node masses ``mass`` aligned
    with ``u``, written into ``out`` and returned: on every node by
    :func:`source_vector`, on the free nodes alone by the well-constant
    ascent."""
    np.abs(u, out=out)
    out **= k_exp - 2.0
    out *= u
    out *= mass
    return out


def boundary_quadratic(ops: DiscreteOperators, y_vals: np.ndarray, weight: float) -> float:
    """weight * int_{Gamma_1} y^2 for values aligned with the gamma1 nodes."""
    return float(weight * (ops.mesh.gamma1_weights @ (y_vals * y_vals)))

