import functools
import importlib.machinery
import importlib.util
import itertools
import math
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.integrate import dblquad, quad

from viscowave import (
    PhysicalParams,
    assemble,
    boundary_quadratic,
    grad_norm_sq,
    lk_norm_pow,
    source_vector,
)
from viscowave import assembly
from viscowave.assembly import l2_norm_sq
from viscowave.stepper import AcousticClosure, StepperConfig

from conftest import (as_dia_matrix, exp_kernel, interval_mesh, rect_mesh, square_mesh,
                      trapezoid_x4)
from element_oracle import element_sum_forms, exact_element_sum, ulps_from_exact


def test_two_element_stiffness_stencil():
    mesh = interval_mesh(2)
    ops = assemble(mesh)
    K = as_dia_matrix(ops.stiffness).toarray()
    # h = 1/2: interior row is (-2, 4, -2)
    assert np.allclose(K[1], [-2.0, 4.0, -2.0])
    assert np.allclose(K.sum(axis=1), 0.0, atol=1e-13)


def test_consistent_mass_row_sums():
    mesh = interval_mesh(4)
    ops = assemble(mesh)
    sums = np.asarray(as_dia_matrix(ops.mass).sum(axis=1)).ravel()
    h = 0.25
    assert sums[0] == pytest.approx(h / 2)
    assert sums[2] == pytest.approx(h)
    assert sums.sum() == pytest.approx(1.0)
    assert np.allclose(ops.mass_lumped, sums)


def test_grad_norm_examples(mesh64, ops64):
    zero = np.zeros(mesh64.n_nodes)
    assert grad_norm_sq(ops64, zero) == 0.0
    u = mesh64.nodes[:, 0].copy()
    assert grad_norm_sq(ops64, u) == pytest.approx(1.0)  # exact for linears
    assert grad_norm_sq(ops64, 2 * u) == pytest.approx(4.0)


def test_lk_norm_examples(mesh64, ops64):
    u = mesh64.nodes[:, 0].copy()
    assert lk_norm_pow(ops64, np.zeros_like(u), 4.0) == 0.0
    trap = trapezoid_x4(1.0 / 64)
    assert lk_norm_pow(ops64, u, 4.0) == pytest.approx(trap, rel=1e-12)
    t = 1.7
    assert lk_norm_pow(ops64, t * u, 4.0) == pytest.approx(t**4 * trap, rel=1e-12)


def test_lk_norm_monotone_in_pointwise_magnitude(mesh64, ops64):
    rng = np.random.default_rng(7)
    u = rng.standard_normal(mesh64.n_nodes)
    bigger = u * 1.3
    assert lk_norm_pow(ops64, bigger, 3.5) > lk_norm_pow(ops64, u, 3.5)


def test_source_vector_examples(mesh64, ops64):
    u = np.sin(np.pi * mesh64.nodes[:, 0])
    u[mesh64.gamma0_nodes] = 0.0
    assert np.all(source_vector(ops64, np.zeros_like(u), 4.0, np.empty_like(u)) == 0.0)
    s_pos = source_vector(ops64, u, 4.0, np.empty_like(u))
    s_neg = source_vector(ops64, -u, 4.0, np.empty_like(u))
    assert np.allclose(s_neg, -s_pos)
    # duality: u . S(u) = int |u|^k, the nodal rule on both sides
    assert u @ s_pos == pytest.approx(lk_norm_pow(ops64, u, 4.0), rel=1e-13)
    assert np.all(s_pos[mesh64.gamma0_nodes] == 0.0)


def test_trace_norm_examples(mesh64, ops64):
    u = mesh64.nodes[:, 0].copy()
    assert boundary_quadratic(ops64, np.zeros_like(u)[mesh64.gamma1_nodes], 1.0) == 0.0
    # the point value 1^2
    assert boundary_quadratic(ops64, u[mesh64.gamma1_nodes], 1.0) == pytest.approx(1.0)

    mesh2 = square_mesh(4)
    ops2 = assemble(mesh2)
    ones = np.ones(mesh2.n_nodes)
    assert boundary_quadratic(ops2, ones[mesh2.gamma1_nodes], 1.0) == pytest.approx(1.0)  # side length x 1


def test_boundary_quadratic_weighting(mesh64, ops64):
    y = np.array([2.0])
    assert boundary_quadratic(ops64, y, 3.0) == pytest.approx(12.0)


def test_stiffness_nullspace_is_constants():
    mesh = square_mesh(3)
    ops = assemble(mesh)
    K = as_dia_matrix(ops.stiffness).toarray()
    ones = np.ones(mesh.n_nodes)
    assert np.abs(K @ ones).max() < 1e-12
    evals = np.linalg.eigvalsh(K)
    assert abs(evals[0]) < 1e-10
    assert evals[1] > 1e-8  # nullspace is exactly one-dimensional


def test_2d_gradient_exact_for_linear_interpolant():
    mesh = square_mesh(5, gamma1=("right", "top", "bottom"))  # Dirichlet: left
    ops = assemble(mesh)
    u = mesh.nodes[:, 0].copy()  # vanishes on the Dirichlet face x = 0
    assert grad_norm_sq(ops, u) == pytest.approx(1.0)  # |grad x|^2 * area
    assert l2_norm_sq(ops, u) == pytest.approx(1.0 / 3.0)  # int x^2 over square


def test_2d_lk_quadrature_polynomial_exactness():
    mesh = square_mesh(3, gamma1=("right", "top", "bottom"))
    ops = assemble(mesh)
    u = mesh.nodes[:, 0].copy()
    # each column's lumped masses sum to the 1D trapezoid weight, so the
    # nodal rule for x^4 is the 1D trapezoid sum: 0.2366255144032922
    assert lk_norm_pow(ops, u, 4.0) == pytest.approx(trapezoid_x4(1.0 / 3), rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError, match="k must exceed 2"):
        PhysicalParams(a=1.0, b=0.0, kappa=0.0, k_exp=2.0, p_c=1.0, q_c=1.0)
    with pytest.raises(ValueError, match=r"\(H1\)"):
        PhysicalParams(a=1.0, b=0.0, kappa=0.0, k_exp=3.0, p_c=0.0, q_c=1.0)
    with pytest.raises(ValueError, match="a must be positive"):
        PhysicalParams(a=0.0, b=0.0, kappa=0.0, k_exp=3.0, p_c=1.0, q_c=1.0)
    p = PhysicalParams(a=2.0, b=0.5, kappa=0.0, k_exp=3.0, p_c=1.0, q_c=1.0)
    # kappa = 0: coefficient is a + b even at u = 0
    assert p.kirchhoff_coefficient(0.0) == pytest.approx(2.5)
    # b = 0: the Kirchhoff terms are exact even where |grad u|^(2 kappa) overflows
    p0 = PhysicalParams(a=2.0, b=0.0, kappa=2.0, k_exp=3.0, p_c=1.0, q_c=1.0)
    assert p0.kirchhoff_coefficient(1e160) == 2.0
    assert p0.kirchhoff_potential(1e160) == 0.0


def test_2d_source_duality():
    mesh = square_mesh(16)
    ops = assemble(mesh)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(mesh.n_nodes)
    u[mesh.gamma0_nodes] = 0.0
    s = source_vector(ops, u, 4.0, np.empty_like(u))
    assert u @ s == pytest.approx(lk_norm_pow(ops, u, 4.0), rel=1e-13)
    assert np.all(s[mesh.gamma0_nodes] == 0.0)
    assert np.allclose(source_vector(ops, -u, 4.0, np.empty_like(u)), -s, rtol=0, atol=1e-15)


def _exact_lk(mesh, u, k):
    """int |u_h|^k for an even integer k, in closed form: on a d-simplex T,
    int (sum_i u_i lambda_i)^k = |T| d! k! / (k + d)! h_k(u), where h_k is
    the complete homogeneous symmetric polynomial of the vertex values."""
    d = mesh.dimension
    verts = mesh.nodes[mesh.elements]
    volume = np.abs(np.linalg.det(verts[:, 1:, :] - verts[:, :1, :])) / math.factorial(d)
    vals = u[mesh.elements]
    h_k = sum(np.prod(vals[:, list(c)], axis=1)
              for c in itertools.combinations_with_replacement(range(d + 1), k))
    return float(volume @ h_k) * math.factorial(d) * math.factorial(k) / math.factorial(k + d)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("k_exp", [4, 6])
def test_nodal_lk_bounds_the_exact_integral_from_above(dimension, k_exp):
    # lk integrates the P1 interpolant of |u_h|^k, which lies above the
    # convex |u_h|^k on every element
    mesh = interval_mesh(32) if dimension == 1 else square_mesh(8)
    ops = assemble(mesh)
    x = mesh.nodes[:, 0].copy()
    assert _exact_lk(mesh, x, 4) == pytest.approx(0.2, rel=1e-12)  # the oracle: int x^4
    rng = np.random.default_rng(10 * k_exp + dimension)
    for _ in range(5):
        u = rng.standard_normal(mesh.n_nodes)
        assert lk_norm_pow(ops, u, float(k_exp)) >= _exact_lk(mesh, u, k_exp)


def _nodal_errors(meshes, field, k_exp):
    """Per mesh, the errors of lk(I_h u) against int |u|^k and of
    x . S(I_h u) against int x |u|^{k-2} u, both by scipy quadrature."""
    integrands = (lambda *p: abs(field(*p)) ** k_exp,
                  lambda *p: p[0] * abs(field(*p)) ** (k_exp - 2.0) * field(*p))
    if meshes[0].dimension == 1:
        exact = [quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
                 for f in integrands]
    else:
        exact = [dblquad(lambda y, x, f=f: f(x, y), 0.0, 1.0, 0.0, 1.0,
                         epsabs=1e-13, epsrel=1e-13)[0] for f in integrands]
    errors = []
    for mesh in meshes:
        ops = assemble(mesh)
        u = field(*mesh.nodes.T)
        u[mesh.gamma0_nodes] = 0.0
        pairing = mesh.nodes[:, 0] @ source_vector(ops, u, k_exp, np.empty_like(u))
        errors.append((abs(lk_norm_pow(ops, u, k_exp) - exact[0]), abs(pairing - exact[1])))
    return np.array(errors)


@pytest.mark.parametrize("dimension", [1, 2])
def test_nodal_rule_is_second_order(dimension):
    # sin(3 pi x / 4), not sin(pi x / 2): the odd derivatives of the latter's
    # integrands vanish at both ends, leaving the trapezoid error at roundoff
    if dimension == 1:
        meshes = [interval_mesh(n) for n in (16, 32, 64, 128)]
        errors = _nodal_errors(meshes, lambda x: np.sin(0.75 * np.pi * x), 4.0)
    else:
        meshes = [square_mesh(n) for n in (8, 16, 32, 64)]
        errors = _nodal_errors(
            meshes, lambda x, y: np.sin(0.75 * np.pi * x) * np.sin(np.pi * y), 4.0)
    assert np.all(errors[:-1] / errors[1:] >= 3.5)  # measured 3.92-4.02


def test_nodal_pairing_error_scales_as_h2_through_a_sign_change():
    # k = 3 and u = sin(1.5 pi x) changes sign: the kink of |u| u falls at a
    # different place between nodes on each level, so the pairing's ratios
    # are erratic (2.5, 4.9, 3.6); its error times n^2 stays within a factor 2
    ns = np.array([16, 32, 64, 128])
    errors = _nodal_errors([interval_mesh(n) for n in ns],
                           lambda x: np.sin(1.5 * np.pi * x), 3.0)
    scaled = errors[:, 1] * ns**2
    assert scaled.max() <= 2.0 * scaled.min()
    assert np.all(errors[:-1, 0] / errors[1:, 0] >= 3.5)


def _axis_forms(n_cells, length, pinned):
    """Dense 1D P1 stiffness and lumped mass of [0, length] on the indices
    that ``pinned`` (a subset of {0, n_cells}) leaves free."""
    h = length / n_cells
    K = (2.0 * np.eye(n_cells + 1) - np.eye(n_cells + 1, k=1) - np.eye(n_cells + 1, k=-1)) / h
    K[0, 0] = K[-1, -1] = 1.0 / h
    d = np.full(n_cells + 1, h)
    d[0] = d[-1] = h / 2.0
    free = [i for i in range(n_cells + 1) if i not in pinned]
    return K[np.ix_(free, free)], np.diag(d[free])


KRONECKER_MESHES = {
    "1d-16-right": lambda: interval_mesh(16),
    "1d-9-pinned-ends": lambda: interval_mesh(9, length=1.3, gamma1=()),
    "2d-64x64-right": lambda: square_mesh(64),
    "2d-48x32-right-top": lambda: rect_mesh((48, 32), ("right", "top"), extent=(1.5, 1.0)),
    "2d-5x7-left-bottom-top": lambda: rect_mesh((5, 7), ("left", "bottom", "top")),
    "2d-6x5-left-right": lambda: rect_mesh((6, 5), ("left", "right"), extent=(0.7, 1.1)),
}


@pytest.mark.parametrize("mesh_name", sorted(KRONECKER_MESHES))
def test_free_stiffness_is_the_kronecker_sum_of_the_axis_forms(mesh_name):
    # K on the free nodes (iy-major) is D_y (x) K_x + K_y (x) D_x, the
    # identity behind the per-axis eigenpairs; a 1D mesh is the case
    # D_y = [1], K_y = [0]
    mesh = KRONECKER_MESHES[mesh_name]()
    spec = mesh.spec
    ops = assemble(mesh)
    free = mesh.free_nodes
    k_free = as_dia_matrix(ops.stiffness).tocsr()[np.ix_(free, free)].toarray()
    faces = spec.gamma0_faces
    nx = spec.resolution[0]
    k_x, d_x = _axis_forms(nx, spec.extent[0],
                           {i for face, i in (("left", 0), ("right", nx)) if face in faces})
    k_y, d_y = np.zeros((1, 1)), np.ones((1, 1))
    if mesh.dimension == 2:
        ny = spec.resolution[1]
        k_y, d_y = _axis_forms(ny, spec.extent[1],
                               {i for face, i in (("bottom", 0), ("top", ny)) if face in faces})
    tensor = np.kron(d_y, k_x) + np.kron(k_y, d_x)
    assert np.abs(k_free - tensor).max() <= 1e-14 * np.abs(k_free).max()
    # the closed-form axis eigenpairs diagonalise these forms: V^T D V = I
    # and V^T K V = diag(values), for pinned and free ends alike
    for modes, k_axis, d_axis in zip(ops.axes, (k_y, k_x), (d_y, d_x)):
        v = modes.vectors
        np.testing.assert_allclose(v.T @ d_axis @ v, np.eye(len(v)), rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(v.T @ k_axis @ v, np.diag(modes.values), rtol=0.0,
                                   atol=1e-13 * modes.values.max(initial=1.0))
        assert np.all(np.diff(modes.values) > 0)


# the meshes above, the ones of the well-constant tests and two of the CFL tests
STENCIL_MESHES = {**KRONECKER_MESHES, "1d-32": lambda: interval_mesh(32),
                  "2d-8x8": lambda: square_mesh(8), "2d-6x6-right": lambda: square_mesh(6),
                  "2d-4x6-right-top": lambda: rect_mesh((4, 6), ("right", "top"))}


def _offsets(matrix):
    coo = matrix.tocoo()
    return np.unique(coo.col - coo.row).tolist()


def _power_of_two_cells(mesh):
    """Whether every cell size is a power of two, so that numpy.linspace
    places the nodes exactly; an interval's forms read no coordinate."""
    return mesh.dimension == 1 or all(
        math.frexp(e / r)[0] == 0.5 for e, r in zip(mesh.spec.extent, mesh.spec.resolution))


# Largest distances from the exact element sum over the non-dyadic meshes
# above, in units of the last place of each entry: the stencils read
# 1.26 (M on 5x7), the element sum of linspace coordinates 5.30 (M on 6x6).
STENCIL_ULPS, ELEMENT_SUM_ULPS = 2.0, 6.0


@pytest.mark.parametrize("mesh_name", sorted(STENCIL_MESHES))
def test_operators_hold_the_stencil_alone_and_give_the_element_sum_products(mesh_name):
    # K's couplings across the diagonal edges are zero in every element,
    # and without them K is the 5-point stencil.  K and M are stored by
    # their diagonals; dia_product's products with them are bitwise those
    # of the summed element matrices in CSR, for a strided view too, where
    # every cell size is a power of two.  Elsewhere the element sum reads
    # rounded coordinates: there both routes are held to the exact element
    # sum entry by entry, and the products to the stencils' own CSR forms.
    # The products with a run's record operator are bitwise those of its
    # blocks summed in CSR.
    mesh = STENCIL_MESHES[mesh_name]()
    ops = assemble(mesh)
    k_sum, m_sum = element_sum_forms(mesh)
    if mesh.dimension == 1:
        stencil = [-1, 0, 1]
        assert _offsets(as_dia_matrix(ops.mass)) == [-1, 0, 1]
    else:
        row = mesh.spec.resolution[0] + 1
        stencil = [-row, -1, 0, 1, row]
        assert len(_offsets(as_dia_matrix(ops.mass))) == 7
        assert len(_offsets(k_sum)) == 7  # the two diagonals of zero sums
    assert _offsets(as_dia_matrix(ops.stiffness)) == stencil
    # DIA stores padding zeros, so K's diagonals are those of the stencil alone
    assert ops.stiffness.offsets.tolist() == stencil
    assert ops.mass.offsets.tolist() == _offsets(as_dia_matrix(ops.mass))
    if not _power_of_two_cells(mesh):
        k_exact, m_exact = exact_element_sum(mesh)
        assert ulps_from_exact(as_dia_matrix(ops.stiffness), k_exact) <= STENCIL_ULPS
        assert ulps_from_exact(as_dia_matrix(ops.mass), m_exact) <= STENCIL_ULPS
        assert ulps_from_exact(k_sum, k_exact) <= ELEMENT_SUM_ULPS
        assert ulps_from_exact(m_sum, m_exact) <= ELEMENT_SUM_ULPS
        k_sum, m_sum = as_dia_matrix(ops.stiffness).tocsr(), as_dia_matrix(ops.mass).tocsr()
    params = PhysicalParams(a=1.0, b=1.0, kappa=1.0, k_exp=4.0, p_c=0.7, q_c=1.3)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    record = AcousticClosure(ops, exp_kernel(), params, cfg).form.operator
    w1 = mesh.gamma1_weights
    record_csr = scipy.sparse.block_diag(
        [m_sum, m_sum, scipy.sparse.diags(params.q_c * w1),
         scipy.sparse.diags(params.p_c * w1)], format="csr")
    pairs = [(k_sum, ops.stiffness), (m_sum, ops.mass), (record_csr, record)]
    rng = np.random.default_rng(5)
    for _ in range(20):
        for csr, dia in pairs:
            assert csr.has_sorted_indices  # a row's terms in column order
            n = csr.shape[0]
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            product = (csr @ x).view(np.int64)
            for operand in (x, np.repeat(x, 2)[::2]):
                got = assembly.dia_product(dia, operand, np.empty(n))
                assert np.array_equal(product, got.view(np.int64))


def test_the_kernel_loader_leaves_sys_modules_as_it_found_it(monkeypatch):
    # the extension's init enters it in sys.modules; the loader puts back
    # the entry it found there, scipy.sparse's own, and leaves none where
    # it found none
    name = "scipy.sparse._sparsetools"
    registered = sys.modules[name]
    assert assembly._load_sparsetools() == (assembly.csr_matvec, assembly.dia_matvec)
    assert sys.modules[name] is registered
    monkeypatch.delitem(sys.modules, name)
    assert assembly._load_sparsetools() == (assembly.csr_matvec, assembly.dia_matvec)
    assert name not in sys.modules


def test_the_kernel_loader_names_every_path_it_searched(monkeypatch, tmp_path):
    # one path, no fallback import: a scipy without the extension's file is
    # an ImportError that lists each candidate file
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match="scipy.sparse._sparsetools not found") as exc:
        assembly._load_sparsetools()
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        assert str(tmp_path / "sparse" / f"_sparsetools{suffix}") in str(exc.value)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="no scipy package on sys.path"):
        assembly._load_sparsetools()


PARITY_MESHES = {
    "1d-64-right": lambda: interval_mesh(64),
    "2d-64x64-right": lambda: square_mesh(64),
    "2d-5x7-left-bottom-top-free-corners": lambda: rect_mesh((5, 7), ("left", "bottom", "top")),
}


@pytest.mark.parametrize("mesh_name", sorted(PARITY_MESHES))
def test_own_arrays_give_scipys_containers_and_products_bitwise(mesh_name):
    # the package holds K, M, the record operator and the closure map in its
    # own arrays and calls scipy's two compiled kernels, loaded from their
    # file.  In a process that has imported scipy.sparse as well, the
    # products equal those of scipy's dia_matrix and csr_matrix bitwise,
    # and the closure map's CSR arrays are those scipy builds from the
    # map's triplets, listed by (output row, input column, node)
    assert "scipy.sparse" in sys.modules
    mesh = PARITY_MESHES[mesh_name]()
    ops = assemble(mesh)
    params = PhysicalParams(a=1.0, b=1.0, kappa=1.0, k_exp=4.0, p_c=0.7, q_c=1.3)
    closure = AcousticClosure(ops, exp_kernel(), params, StepperConfig(dt=1e-3, t_end=1e-2))
    record = closure.form.operator
    rng = np.random.default_rng(11)
    for stencil in (ops.stiffness, ops.mass, record):
        assert stencil.offsets.dtype == np.int32 and np.all(np.diff(stencil.offsets) > 0)
        reference = as_dia_matrix(stencil)
        n = stencil.shape[0]
        for _ in range(5):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            got = assembly.dia_product(stencil, x, np.empty(n))
            assert (reference @ x).tobytes() == got.tobytes()

    indptr, indices, data = closure.map
    g1 = mesh.gamma1_nodes
    m, k = len(g1), np.arange(len(g1))
    owner = np.repeat(np.arange(4 * m), np.diff(indptr))
    entry = dict(zip(zip(owner.tolist(), indices.tolist()), data.tolist()))
    f, prev = closure.forcing.start, closure.previous.start
    shape = (4, 5, m)
    rows = np.broadcast_to(np.arange(4)[:, None, None] * m + k, shape).ravel()
    cols = np.broadcast_to(np.array([closure.v.start + g1, f + k, f + m + k,
                                     prev + k, prev + m + k]), shape).ravel()
    values = [entry[rc] for rc in zip(rows.tolist(), cols.tolist())]
    assert len(values) == len(entry) == 20 * m
    reference = scipy.sparse.csr_matrix((values, (rows, cols)), shape=(4 * m, closure.size))
    for own, scipys in ((indptr, reference.indptr), (indices, reference.indices),
                        (data, reference.data)):
        assert own.dtype == scipys.dtype and own.tobytes() == scipys.tobytes()
    for _ in range(5):
        x = rng.standard_normal(closure.size) * 10.0 ** rng.uniform(-8.0, 8.0, closure.size)
        out = np.zeros(4 * m)
        assembly._csr_accumulate(indptr, indices, data, x, out)
        assert out.tobytes() == (reference @ x).tobytes()


@pytest.mark.parametrize("mesh_name", sorted(name for name in STENCIL_MESHES
                                             if name.startswith("2d")))
def test_lumped_mass_in_closed_form(mesh_name):
    # m_i = int phi_i is a third of the area of the triangles around node
    # i: hx hy inside, half that on an edge, and at the corners a third or a
    # sixth, as the corner lies in two triangles (bottom left, top right)
    # or one; to 2 eps relative (0.75 eps measured on 4x6)
    mesh = STENCIL_MESHES[mesh_name]()
    nx, ny = mesh.spec.resolution
    cell = math.prod(e / r for e, r in zip(mesh.spec.extent, mesh.spec.resolution))
    iy, ix = np.divmod(np.arange(mesh.n_nodes), nx + 1)
    expected = np.where((ix % nx == 0) | (iy % ny == 0), cell / 2.0, cell)
    expected[[0, mesh.n_nodes - 1]] = cell / 3.0
    expected[[nx, ny * (nx + 1)]] = cell / 6.0
    np.testing.assert_allclose(assemble(mesh).mass_lumped, expected,
                               rtol=2 * np.finfo(float).eps, atol=0.0)


def _dense_lam_max(ops):
    free = ops.mesh.free_nodes
    k_free = as_dia_matrix(ops.stiffness).tocsr()[np.ix_(free, free)].toarray()
    return scipy.linalg.eigh(k_free, np.diag(ops.mass_lumped[free]), eigvals_only=True)[-1]


CFL_MESHES = {
    "1d-8-right": lambda: interval_mesh(8),
    "1d-9-pinned-ends": lambda: interval_mesh(9, length=1.3, gamma1=()),
    "2d-6x6-right": lambda: square_mesh(6),
    "2d-6x5-left-right": lambda: rect_mesh((6, 5), ("left", "right"), extent=(0.7, 1.1)),
    "2d-4x6-right-top-free-corner": lambda: rect_mesh((4, 6), ("right", "top")),
    "2d-5x7-left-bottom-top-free-corners": lambda: rect_mesh((5, 7), ("left", "bottom", "top")),
    # a heavier corner alone, a lighter corner alone, a non-square extent,
    # and two free corners of opposite sign with one free face between them
    "2d-6x5-left-bottom-free-corner": lambda: rect_mesh((6, 5), ("left", "bottom")),
    "2d-5x6-left-top-free-corner": lambda: rect_mesh((5, 6), ("left", "top")),
    "2d-24x16-right-top-free-corner": lambda: rect_mesh((24, 16), ("right", "top"),
                                                         extent=(1.5, 1.0)),
    "2d-12x10-left-right-top-free-corners": lambda: rect_mesh((12, 10),
                                                               ("left", "right", "top")),
}


# every mesh of this file, and a 3 x 4 rectangle under each choice of
# Dirichlet faces (at least one) in 1D and 2D
AXIS_MESHES = {**STENCIL_MESHES, **CFL_MESHES,
               **{"1d-5-" + "-".join(faces): functools.partial(interval_mesh, 5, gamma1=faces)
                  for faces in [(), ("left",), ("right",)]},
               **{"2d-3x4-" + "-".join(faces): functools.partial(rect_mesh, (3, 4), faces)
                  for k in range(4) for faces in itertools.combinations(
                      ("left", "right", "bottom", "top"), k)}}


@pytest.mark.parametrize("mesh_name", sorted(AXIS_MESHES))
def test_axis_indices_are_the_distinct_indices_of_the_free_nodes(mesh_name):
    # assemble reads each axis's free indices off the Dirichlet faces; they
    # are bitwise the distinct ix and iy of the free nodes.  With every
    # corner pinned, the CFL eigenvalue is bitwise the sum of the axes'
    # largest eigenvalues
    mesh = AXIS_MESHES[mesh_name]()
    ops = assemble(mesh)
    y, x = ops.axes
    stride = mesh.spec.resolution[0] + 1
    for modes, indices in ((x, mesh.free_nodes % stride), (y, mesh.free_nodes // stride)):
        distinct = np.unique(indices)
        assert modes.free.dtype == distinct.dtype
        assert modes.free.tobytes() == distinct.tobytes()
    nx, ny = (*mesh.spec.resolution, 0)[:2]
    corners = [0, nx, (nx + 1) * ny, (nx + 1) * ny + nx]
    if mesh.dimension == 1 or not np.isin(corners, mesh.free_nodes).any():
        assert ops.lam_max.hex() == float(y.values[-1] + x.values[-1]).hex()


@pytest.mark.parametrize("mesh_name", sorted(CFL_MESHES))
def test_cfl_eigenvalue_is_exact(mesh_name):
    # the largest eigenvalue of M_lump^{-1} K on the free nodes, with no
    # margin (the stepper owns those), whether or not a corner is free
    ops = assemble(CFL_MESHES[mesh_name]())
    assert ops.lam_max == pytest.approx(_dense_lam_max(ops), rel=1e-12, abs=0.0)


def test_cfl_eigenvalue_refuses_the_tensor_sum_at_free_corners():
    # the free corners' lumped mass is not D_y (x) D_x, and the sum of the
    # axes' largest eigenvalues falls below the true largest one
    ops = assemble(rect_mesh((5, 7), ("left", "bottom", "top")))
    y, x = ops.axes
    tensor_sum = y.values[-1] + x.values[-1]
    exact = _dense_lam_max(ops)
    assert tensor_sum == pytest.approx(293.55, abs=0.01)
    assert exact == pytest.approx(308.67, abs=0.01)
    assert ops.lam_max == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert tensor_sum < ops.lam_max
