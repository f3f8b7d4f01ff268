import sys

import numpy as np
import pytest
import scipy.sparse

from viscowave import (
    DomainSpec,
    PhysicalParams,
    assemble,
    build_kernel,
    build_mesh,
    make_rate,
)
from viscowave import assembly
from viscowave.kernels import ConstantRate, RelaxationKernel


def as_dia_matrix(stencil):
    """scipy's ``dia_matrix`` of an ``assembly.Stencil``, for the tests that
    read a form through scipy's matrix API (entries, slices, products)."""
    return scipy.sparse.dia_matrix((stencil.data, stencil.offsets), shape=stencil.shape)


def interval_mesh(resolution=64, length=1.0, gamma1=("right",)):
    spec = DomainSpec(
        dimension=1,
        extent=(length,),
        gamma1_faces=frozenset(gamma1),
        resolution=(resolution,),
    )
    return build_mesh(spec)


def square_mesh(resolution=16, extent=(1.0, 1.0), gamma1=("right",)):
    return rect_mesh((resolution, resolution), gamma1, extent)


def rect_mesh(resolution, gamma1, extent=(1.0, 1.0)):
    spec = DomainSpec(dimension=2, extent=extent, gamma1_faces=frozenset(gamma1),
                      resolution=resolution)
    return build_mesh(spec)


def default_params(**overrides):
    base = dict(a=2.0, b=1.0, kappa=1.0, k_exp=4.0, p_c=1.0, q_c=1.0)
    base.update(overrides)
    return PhysicalParams(**base)


def trapezoid_x4(h):
    """Trapezoid sum of x^4 on [0, 1] with step h, the nodal rule's value of
    int |x|^4; Euler-Maclaurin is exact for a quartic."""
    return 0.2 + h**2 / 3 - h**4 / 30


def exp_kernel(alpha=1.0, g0=1.0, a=2.0):
    return build_kernel(make_rate("constant", alpha), g0, a)


def zero_kernel(a):
    """g = 0: the memory-free system of the reference tests.  (H2) asks for
    g(0) > 0, so ``build_kernel`` rejects it and it is built by hand; every
    memory quantity of a run with it is exactly zero and l = a."""
    rate = ConstantRate(1.0)
    return RelaxationKernel(rate=rate, g0=0.0, tail_mass=0.0, l_value=a,
                            expansion=rate.exp_sum(None).scaled(0.0))


@pytest.fixture
def mesh64():
    return interval_mesh(64)


@pytest.fixture
def ops64(mesh64):
    return assemble(mesh64)


def sine_profile(mesh, amplitude):
    u = amplitude * np.sin(0.5 * np.pi * mesh.nodes[:, 0] / mesh.spec.extent[0])
    u[mesh.gamma0_nodes] = 0.0
    return u


@pytest.fixture
def products(monkeypatch):
    """The matrix of every ``assembly.dia_product`` call made while the
    test runs, in call order, through every module of the package that
    binds it."""
    calls = []
    product = assembly.dia_product

    def counted(A, x, out):
        calls.append(A)
        return product(A, x, out)

    for name, module in list(sys.modules.items()):
        if name.startswith("viscowave") and getattr(module, "dia_product", None) is product:
            monkeypatch.setattr(module, "dia_product", counted)
    return calls
