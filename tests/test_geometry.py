import numpy as np
import pytest

from viscowave import DomainSpec, build_mesh


def test_interval_four_elements_layout():
    spec = DomainSpec(1, (1.0,), frozenset({"right"}), (4,))
    mesh = build_mesh(spec)
    assert np.allclose(mesh.nodes.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.gamma0_nodes.tolist() == [0]
    assert mesh.gamma1_nodes.tolist() == [4]
    assert mesh.gamma1_weights.tolist() == [1.0]
    assert mesh.elements.shape == (4, 2)


def test_unit_square_2x2_layout():
    spec = DomainSpec(2, (1.0, 1.0), frozenset({"right"}), (2, 2))
    mesh = build_mesh(spec)
    assert mesh.n_nodes == 9
    assert mesh.elements.shape == (8, 3)
    # Dirichlet part: left, bottom, top sides (corners of the right side
    # belong to bottom/top and are pinned)
    assert len(mesh.gamma0_nodes) == 7
    assert mesh.gamma1_nodes.tolist() == [5]  # the midside node at (1, 0.5)
    assert np.allclose(mesh.nodes[5], [1.0, 0.5])
    assert mesh.gamma1_weights.sum() == pytest.approx(1.0)


def test_empty_dirichlet_part_rejected():
    with pytest.raises(ValueError, match="Dirichlet"):
        DomainSpec(1, (1.0,), frozenset({"left", "right"}), (4,))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dimension=1, extent=(-1.0,), gamma1_faces=frozenset(), resolution=(4,)),
        dict(dimension=1, extent=(1.0,), gamma1_faces=frozenset(), resolution=(1,)),
        dict(dimension=1, extent=(1.0,), gamma1_faces=frozenset({"top"}), resolution=(4,)),
        dict(dimension=3, extent=(1.0,), gamma1_faces=frozenset(), resolution=(4,)),
        dict(dimension=2, extent=(1.0,), gamma1_faces=frozenset(), resolution=(4, 4)),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        DomainSpec(**kwargs)


def test_node_classification_is_partition():
    for spec in [
        DomainSpec(1, (2.0,), frozenset({"left"}), (8,)),
        DomainSpec(2, (1.0, 2.0), frozenset({"right", "top"}), (4, 6)),
    ]:
        mesh = build_mesh(spec)
        assert len(mesh.free_nodes) + len(mesh.gamma0_nodes) == mesh.n_nodes
        assert not np.intersect1d(mesh.free_nodes, mesh.gamma0_nodes).size
        assert np.isin(mesh.gamma1_nodes, mesh.free_nodes).all()


def test_refinement_doubles_elements_and_keeps_gamma1_measure():
    s1 = DomainSpec(1, (1.0,), frozenset({"right"}), (8,))
    s2 = DomainSpec(1, (1.0,), frozenset({"right"}), (16,))
    m1, m2 = build_mesh(s1), build_mesh(s2)
    assert m2.elements.shape[0] == 2 * m1.elements.shape[0]
    assert m1.gamma1_weights.sum() == m2.gamma1_weights.sum() == 1.0

    s1 = DomainSpec(2, (1.0, 1.0), frozenset({"right"}), (4, 4))
    s2 = DomainSpec(2, (1.0, 1.0), frozenset({"right"}), (8, 8))
    m1, m2 = build_mesh(s1), build_mesh(s2)
    assert m2.elements.shape[0] == 4 * m1.elements.shape[0]
    assert m1.gamma1_weights.sum() == pytest.approx(m2.gamma1_weights.sum())


def test_two_adjacent_acoustic_sides_share_the_free_corner():
    spec = DomainSpec(2, (1.0, 2.0), frozenset({"right", "top"}), (4, 4))
    mesh = build_mesh(spec)
    # measure = Ly + Lx = 2 + 1
    assert mesh.gamma1_weights.sum() == pytest.approx(3.0)
    corner = np.where(
        (mesh.nodes[:, 0] == 1.0) & (mesh.nodes[:, 1] == 2.0)
    )[0][0]
    assert corner in mesh.gamma1_nodes
    assert corner in mesh.free_nodes


def test_deterministic_construction():
    spec = DomainSpec(2, (1.0, 1.0), frozenset({"right"}), (6, 6))
    a, b = build_mesh(spec), build_mesh(spec)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.elements, b.elements)
    assert np.array_equal(a.gamma1_weights, b.gamma1_weights)


def _explicit_rectangle(spec):
    """Node lists and weights of the rectangle mesh, one node and one cell at
    a time: the reference for the index arithmetic of ``build_mesh``."""
    (lx, ly), (nx, ny) = spec.extent, spec.resolution

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    elements = []
    for iy in range(ny):
        for ix in range(nx):
            v00, v10, v01, v11 = nid(ix, iy), nid(ix + 1, iy), nid(ix, iy + 1), nid(ix + 1, iy + 1)
            elements += [(v00, v10, v11), (v00, v11, v01)]
    faces = {
        "left": [nid(0, iy) for iy in range(ny + 1)],
        "right": [nid(nx, iy) for iy in range(ny + 1)],
        "bottom": [nid(ix, 0) for ix in range(nx + 1)],
        "top": [nid(ix, ny) for ix in range(nx + 1)],
    }
    face_h = {"left": ly / ny, "right": ly / ny, "bottom": lx / nx, "top": lx / nx}
    gamma0 = {n for face in spec.gamma0_faces for n in faces[face]}
    weights = {}
    for face in sorted(spec.gamma1_faces):
        side, h = faces[face], face_h[face]
        w = [h / 2.0] + [h] * (len(side) - 2) + [h / 2.0]
        if side[0] in gamma0:
            w[1], w[0] = w[1] + w[0], 0.0
        if side[-1] in gamma0:
            w[-2], w[-1] = w[-2] + w[-1], 0.0
        for node, wt in zip(side, w):
            if node not in gamma0:
                weights[node] = weights.get(node, 0.0) + wt
    n_nodes = (nx + 1) * (ny + 1)
    gamma1 = sorted(weights)
    return {
        "elements": np.array(elements),
        "free_nodes": np.array([n for n in range(n_nodes) if n not in gamma0]),
        "gamma0_nodes": np.array(sorted(gamma0)),
        "gamma1_nodes": np.array(gamma1),
        "gamma1_weights": np.array([weights[n] for n in gamma1]),
    }


@pytest.mark.parametrize("resolution, gamma1", [
    ((3, 2), ("right", "top")),
    ((3, 2), ("left", "bottom")),
    ((4, 6), ("left", "right")),
    ((4, 6), ("bottom", "top")),
    ((4, 6), ("right", "top")),
])
def test_rectangle_matches_the_explicit_construction(resolution, gamma1):
    spec = DomainSpec(2, (1.0, 2.0), frozenset(gamma1), resolution)
    mesh = build_mesh(spec)
    for name, want in _explicit_rectangle(spec).items():
        got = getattr(mesh, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    nx, ny = resolution
    xs, ys = np.meshgrid(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 2.0, ny + 1))
    assert np.array_equal(mesh.nodes, np.column_stack([xs.ravel(), ys.ravel()]))
