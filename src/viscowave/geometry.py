"""Meshes for intervals and axis-aligned rectangles with a split boundary.

The boundary is partitioned face-wise into a Dirichlet part (u = 0) and an
"acoustic" part carrying the boundary displacement field.  Only two shapes
are supported: an interval [0, L] and a rectangle [0, Lx] x [0, Ly], both
meshed uniformly (segments in 1D, right triangles in 2D) with deterministic
node ordering so runs are bit-reproducible.

Conventions:
  - faces are named "left"/"right" (1D) and "left"/"right"/"bottom"/"top" (2D);
  - a node lying on any Dirichlet face is Dirichlet-constrained, so corners
    shared between the two boundary parts are pinned (Dirichlet wins);
  - each acoustic node carries a boundary-measure weight.  In 1D this is a
    point weight of 1.  In 2D the weights are trapezoid weights along the
    acoustic sides, with the mass of pinned corner nodes pushed to their
    free neighbour so the weights always sum to the total side length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FACES_1D = ("left", "right")
FACES_2D = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class DomainSpec:
    """Geometry request: shape, extent, acoustic faces, elements per axis."""

    dimension: int
    extent: tuple[float, ...]
    gamma1_faces: frozenset[str] = field(default_factory=frozenset)
    resolution: tuple[int, ...] = (2,)

    def __post_init__(self):
        object.__setattr__(self, "extent", tuple(float(e) for e in self.extent))
        object.__setattr__(self, "resolution", tuple(int(r) for r in self.resolution))
        object.__setattr__(self, "gamma1_faces", frozenset(self.gamma1_faces))
        errors = self.validation_errors()
        if errors:
            raise ValueError("; ".join(errors))

    def validation_errors(self) -> list[str]:
        errs = []
        if self.dimension not in (1, 2):
            errs.append(f"dimension must be 1 or 2, got {self.dimension}")
            return errs
        faces = FACES_1D if self.dimension == 1 else FACES_2D
        if len(self.extent) != self.dimension:
            errs.append(f"extent needs {self.dimension} entries, got {len(self.extent)}")
        if any(e <= 0 for e in self.extent):
            errs.append(f"extent must be strictly positive, got {self.extent}")
        if len(self.resolution) != self.dimension:
            errs.append(
                f"resolution needs {self.dimension} entries, got {len(self.resolution)}"
            )
        if any(r < 2 for r in self.resolution):
            errs.append(f"resolution must be >= 2 elements per axis, got {self.resolution}")
        unknown = self.gamma1_faces - set(faces)
        if unknown:
            errs.append(f"unknown gamma1 faces {sorted(unknown)}; valid: {faces}")
        if not (set(faces) - self.gamma1_faces):
            errs.append("Dirichlet part is empty: at least one face must stay out of gamma1")
        return errs

    @property
    def gamma0_faces(self) -> frozenset[str]:
        faces = FACES_1D if self.dimension == 1 else FACES_2D
        return frozenset(faces) - self.gamma1_faces


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh with node classification and acoustic boundary weights.

    ``gamma1_nodes`` are always free (never Dirichlet-pinned) and
    ``gamma1_weights[i]`` is the boundary measure attached to
    ``gamma1_nodes[i]``; the weights sum to the measure of the acoustic part
    (1 per endpoint in 1D, total side length in 2D).
    """

    spec: DomainSpec
    nodes: np.ndarray          # (n_nodes, dim)
    elements: np.ndarray       # (n_elems, dim + 1), int indices
    free_nodes: np.ndarray     # int indices
    gamma0_nodes: np.ndarray   # int indices
    gamma1_nodes: np.ndarray   # int indices, subset of free_nodes
    gamma1_weights: np.ndarray # aligned with gamma1_nodes

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dimension(self) -> int:
        return self.spec.dimension


def build_mesh(spec: DomainSpec) -> Mesh:
    """Build the uniform mesh for ``spec`` (deterministic node ordering)."""
    if spec.dimension == 1:
        return _build_interval(spec)
    return _build_rectangle(spec)


def _build_interval(spec: DomainSpec) -> Mesh:
    (length,) = spec.extent
    (m,) = spec.resolution
    nodes = np.linspace(0.0, length, m + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(m), np.arange(1, m + 1)])

    gamma0 = []
    gamma1 = []
    if "left" in spec.gamma1_faces:
        gamma1.append(0)
    else:
        gamma0.append(0)
    if "right" in spec.gamma1_faces:
        gamma1.append(m)
    else:
        gamma0.append(m)

    gamma0 = np.array(sorted(gamma0), dtype=int)
    gamma1 = np.array(sorted(gamma1), dtype=int)
    free = np.setdiff1d(np.arange(m + 1), gamma0)
    weights = np.ones(len(gamma1))  # point evaluation on an endpoint
    return Mesh(
        spec=spec,
        nodes=nodes,
        elements=elements,
        free_nodes=free,
        gamma0_nodes=gamma0,
        gamma1_nodes=gamma1,
        gamma1_weights=weights,
    )


def _build_rectangle(spec: DomainSpec) -> Mesh:
    lx, ly = spec.extent
    nx, ny = spec.resolution
    hx, hy = lx / nx, ly / ny

    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    # node index = iy * (nx + 1) + ix
    xx, yy = np.meshgrid(xs, ys)
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    # cell (ix, iy) has corners v00 = iy * (nx + 1) + ix, v10 = v00 + 1,
    # v01 = v00 + nx + 1 and v11 = v01 + 1, and is cut into the triangles
    # (v00, v10, v11) and (v00, v11, v01); cells run x-fastest
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)[None, :]).ravel()
    v10, v01 = v00 + 1, v00 + nx + 1
    v11 = v01 + 1
    elements = np.stack([np.column_stack([v00, v10, v11]),
                         np.column_stack([v00, v11, v01])], axis=1).reshape(-1, 3)

    face_nodes = {
        "left": np.arange(ny + 1) * (nx + 1),
        "right": np.arange(ny + 1) * (nx + 1) + nx,
        "bottom": np.arange(nx + 1),
        "top": ny * (nx + 1) + np.arange(nx + 1),
    }
    face_h = {"left": hy, "right": hy, "bottom": hx, "top": hx}

    pinned = np.zeros(nodes.shape[0], dtype=bool)
    for face in spec.gamma0_faces:
        pinned[face_nodes[face]] = True

    # Trapezoid weights per acoustic side; weights of Dirichlet-pinned side
    # ends are pushed to the adjacent free node so the sum stays the side
    # length.  Sides have >= 3 nodes (resolution >= 2), so the neighbour of a
    # pinned corner is an interior side node and therefore free.
    weight = np.zeros(nodes.shape[0])
    acoustic = np.zeros(nodes.shape[0], dtype=bool)
    for face in sorted(spec.gamma1_faces):
        side = face_nodes[face]
        h = face_h[face]
        w = np.full(len(side), h)
        w[0] = w[-1] = h / 2.0
        if pinned[side[0]]:
            w[1] += w[0]
            w[0] = 0.0
        if pinned[side[-1]]:
            w[-2] += w[-1]
            w[-1] = 0.0
        weight[side] += w
        acoustic[side] = True

    gamma1 = np.flatnonzero(acoustic & ~pinned)
    return Mesh(
        spec=spec,
        nodes=nodes,
        elements=elements,
        free_nodes=np.flatnonzero(~pinned),
        gamma0_nodes=np.flatnonzero(pinned),
        gamma1_nodes=gamma1,
        gamma1_weights=weight[gamma1],
    )
