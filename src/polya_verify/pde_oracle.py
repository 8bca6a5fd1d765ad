"""Independent finite-element oracle for torsion and the principal eigenvalue.

Conforming P1 elements on uniformly red-refined meshes: every triangle
splits into four congruent children, so child elements stay similar to the
base and anisotropy is represented faithfully.  The eigenproblem uses the
consistent mass matrix (variational, so discrete eigenvalues sit above the
true ones); the torsion load is mass-lumped.  One deterministic sparse LU
factorization per level serves both the torsion solve and unshifted
inverse power iteration for the eigenvalue, which starts from the torsion
function (the lumped load is M times the constant vector) or from the
prolonged eigenvector, so repeated runs are byte-identical.

Richardson extrapolation over three consecutive levels provides the
reported value and an error gauge (distance between the extrapolated and
finest-level values).  Sector meshes start from a fan of
ceil(angle / (pi/3)) wedges about the apex: the accuracy of a level is set
by its radial resolution, so more wedges would only add elements.  Arc
midpoints are re-projected to the circle on every refinement, and sector
gauges are inflated by the remaining polygon area defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import Rectangle, Sector, Triangle

MAX_LEVEL = 9
_EIG_TOL = 1e-12
_EIG_MAXIT = 400


class DegenerateShape(ValueError):
    """Raised when a shape is too degenerate to mesh."""


class LevelTooHigh(ValueError):
    """Raised when a refinement level above the supported cap is requested."""


class NonContracting(RuntimeError):
    """Raised when a level sequence shows no error contraction."""


class EigenNotConverged(RuntimeError):
    """Raised when inverse iteration misses _EIG_TOL within _EIG_MAXIT steps."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulation with vertex coordinates, elements, and boundary flags."""

    vertices: np.ndarray  # (nv, 2) float
    elements: np.ndarray  # (ne, 3) int
    boundary_flags: np.ndarray  # (nv,) bool
    level: int


@dataclass(frozen=True)
class SpectralResult:
    """Extrapolated spectral quantities with per-level data and error gauges.

    ``error_gauge[q]`` is ``|extrapolated - finest|`` for q in lambda1, T
    and F (plus the area defect on sectors).  It estimates the error of the
    finest level, not of the extrapolated value reported here: at level 8
    on the equilateral triangle and the square it is about 1e4 times the
    extrapolated value's true error.  ``observed_order[q]`` for q in
    lambda1 and T is log2 of the contraction of the level differences
    (``richardson``), about 2 on regular shapes; it reads 0.86 for lambda1
    at ``Triangle(0.5, 0.04)``, level 6, where the gauge's order-2 premise
    fails.
    """

    lambda1: float
    T: float
    torsion_max: float
    F: float
    h_sequence: tuple
    error_gauge: dict
    observed_order: dict
    levels: tuple
    per_level: dict
    area: float


def _base_mesh(shape) -> tuple[np.ndarray, np.ndarray, Optional[float]]:
    """Level-0 vertices/elements and the projection radius for sectors.

    Every level-0 vertex lies on the boundary of the shape.  A sector is a
    fan of ceil(angle / (pi/3)) equal wedges about its apex, so every wedge
    opens at most 60 degrees and no level-0 angle exceeds 90 degrees.
    """
    if isinstance(shape, Triangle):
        if shape.b < 1e-6:
            raise DegenerateShape(
                f"apex height {shape.b} is below the meshing cutoff 1e-6"
            )
        vertices = np.array(
            [[0.0, 0.0], [1.0, 0.0], [shape.a, shape.b]], dtype=float
        )
        elements = np.array([[0, 1, 2]], dtype=np.int64)
        return vertices, elements, None
    if isinstance(shape, Rectangle):
        a, b = shape.a, shape.b
        vertices = np.array(
            [[-a, -b], [a, -b], [a, b], [-a, b]], dtype=float
        )
        elements = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
        return vertices, elements, None
    if isinstance(shape, Sector):
        k = math.ceil(shape.angle / (math.pi / 3.0))
        angles = np.linspace(0.0, shape.angle, k + 1)
        arc = shape.radius * np.column_stack([np.cos(angles), np.sin(angles)])
        vertices = np.vstack([[0.0, 0.0], arc])
        elements = np.column_stack(
            [
                np.zeros(k, dtype=np.int64),
                np.arange(1, k + 1, dtype=np.int64),
                np.arange(2, k + 2, dtype=np.int64),
            ]
        )
        return vertices, elements, shape.radius
    raise DegenerateShape(f"unsupported shape {type(shape).__name__}")


def _refine_arrays(
    vertices: np.ndarray,
    elements: np.ndarray,
    flags: np.ndarray,
    project_radius: Optional[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One red refinement; returns new vertices, elements, boundary flags,
    and midpoint parents.

    Old vertices keep their flags; a midpoint is on the boundary iff its
    parent edge belongs to a single element.
    """
    ne = len(elements)
    nv = len(vertices)
    pairs = np.concatenate(
        [elements[:, [0, 1]], elements[:, [1, 2]], elements[:, [2, 0]]]
    )
    pairs.sort(axis=1)
    # the order of the keys lo * nv + hi is the lexicographic order of (lo, hi)
    keys, inverse, counts = np.unique(
        pairs[:, 0] * nv + pairs[:, 1], return_inverse=True, return_counts=True
    )
    uniq = np.column_stack(np.divmod(keys, nv))
    mids = 0.5 * (vertices[uniq[:, 0]] + vertices[uniq[:, 1]])
    if project_radius is not None:
        r = project_radius
        tol = 1e-9 * r
        on_circle = (
            np.abs(np.linalg.norm(vertices[uniq[:, 0]], axis=1) - r) < tol
        ) & (np.abs(np.linalg.norm(vertices[uniq[:, 1]], axis=1) - r) < tol)
        norms = np.linalg.norm(mids[on_circle], axis=1)
        mids[on_circle] *= (r / norms)[:, None]
    m01 = nv + inverse[:ne]
    m12 = nv + inverse[ne : 2 * ne]
    m20 = nv + inverse[2 * ne :]
    e0, e1, e2 = elements[:, 0], elements[:, 1], elements[:, 2]
    children = np.concatenate(
        [
            np.column_stack([e0, m01, m20]),
            np.column_stack([m01, e1, m12]),
            np.column_stack([m20, m12, e2]),
            np.column_stack([m01, m12, m20]),
        ]
    )
    new_flags = np.concatenate([flags, counts == 1])
    return np.vstack([vertices, mids]), children, new_flags, uniq


def mesh_domain(shape, level: int) -> Mesh:
    """Uniform red-refined mesh of a triangle, rectangle, or sector."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
        raise LevelTooHigh(f"level {level} exceeds the cap {MAX_LEVEL}")
    vertices, elements, project_radius = _base_mesh(shape)
    flags = np.ones(len(vertices), dtype=bool)
    for _ in range(level):
        vertices, elements, flags, _ = _refine_arrays(
            vertices, elements, flags, project_radius
        )
    return Mesh(
        vertices=vertices, elements=elements, boundary_flags=flags, level=level
    )


def refine(mesh: Mesh, project_radius: Optional[float] = None) -> tuple[Mesh, np.ndarray]:
    """Refine once; also returns the (n_mid, 2) parent pairs of new vertices."""
    if mesh.level + 1 > MAX_LEVEL:
        raise LevelTooHigh(f"refining past the cap {MAX_LEVEL}")
    vertices, elements, flags, parents = _refine_arrays(
        mesh.vertices, mesh.elements, mesh.boundary_flags, project_radius
    )
    new_mesh = Mesh(
        vertices=vertices,
        elements=elements,
        boundary_flags=flags,
        level=mesh.level + 1,
    )
    return new_mesh, parents


def _element_geometry(mesh: Mesh):
    v = mesh.vertices[mesh.elements]  # (ne, 3, 2)
    x, y = v[:, :, 0], v[:, :, 1]
    bvec = np.stack(
        [y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1
    )
    cvec = np.stack(
        [x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1
    )
    area2 = x[:, 0] * bvec[:, 0] + x[:, 1] * bvec[:, 1] + x[:, 2] * bvec[:, 2]
    return bvec, cvec, area2 / 2.0


def _assemble(mesh: Mesh):
    """Stiffness K, consistent mass M, and lumped load f on all vertices."""
    nv = len(mesh.vertices)
    elems = mesh.elements
    bvec, cvec, areas = _element_geometry(mesh)
    if np.any(areas <= 0):
        raise DegenerateShape("mesh contains an element with nonpositive area")
    ke = (
        bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :]
    ) / (4.0 * areas)[:, None, None]
    m_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = areas[:, None, None] * m_ref[None, :, :]
    rows = np.repeat(elems, 3, axis=1).ravel()
    cols = np.tile(elems, (1, 3)).ravel()
    stiffness = sp.coo_matrix(
        (ke.ravel(), (rows, cols)), shape=(nv, nv)
    ).tocsr()
    mass = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    load = np.zeros(nv)
    np.add.at(load, elems.ravel(), np.repeat(areas / 3.0, 3))
    return stiffness, mass, load


def _interior(mesh: Mesh) -> np.ndarray:
    idx = np.where(~mesh.boundary_flags)[0]
    if len(idx) == 0:
        raise DegenerateShape(
            f"mesh at level {mesh.level} has no interior vertices; refine further"
        )
    return idx


def _solve_level(mesh: Mesh, x0: Optional[np.ndarray] = None) -> dict:
    """Torsion and ground eigenpair of one mesh from one LU of ``K_ii``.

    Inverse iteration starts from ``x0`` (on all vertices) or, without it,
    from the torsion function, and raises EigenNotConverged if the Rayleigh
    quotient has not settled to _EIG_TOL within _EIG_MAXIT iterations.
    """
    stiffness, mass, load = _assemble(mesh)
    idx = _interior(mesh)
    k_ii = stiffness[np.ix_(idx, idx)].tocsc()
    m_ii = mass[np.ix_(idx, idx)].tocsr()
    lu = spla.splu(k_ii)
    f_i = load[idx]
    u_i = lu.solve(f_i)
    x = u_i if x0 is None else x0[idx]
    x = x / math.sqrt(float(x @ (m_ii @ x)))
    lam_prev = math.inf
    for iteration in range(1, _EIG_MAXIT + 1):
        y = lu.solve(m_ii @ x)
        norm = math.sqrt(float(y @ (m_ii @ y)))
        if norm == 0.0 or not math.isfinite(norm):
            raise RuntimeError("inverse power iteration broke down")
        x = y / norm
        lam = float(x @ (k_ii @ x)) / float(x @ (m_ii @ x))
        if abs(lam - lam_prev) <= _EIG_TOL * abs(lam):
            break
        lam_prev = lam
    else:
        raise EigenNotConverged(
            f"relative eigenvalue change {abs(lam - lam_prev) / abs(lam):.1e} "
            f"after {_EIG_MAXIT} iterations exceeds {_EIG_TOL:.0e}"
        )
    eigvec = np.zeros(len(mesh.vertices))
    eigvec[idx] = x
    return {
        "lambda1": lam,
        "T": float(f_i @ u_i),
        "torsion_max": float(u_i.max()),
        "eigvec": eigvec,
        "eigen_iterations": iteration,
        "elements": len(mesh.elements),
        "dofs": len(idx),
    }


def solve_torsion(mesh: Mesh) -> dict:
    """Torsional rigidity and maximum of the torsion function on the mesh."""
    level = _solve_level(mesh)
    return {"T": level["T"], "torsion_max": level["torsion_max"]}


def solve_lambda1(mesh: Mesh) -> float:
    """Smallest Dirichlet eigenvalue of the mesh (above the true value)."""
    return _solve_level(mesh)["lambda1"]


def richardson(values: Sequence[float]) -> dict:
    """Second-order extrapolation from the last three values of a level sequence.

    estimate = (4 v_last - v_prev) / 3; observed_order = log2 of the
    difference contraction.  Raises NonContracting when the differences do
    not shrink (unless they are both exactly zero).
    """
    v = [float(x) for x in values]
    if len(v) < 3:
        raise ValueError("need at least three level values")
    d1 = v[-2] - v[-3]
    d2 = v[-1] - v[-2]
    if d1 == 0.0 and d2 == 0.0:
        return {"estimate": v[-1], "observed_order": math.inf, "error_gauge": 0.0}
    if abs(d2) >= abs(d1):
        raise NonContracting(
            f"level differences do not contract: {d1:.3e} then {d2:.3e}"
        )
    estimate = (4.0 * v[-1] - v[-2]) / 3.0
    return {
        "estimate": estimate,
        "observed_order": math.log2(abs(d1) / abs(d2)),
        "error_gauge": abs(estimate - v[-1]),
    }


def _exact_area(shape) -> float:
    if isinstance(shape, Triangle):
        return shape.b / 2.0
    if isinstance(shape, Rectangle):
        return 4.0 * shape.a * shape.b
    if isinstance(shape, Sector):
        return 0.5 * shape.angle * shape.radius**2
    raise DegenerateShape(f"unsupported shape {type(shape).__name__}")


def _mesh_area(mesh: Mesh) -> float:
    _, _, areas = _element_geometry(mesh)
    return float(areas.sum())


def _mesh_h(mesh: Mesh) -> float:
    v = mesh.vertices[mesh.elements]
    lengths = [
        np.linalg.norm(v[:, 0] - v[:, 1], axis=1),
        np.linalg.norm(v[:, 1] - v[:, 2], axis=1),
        np.linalg.norm(v[:, 2] - v[:, 0], axis=1),
    ]
    return float(np.max(lengths))


def _prolong(x: np.ndarray, parents: np.ndarray) -> np.ndarray:
    mids = 0.5 * (x[parents[:, 0]] + x[parents[:, 1]])
    return np.concatenate([x, mids])


def spectral(shape, max_level: int) -> SpectralResult:
    """Eigenvalue, torsion, and their scale-invariant ratio with extrapolation.

    Solves on levels max_level-2 .. max_level with one factorization per
    level, warm-starting each eigenvalue solve from the prolonged
    eigenvector of the previous level, then Richardson-extrapolates.
    ``per_level["eigen_iterations"]`` counts the inverse iterations of each
    level, ``per_level["elements"]`` its elements and ``per_level["dofs"]``
    its interior vertices, the unknowns of its solves.
    """
    if max_level < 2:
        raise ValueError("spectral needs max_level >= 2")
    if max_level > MAX_LEVEL:
        raise LevelTooHigh(f"max_level {max_level} exceeds the cap {MAX_LEVEL}")
    project_radius = shape.radius if isinstance(shape, Sector) else None
    levels = [max_level - 2, max_level - 1, max_level]
    meshes = [mesh_domain(shape, levels[0])]
    parent_maps = []
    for _ in range(2):
        fine, parents = refine(meshes[-1], project_radius)
        meshes.append(fine)
        parent_maps.append(parents)

    per_level: dict = {
        key: []
        for key in (
            "lambda1", "T", "torsion_max", "eigen_iterations", "elements", "dofs"
        )
    }
    warm: Optional[np.ndarray] = None
    for i, mesh in enumerate(meshes):
        solved = _solve_level(mesh, warm)
        for key, values in per_level.items():
            values.append(solved[key])
        if i < len(parent_maps):
            warm = _prolong(solved["eigvec"], parent_maps[i])
    lam_seq, tor_seq = per_level["lambda1"], per_level["T"]

    lam_ex = richardson(lam_seq)
    tor_ex = richardson(tor_seq)
    area = _exact_area(shape)
    lam_val = lam_ex["estimate"]
    tor_val = tor_ex["estimate"]
    f_val = lam_val * tor_val / area
    f_finest = lam_seq[-1] * tor_seq[-1] / area
    gauges = {
        "lambda1": lam_ex["error_gauge"],
        "T": tor_ex["error_gauge"],
        "F": abs(f_val - f_finest),
    }
    if project_radius is not None:
        defect = abs(area - _mesh_area(meshes[-1])) / area
        gauges["lambda1"] += 2.0 * defect * abs(lam_val)
        gauges["T"] += 2.0 * defect * abs(tor_val)
        gauges["F"] += 4.0 * defect * abs(f_val)
    return SpectralResult(
        lambda1=lam_val,
        T=tor_val,
        torsion_max=per_level["torsion_max"][-1],
        F=f_val,
        h_sequence=tuple(_mesh_h(m) for m in meshes),
        error_gauge=gauges,
        observed_order={
            "lambda1": lam_ex["observed_order"],
            "T": tor_ex["observed_order"],
        },
        levels=tuple(levels),
        per_level={key: tuple(values) for key, values in per_level.items()},
        area=area,
    )
