"""Independent finite-element oracle for torsion and the principal eigenvalue.

Conforming P1 elements on uniformly red-refined meshes.  A triangle whose
apex lies above the interior of its base is split at the foot of the apex
altitude into two right triangles, so every refined element keeps a right
angle and the maximum-angle condition (Babuska & Aziz, 1976) holds however
thin the triangle; any other triangle is meshed as its congruent copy on
its longest side, split the same way, and a rectangle is two elements.  A
sector is a fan of ceil(angle / (pi/3)) wedges about the apex (the accuracy
of a level is set by its radial resolution, so more wedges would only add
elements).  Each base mesh is the image of a reference mesh on the
integer grid under one affine map per piece.  The refined reference mesh,
its parent maps and its interior vertices in a band order (along the long
axis, then the short one) are a memo of (layout, level), shared by every
shape and thread; two threads that miss it at once build the same
read-only arrays.  Every mesh is its level-0 image prolonged through
the parent maps one level at a time, and on a sector each new arc midpoint
is projected back to the circle.

The cached reference also holds the CSC pattern of its interior system,
the plan that scatters element blocks and loads onto it and the place of
each pattern entry in LAPACK's band storage; one routine makes the element
parts (stiffness xx and yy, mass and lumped load) and one bincount scatter
sums them, onto the pattern and from it into the band.  Red refinement
commutes with affine maps, so a triangle or rectangle solve only combines
cached per-piece components, scattered once per layout and level, with the
coefficients of its maps, which are all diagonal.  A projected sector mesh
is no such image; its parts are scattered per solve.

The eigenproblem uses the consistent mass matrix (variational, so discrete
eigenvalues sit above the true ones); the torsion load is mass-lumped.  In
the band order a level's stiffness has half-bandwidth at most 2^level.  One
banded Cholesky factorization per level (LAPACK dpbtrf, no pivoting) serves
both the torsion solve and unshifted inverse power iteration for the
eigenvalue (dpbtrs), which starts from the torsion function (the lumped
load is M times the constant vector) or from the prolonged eigenvector, so
repeated runs are byte-identical.

Richardson extrapolation over three consecutive levels provides the
reported value and an error gauge (distance between the extrapolated and
finest-level values).  Sector gauges are inflated by the remaining polygon
area defect.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .geometry import Rectangle, Sector, Triangle

MAX_LEVEL = 9
_EIG_TOL = 1e-12
_EIG_MAXIT = 400

# Reference layouts: base vertices, base elements, and the piece of each
# base element.  Pieces meet only along edges on which their maps agree.
_LAYOUTS = {
    # two right triangles that share the altitude foot (1, 0) and apex (1, 1)
    "split": (((0, 0), (1, 0), (2, 0), (1, 1)), ((0, 1, 3), (1, 2, 3)), (0, 1)),
    "square": (((-1, -1), (1, -1), (1, 1), (-1, 1)), ((0, 1, 2), (0, 2, 3)), (0, 0)),
}
# fan{k}: k wedges about the apex (0, 0), one piece each, on the first k + 1
# rim points; the rim, where max(x, y) = 1, maps to the arc of a sector
_RIM = ((1, 0), (1, 1), (0, 1), (-1, 1))
_LAYOUTS.update(
    (
        f"fan{k}",
        (((0, 0),) + _RIM[: k + 1], [(0, p + 1, p + 2) for p in range(k)], range(k)),
    )
    for k in (1, 2, 3)
)


class DegenerateShape(ValueError):
    """Raised when a shape is too degenerate to mesh."""


class LevelTooHigh(ValueError):
    """Raised when a refinement level above the supported cap is requested."""


class NonContracting(RuntimeError):
    """Raised when a level sequence shows no error contraction."""


class EigenNotConverged(RuntimeError):
    """Raised when inverse iteration misses _EIG_TOL within _EIG_MAXIT steps."""


class NotPositiveDefinite(RuntimeError):
    """Raised when a stiffness meets a nonpositive Cholesky pivot."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulation with vertex coordinates, elements, and boundary flags.

    The mesh is its shape's layout's reference mesh at ``level`` carried to
    the shape, or to the congruent copy on the longest side of a triangle
    whose apex lies off its base: elements and flags are the cached
    reference arrays, and the interior unknowns are the reference interior.
    """

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
    on the equilateral triangle and the square it is about 4e4 times the
    extrapolated value's true error.  ``observed_order[q]`` for q in
    lambda1 and T is log2 of the contraction of the level differences
    (``richardson``), about 2 on regular shapes; on the altitude-split mesh
    it reads 1.88 for lambda1 at ``Triangle(0.5, 0.04)``, level 7, and
    lower on coarser levels of thin triangles, where the gauge's order-2
    premise is weaker.
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


@dataclass(frozen=True, eq=False)
class _Reference:
    """Red-refined reference mesh of one layout at one level.

    The unknowns are the interior vertices in band order: sorted along the
    layout's longer axis, then its shorter one.  Every edge joins grid
    points at most one step apart in each axis, so the half-bandwidth is
    2^level - 1 for ``split``, 2^level for ``square``, ``fan2`` and
    ``fan3``, and 2^level - 2 for ``fan1``; ``half_width`` is its exact
    value w.  Stiffness and mass share one symmetric CSC pattern over them
    (``indptr``, ``indices``); entry k of the raveled (ne, 3, 3) element
    blocks sums into the pattern at ``slot[k]``, entry k of the raveled
    (ne, 3) element loads into the unknown ``load_at[k]``, and pattern entry
    k, at (i, j) with i <= j, into the raveled Fortran (w + 1, n) band that
    dpbtrf reads at ``band_at[k] = w + i - j + (w + 1) j``.
    An entry that touches a boundary vertex, or lies below the diagonal,
    goes to one past the end, a discard bin.
    """

    vertices: np.ndarray
    elements: np.ndarray
    flags: np.ndarray
    pieces: np.ndarray  # piece of each element
    parents: Optional[np.ndarray]  # parent pairs of the vertices new at this level
    interior: np.ndarray  # interior vertices in band order
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray
    load_at: np.ndarray
    half_width: int
    band_at: np.ndarray


@dataclass(frozen=True, eq=False)
class _ReferenceSystem:
    """Per-piece components of one layout's interior system at one level.

    Stiffness and mass lie on the reference's pattern; ``stiffness`` holds
    the xx and yy parts of every piece, the only ones a diagonal map weights.
    """

    stiffness: np.ndarray  # (pieces, 2, nnz)
    mass: np.ndarray  # (pieces, nnz)
    load: np.ndarray  # (pieces, n)


@dataclass(frozen=True, eq=False)
class _System:
    """Interior stiffness (its values on the reference's pattern), mass and
    load of one shape at one level, ready to solve, with the mesh's largest
    edge ``h`` and its area."""

    stiffness: np.ndarray
    mass: sp.csr_matrix
    load: np.ndarray
    reference: _Reference
    level: int
    h: float
    area: float


def _frozen(record):
    for field in fields(record):
        value = getattr(record, field.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return record


def _piece_maps(shape) -> tuple[str, tuple]:
    """Layout of a shape and one map (A, o, t) per piece.

    Piece p maps a reference point x to ``A (x - o) + t``.  Wedge p of a
    sector maps its rim points to the arc points at angles ``p theta`` and
    ``(p + 1) theta``, with theta the angle over the number of wedges; each
    wedge opens at most 60 degrees, so no level-0 angle exceeds 90 degrees.
    A non-finite shape parameter raises DegenerateShape.
    """
    if not isinstance(shape, (Triangle, Rectangle, Sector)):
        raise DegenerateShape(f"unsupported shape {type(shape).__name__}")
    if not all(math.isfinite(getattr(shape, f.name)) for f in fields(shape)):
        raise DegenerateShape(f"non-finite shape parameter in {shape}")
    origin = (0.0, 0.0)
    if isinstance(shape, Triangle):
        a, b = shape.a, shape.b
        # with its apex off the base, the congruent copy on the longest side
        c = 1.0 - a if a <= 0.0 else a
        length = 1.0 if 0.0 < a < 1.0 else math.hypot(c, b)
        foot, height = c / length, b / length
        if height / length < 1e-6:
            raise DegenerateShape(
                f"relative apex height {height / length} is below the meshing cutoff 1e-6"
            )
        return "split", (
            (np.diag([foot, height]), origin, origin),
            (np.diag([length - foot, height]), (1.0, 0.0), (foot, 0.0)),
        )
    if isinstance(shape, Rectangle):
        return "square", ((np.diag([shape.a, shape.b]), origin, origin),)
    k = math.ceil(shape.angle / (math.pi / 3.0))
    angles = np.linspace(0.0, shape.angle, k + 1)
    arc = shape.radius * np.column_stack([np.cos(angles), np.sin(angles)])
    rim = np.array(_RIM, dtype=float)
    return f"fan{k}", tuple(
        (arc[p : p + 2].T @ np.linalg.inv(rim[p : p + 2].T), origin, origin)
        for p in range(k)
    )


def _refine_arrays(
    vertices: np.ndarray, elements: np.ndarray, flags: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One red refinement; returns new vertices, elements, boundary flags,
    and midpoint parents.

    Old vertices keep their flags; a midpoint is on the boundary iff its
    parent edge belongs to a single element.  Child k of every element
    forms block k of the new elements.
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


@functools.cache
def _reference(layout: str, level: int) -> _Reference:
    """The cached reference mesh of ``layout`` at ``level`` (read-only)."""
    if level == 0:
        vertices, elements, pieces = _LAYOUTS[layout]
        vertices = np.array(vertices, dtype=float)
        elements = np.array(elements, dtype=np.int64)
        pieces = np.array(pieces, dtype=np.int64)
        flags = np.ones(len(vertices), dtype=bool)
        parents = None
    else:
        coarse = _reference(layout, level - 1)
        vertices, elements, flags, parents = _refine_arrays(
            coarse.vertices, coarse.elements, coarse.flags
        )
        pieces = np.tile(coarse.pieces, 4)
    interior = np.flatnonzero(~flags)
    # reference coordinates are dyadic, so the sort keys are exact
    points = vertices[interior]
    long = int(np.argmax(np.ptp(vertices, axis=0)))
    interior = interior[np.lexsort((points[:, 1 - long], points[:, long]))]
    return _frozen(
        _Reference(
            vertices=vertices,
            elements=elements,
            flags=flags,
            pieces=pieces,
            parents=parents,
            interior=interior,
            **_scatter_plan(elements, interior, len(vertices)),
        )
    )


def _scatter_plan(elements: np.ndarray, interior: np.ndarray, nv: int) -> dict:
    """Interior CSC pattern of a mesh, its band map and the scatter plan."""
    n = len(interior)
    unknown = np.full(nv, -1, dtype=np.int64)
    unknown[interior] = np.arange(n)
    rows = unknown[np.repeat(elements, 3, axis=1)].ravel()
    cols = unknown[np.tile(elements, (1, 3))].ravel()
    keep = (rows >= 0) & (cols >= 0)
    pattern, kept = np.unique(cols[keep] * n + rows[keep], return_inverse=True)
    slot = np.full(len(rows), len(pattern), dtype=np.int32)
    slot[keep] = kept
    load_at = unknown[elements].ravel()
    load_at[load_at < 0] = n
    cols, rows = np.divmod(pattern, n)
    w = int(np.max(cols - rows, initial=0))
    band_at = np.where(rows <= cols, w + rows - cols + (w + 1) * cols, (w + 1) * n)
    columns = np.bincount(cols, minlength=n)
    return {
        "indptr": np.concatenate([[0], np.cumsum(columns)]).astype(np.int32),
        "indices": rows.astype(np.int32),
        "slot": slot,
        "load_at": load_at.astype(np.int32),
        "half_width": w,
        "band_at": band_at.astype(np.int32),
    }


def _element_geometry(vertices: np.ndarray, elements: np.ndarray):
    v = vertices[elements]  # (ne, 3, 2)
    x, y = v[:, :, 0], v[:, :, 1]
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = x[:, 0] * bvec[:, 0] + x[:, 1] * bvec[:, 1] + x[:, 2] * bvec[:, 2]
    return bvec, cvec, area2 / 2.0


_MASS_REF = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _element_parts(vertices: np.ndarray, elements: np.ndarray):
    """Element stiffness parts, consistent mass and lumped load.

    The stiffness parts are the (ne, 3, 3) blocks xx and yy; the mass is
    one (ne, 3, 3) block and the loads are (ne, 3).
    """
    bvec, cvec, areas = _element_geometry(vertices, elements)
    if np.any(areas <= 0):
        raise DegenerateShape("mesh contains an element with nonpositive area")

    def outer(u, v):
        return u[:, :, None] * v[:, None, :] / (4.0 * areas)[:, None, None]

    mass = areas[:, None, None] * _MASS_REF
    load = np.repeat(areas / 3.0, 3).reshape(-1, 3)
    return (outer(bvec, bvec), outer(cvec, cvec)), mass, load


def _scatter(values: np.ndarray, at: np.ndarray, size: int):
    """Sum raveled ``values`` onto ``at``, dropping the entries sent to ``size``.

    bincount sums in input order, so the result is reproducible.
    """
    return np.bincount(at, weights=values.ravel(), minlength=size + 1)[:size]


@functools.cache
def _reference_system(layout: str, level: int) -> _ReferenceSystem:
    """The cached per-piece interior system of ``layout`` at ``level``."""
    ref = _reference(layout, level)
    parts, mass, load = _element_parts(ref.vertices, ref.elements)
    n_pieces = int(ref.pieces.max()) + 1

    def per_piece(values, at, size):
        values = values.reshape(len(ref.pieces), -1)
        return np.stack(
            [
                _scatter(np.where((ref.pieces == p)[:, None], values, 0.0), at, size)
                for p in range(n_pieces)
            ]
        )

    def on_pattern(blocks):
        return per_piece(blocks, ref.slot, len(ref.indices))

    return _frozen(
        _ReferenceSystem(
            stiffness=np.stack([on_pattern(part) for part in parts], axis=1),
            mass=on_pattern(mass),
            load=per_piece(load, ref.load_at, len(ref.interior)),
        )
    )


def _combine(parts, coefficients) -> np.ndarray:
    """``sum_k coefficients[k] * parts[k]``, in a fixed order."""
    out = None
    for c, part in zip(coefficients, parts):
        out = c * part if out is None else out + c * part
    return out


def _system(shape, level: int, base: Optional[Mesh] = None) -> _System:
    """Interior system of ``shape`` at ``level`` on its layout's pattern.

    A triangle or rectangle combines its layout's cached components: a
    piece with diagonal map A contributes ``|det A| (G11 Kxx + G22 Kyy)``
    to the stiffness, with ``G = A^-1 A^-T``, and ``|det A|`` times its
    reference mass and load; its h halves per level from the longest edge
    of its level-0 mesh ``base`` (built here when not given), and its area
    is that mesh's.  A sector's mesh is built at ``level`` and its element
    Laplacian ``Kxx + Kyy``, mass and load are scattered directly.
    """
    layout, maps = _piece_maps(shape)
    ref = _reference(layout, level)
    n = len(ref.interior)
    if n == 0:
        raise DegenerateShape(
            f"mesh at level {level} has no interior vertices; refine further"
        )
    if isinstance(shape, Sector):
        mesh = mesh_domain(shape, level)
        (xx, yy), mass, load = _element_parts(mesh.vertices, mesh.elements)
        stiffness = _scatter(xx + yy, ref.slot, len(ref.indices))
        mass = _scatter(mass, ref.slot, len(ref.indices))
        load = _scatter(load, ref.load_at, n)
    else:
        mesh = base if base is not None else mesh_domain(shape, 0)
        system = _reference_system(layout, level)
        k_coef, m_coef = [], []
        for A, _, _ in maps:
            det = abs(float(np.linalg.det(A)))
            inv = np.linalg.inv(A)
            g = inv @ inv.T
            k_coef += [det * g[0, 0], det * g[1, 1]]
            m_coef.append(det)
        stiffness = _combine(
            system.stiffness.reshape(-1, system.stiffness.shape[-1]), k_coef
        )
        mass = _combine(system.mass, m_coef)
        load = _combine(system.load, m_coef)
    return _System(
        stiffness=stiffness,
        # symmetric values on a symmetric pattern: read as CSR it is the same matrix
        mass=sp.csr_matrix((mass, ref.indices, ref.indptr), shape=(n, n)),
        load=load,
        reference=ref,
        level=level,
        h=_mesh_h(mesh) / 2.0 ** (level - mesh.level),
        area=_mesh_area(mesh),
    )


def mesh_domain(shape, level: int) -> Mesh:
    """Uniform red-refined mesh of a triangle, rectangle, or sector.

    The level-0 image of the shape's layout, prolonged one level at a time
    through the reference parent maps: new vertices are the midpoints of
    their parents, and on a sector those on the rim are projected back to
    the circle.  A triangle whose apex lies off its base is meshed as its
    congruent copy with the longest side on the x-axis.
    """
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
        raise LevelTooHigh(f"level {level} exceeds the cap {MAX_LEVEL}")
    layout, maps = _piece_maps(shape)
    base = _reference(layout, 0)
    vertices = np.empty_like(base.vertices)
    # a vertex that pieces share takes the first piece's map; theirs agree
    # there up to rounding
    for p, (A, origin, shift) in reversed(tuple(enumerate(maps))):
        mine = base.elements[base.pieces == p].ravel()
        vertices[mine] = (base.vertices[mine] - origin) @ A.T + shift
    ref = base
    for fine in range(1, level + 1):
        old = len(vertices)
        ref = _reference(layout, fine)
        vertices = _prolong(vertices, ref.parents)
        if isinstance(shape, Sector):
            arc = old + np.flatnonzero(ref.vertices[old:].max(axis=1) == 1.0)
            norms = np.linalg.norm(vertices[arc], axis=1)
            vertices[arc] *= (shape.radius / norms)[:, None]
    return Mesh(
        vertices=vertices,
        elements=ref.elements,
        boundary_flags=ref.flags,
        level=level,
    )


def _solve_system(system: _System, x0: Optional[np.ndarray] = None) -> dict:
    """Torsion and ground eigenpair of one system from one banded Cholesky
    factorization of its stiffness.

    dpbtrf factors in place a fresh band that the reference's ``band_at``
    fills from the stiffness values, so the system is left as it was, and
    every solve is one dpbtrs call on that factor.  A nonpositive pivot
    raises NotPositiveDefinite.  Inverse iteration starts from ``x0`` (on
    all vertices) or, without it, from the torsion function.  Each step
    takes two mass products: with ``K y = M x``, the Rayleigh quotient of y
    is ``(y . M x) / (y . M y)``.  It raises EigenNotConverged if the
    quotient has not settled to _EIG_TOL within _EIG_MAXIT iterations.
    """
    ref = system.reference
    mass, idx = system.mass, ref.interior
    w, n = ref.half_width, len(idx)
    band = _scatter(system.stiffness, ref.band_at, (w + 1) * n)
    factor, info = lapack.dpbtrf(band.reshape((w + 1, n), order="F"), overwrite_ab=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"stiffness at level {system.level}: Cholesky pivot {info} of "
            f"{n} is not positive"
        )
    u = lapack.dpbtrs(factor, system.load)[0]
    x = u if x0 is None else x0[idx]
    lam_prev = math.inf
    for iteration in range(1, _EIG_MAXIT + 1):
        mx = mass @ x
        y = lapack.dpbtrs(factor, mx)[0]
        yy = float(y @ (mass @ y))
        if yy <= 0.0 or not math.isfinite(yy):
            raise RuntimeError("inverse power iteration broke down")
        lam = float(y @ mx) / yy
        x = y / math.sqrt(yy)
        if abs(lam - lam_prev) <= _EIG_TOL * abs(lam):
            break
        lam_prev = lam
    else:
        raise EigenNotConverged(
            f"relative eigenvalue change {abs(lam - lam_prev) / abs(lam):.1e} "
            f"after {_EIG_MAXIT} iterations exceeds {_EIG_TOL:.0e}"
        )
    eigvec = np.zeros(len(ref.vertices))
    eigvec[idx] = x
    return {
        "lambda1": lam,
        "T": float(system.load @ u),
        "torsion_max": float(u.max()),
        "eigvec": eigvec,
        "eigen_iterations": iteration,
        "elements": len(ref.elements),
        "dofs": len(idx),
        "lu_nnz": factor.size,
    }


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
    return 0.5 * shape.angle * shape.radius**2


def _mesh_area(mesh: Mesh) -> float:
    _, _, areas = _element_geometry(mesh.vertices, mesh.elements)
    return float(areas.sum())


def _mesh_h(mesh: Mesh) -> float:
    v = mesh.vertices[mesh.elements]
    return float(np.linalg.norm(v - np.roll(v, -1, axis=1), axis=2).max())


def _prolong(x: np.ndarray, parents: np.ndarray) -> np.ndarray:
    mids = 0.5 * (x[parents[:, 0]] + x[parents[:, 1]])
    return np.concatenate([x, mids])


def spectral(shape, max_level: int) -> SpectralResult:
    """Eigenvalue, torsion, and their scale-invariant ratio with extrapolation.

    Solves on levels max_level-2 .. max_level with one factorization per
    level, warm-starting each eigenvalue solve from the prolonged
    eigenvector of the previous level, then Richardson-extrapolates.
    ``per_level["eigen_iterations"]`` counts the inverse iterations of each
    level, ``per_level["elements"]`` its elements, ``per_level["dofs"]``
    its interior vertices n, the unknowns of its solves, and
    ``per_level["lu_nnz"]`` the entries of its stored banded Cholesky
    factor, (w + 1) n for half-bandwidth w.  Every level's system comes
    from ``_system``, so a triangle or rectangle is solved from one level-0
    mesh, without building its refined meshes.
    """
    if max_level < 2:
        raise ValueError("spectral needs max_level >= 2")
    if max_level > MAX_LEVEL:
        raise LevelTooHigh(f"max_level {max_level} exceeds the cap {MAX_LEVEL}")
    levels = [max_level - 2, max_level - 1, max_level]
    layout, _ = _piece_maps(shape)
    parent_maps = [_reference(layout, level).parents for level in levels[1:]]
    base = None if isinstance(shape, Sector) else mesh_domain(shape, 0)
    systems = [_system(shape, level, base) for level in levels]

    per_level: dict = {}
    warm: Optional[np.ndarray] = None
    for system, parents in zip(systems, parent_maps + [None]):
        solved = _solve_system(system, warm)
        eigvec = solved.pop("eigvec")
        for key, value in solved.items():
            per_level.setdefault(key, []).append(value)
        if parents is not None:
            warm = _prolong(eigvec, parents)
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
    if isinstance(shape, Sector):
        defect = abs(area - systems[-1].area) / area
        gauges["lambda1"] += 2.0 * defect * abs(lam_val)
        gauges["T"] += 2.0 * defect * abs(tor_val)
        gauges["F"] += 4.0 * defect * abs(f_val)
    return SpectralResult(
        lambda1=lam_val,
        T=tor_val,
        torsion_max=per_level["torsion_max"][-1],
        F=f_val,
        h_sequence=tuple(system.h for system in systems),
        error_gauge=gauges,
        observed_order={
            "lambda1": lam_ex["observed_order"],
            "T": tor_ex["observed_order"],
        },
        levels=tuple(levels),
        per_level={key: tuple(values) for key, values in per_level.items()},
        area=area,
    )
