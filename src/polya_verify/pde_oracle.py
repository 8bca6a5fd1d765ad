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

The cached reference also holds its edges, carried from level to level
by index arithmetic (the midpoint of coarse edge e is the new vertex
nv + e, and the new edges of each element follow from its coarse ones),
and its interior edges, those whose ends are both unknowns.  A system is
stored on its entries, one value per unknown (the diagonal) and one per
interior edge; the reference maps each entry to its place in LAPACK's
band storage, and the mass's CSR pattern (the diagonal and both
orientations of every interior edge) to the entry each place reads.  One
routine makes the element parts by local edge and vertex (stiffness xx
and yy, and the areas that give the consistent mass and the lumped
load); bincount sums them onto the edges and vertices, and the entries
are those sums on the unknowns and the interior edges.  Red refinement
commutes with affine maps, so a triangle or rectangle solve only
combines cached per-piece components, assembled once per layout and
level, with the coefficients of its maps, which are all diagonal.  A
projected sector mesh is no such image; its parts are assembled per
solve.

The eigenproblem uses the consistent mass matrix (variational, so discrete
eigenvalues sit above the true ones); the torsion load is mass-lumped.  In
the band order a level's stiffness has half-bandwidth at most 2^level.  One
banded Cholesky factorization per level (LAPACK dpbtrf, no pivoting) serves
both the torsion solve and the eigen solve (dpbtrs): Lanczos on K^-1 M,
which is self-adjoint in the M inner product (the spectral transformation
of Ericsson & Ruhe, 1980, at shift zero), stopped on the residual bound of
its largest Ritz value 1 / lambda1 (Parlett, 1998).  Its basis starts from
the torsion function (the lumped load is M times the constant vector) or
from the prolonged eigenvector, so repeated runs are byte-identical.

Richardson extrapolation over three consecutive levels provides the
reported value and an error gauge (distance between the extrapolated and
finest-level values).  Sector gauges are inflated by the remaining polygon
area defect.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .geometry import Rectangle, Sector, Triangle

MAX_LEVEL = 9
_EIG_TOL = 1e-12
_EIG_MAXIT = 64  # Lanczos steps per level, so also basis rows
_BLOCK = 16  # Lanczos basis rows added at a time
# local vertices k + 1 and k + 2 (mod 3), the ends of local edge k
_NEXT, _LAST = [1, 2, 0], [2, 0, 1]

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
    """Raised when the Lanczos error estimate still exceeds _EIG_TOL after
    _EIG_MAXIT steps, or when its start vector has no positive finite M-norm."""


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
    premise is weaker.  ``per_level`` holds each level's values and work
    counts (see ``spectral``); its ``eigen_residual`` measures, and stops,
    the eigen solve on that level's mesh, not the discretization error.
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
    value w.

    ``edges`` holds each vertex pair once, as (lo, hi); local edge k of
    element t, which joins its local vertices k + 1 and k + 2 (mod 3) and
    lies opposite vertex k, is edge ``edge_of[t, k]``, and
    ``edge_boundary`` marks the edges that lie in one element.  The edges
    of level 0 come from one sort, and every later level carries them
    (``_refine_arrays``); the new vertices of a level are the midpoints of
    the coarse edges, in their order, so the coarse ``edges`` prolong
    vertex values to the level (``_prolong``).  ``inside`` lists the edges
    whose two ends are both unknowns.  A system's entries are its n
    unknowns, in band order, then these m edges; entry k, at (i, j) with
    i <= j, goes into the raveled Fortran (w + 1, n) band that dpbtrf reads
    at ``band_at[k] = w + i - j + (w + 1) j``.  The mass is a CSR matrix on
    the pattern (``indptr``, ``indices``) of the diagonal and both
    orientations of every interior edge, and pattern place k holds entry
    ``gather[k]``.
    """

    vertices: np.ndarray
    elements: np.ndarray
    flags: np.ndarray
    pieces: np.ndarray  # piece of each element
    edges: np.ndarray  # (E, 2) vertex pairs (lo, hi)
    edge_of: np.ndarray  # (ne, 3) edge of each local edge
    edge_boundary: np.ndarray  # (E,) edges that lie in one element
    interior: np.ndarray  # interior vertices in band order
    inside: np.ndarray  # (m,) edges between two unknowns
    half_width: int
    band_at: np.ndarray  # (n + m,) band place of each entry
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray  # entry of each pattern place


@dataclass(frozen=True, eq=False)
class _ReferenceSystem:
    """Per-piece components of one layout's interior system at one level.

    Stiffness and mass lie on the reference's entries; ``stiffness`` holds
    the xx and yy parts of every piece, the only ones a diagonal map weights.
    Each is the sums of one piece's element parts over the reference's
    unknowns and interior edges.
    """

    stiffness: np.ndarray  # (pieces, 2, n + m)
    mass: np.ndarray  # (pieces, n + m)


@dataclass(frozen=True, eq=False)
class _System:
    """Interior stiffness (its values on the reference's entries), mass and
    lumped load (A/3 per vertex, twice the mass diagonal) of one shape at
    one level, ready to solve, with the mesh's largest edge ``h`` and its
    area."""

    stiffness: np.ndarray
    mass: sp.csr_matrix
    load: np.ndarray
    reference: _Reference
    level: int
    h: float
    area: float


def _check_integer(name: str, level) -> None:
    if not isinstance(level, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {level!r}")


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


def _edges(elements: np.ndarray) -> dict:
    """The edges of a base mesh by one sort: each vertex pair once, as
    (lo, hi) in lexicographic order, the edge of each local edge of every
    element, and the edges that lie in one element."""
    pairs = np.stack([elements[:, _NEXT], elements[:, _LAST]], axis=2)
    edges, inverse, counts = np.unique(
        np.sort(pairs, axis=2).reshape(-1, 2),
        axis=0,
        return_inverse=True,
        return_counts=True,
    )
    return {
        "edges": edges,
        "edge_of": inverse.reshape(elements.shape),
        "edge_boundary": counts == 1,
    }


def _refine_arrays(coarse: _Reference) -> dict:
    """One red refinement of a reference mesh, carrying its edges.

    The midpoint of coarse edge e is the new vertex nv + e, so the parents
    of the new vertices are the coarse ``edges``, and a midpoint lies on the
    boundary iff its edge does; old vertices keep their flags.  Child k of
    every element forms block k of the new elements.  Coarse edge e, with
    ends lo < hi, gives the halves (lo, nv + e) and (hi, nv + e), numbered e
    and E + e, which keep its boundary flag; coarse element t gives three
    inner edges, the one that joins the midpoints of its local edges k + 1
    and k + 2 numbered 2E + k ne + t.  The new ``edge_of`` follows from the
    coarse one, without a sort.
    """
    vertices, elements, edges = coarse.vertices, coarse.elements, coarse.edges
    nv, ne, n_edges = len(vertices), len(elements), len(edges)
    e0, e1, e2 = elements.T
    m12, m20, m01 = (nv + coarse.edge_of).T  # midpoint of the edge opposite each vertex

    def half(v, k):
        # the half of local edge k that holds local vertex v, at its lo or hi end
        other = elements[:, 3 - k - v]
        return coarse.edge_of[:, k] + n_edges * (elements[:, v] > other)

    i0, i1, i2 = 2 * n_edges + np.arange(3 * ne).reshape(3, ne)
    blocks = (
        ((e0, m01, m20), (i0, half(0, 1), half(0, 2))),
        ((m01, e1, m12), (half(1, 0), i1, half(1, 2))),
        ((m20, m12, e2), (half(2, 0), half(2, 1), i2)),
        ((m01, m12, m20), (i2, i0, i1)),
    )
    inner = np.concatenate([(m20, m01), (m01, m12), (m12, m20)], axis=1)
    midpoints = nv + np.arange(n_edges)
    return {
        "vertices": _prolong(vertices, edges),
        "elements": np.concatenate([np.column_stack(c) for c, _ in blocks]),
        "flags": np.concatenate([coarse.flags, coarse.edge_boundary]),
        "edges": np.concatenate(
            [
                np.column_stack([edges[:, 0], midpoints]),
                np.column_stack([edges[:, 1], midpoints]),
                np.sort(inner, axis=0).T,
            ]
        ),
        "edge_of": np.concatenate([np.column_stack(e) for _, e in blocks]),
        "edge_boundary": np.concatenate(
            [coarse.edge_boundary, coarse.edge_boundary, np.zeros(3 * ne, dtype=bool)]
        ),
    }


@functools.cache
def _reference(layout: str, level: int) -> _Reference:
    """The cached reference mesh of ``layout`` at ``level`` (read-only)."""
    if level == 0:
        vertices, elements, pieces = _LAYOUTS[layout]
        elements = np.array(elements, dtype=np.int64)
        mesh = {
            "vertices": np.array(vertices, dtype=float),
            "elements": elements,
            "flags": np.ones(len(vertices), dtype=bool),
            **_edges(elements),
        }
        pieces = np.array(pieces, dtype=np.int64)
    else:
        coarse = _reference(layout, level - 1)
        mesh = _refine_arrays(coarse)
        pieces = np.tile(coarse.pieces, 4)
    vertices = mesh["vertices"]
    interior = np.flatnonzero(~mesh["flags"])
    # reference coordinates are dyadic, so the sort keys are exact
    points = vertices[interior]
    long = int(np.argmax(np.ptp(vertices, axis=0)))
    interior = interior[np.lexsort((points[:, 1 - long], points[:, long]))]
    return _frozen(
        _Reference(
            **mesh,
            pieces=pieces,
            interior=interior,
            **_scatter_plan(mesh["edges"], interior, len(vertices)),
        )
    )


def _scatter_plan(edges: np.ndarray, interior: np.ndarray, nv: int) -> dict:
    """Interior edges of a mesh, the band place of each entry, and the mass
    pattern with the entry of each of its places.

    The entries are the n unknowns and then the m edges whose ends are both
    unknowns.  The pattern holds the diagonal and both orientations of
    every interior edge; one sort of their CSR keys ``row * n + col``
    orders it.
    """
    n = len(interior)
    unknown = np.full(nv, -1, dtype=np.int64)
    unknown[interior] = np.arange(n)
    i, j = unknown[edges[:, 0]], unknown[edges[:, 1]]
    inside = np.flatnonzero((i >= 0) & (j >= 0))
    lo = np.concatenate([np.arange(n), np.minimum(i, j)[inside]])
    hi = np.concatenate([np.arange(n), np.maximum(i, j)[inside]])
    w = int(np.max(hi - lo, initial=0))
    # each edge entry twice, once per orientation
    entry = np.concatenate([np.arange(len(lo)), np.arange(n, len(lo))])
    rows, cols = np.concatenate([lo, hi[n:]]), np.concatenate([hi, lo[n:]])
    order = np.argsort(rows * n + cols)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return {
        "inside": inside.astype(np.int32),
        "half_width": w,
        "band_at": (w + lo - hi + (w + 1) * hi).astype(np.int32),
        "indptr": indptr.astype(np.int32),
        "indices": cols[order].astype(np.int32),
        "gather": entry[order].astype(np.int32),
    }


def _element_geometry(vertices: np.ndarray, elements: np.ndarray):
    x, y = vertices[:, 0][elements], vertices[:, 1][elements]  # (ne, 3) each
    bvec = y[:, _NEXT] - y[:, _LAST]
    cvec = x[:, _LAST] - x[:, _NEXT]
    area2 = x[:, 0] * bvec[:, 0] + x[:, 1] * bvec[:, 1] + x[:, 2] * bvec[:, 2]
    return bvec, cvec, area2 / 2.0


def _element_parts(vertices: np.ndarray, elements: np.ndarray):
    """Element stiffness parts by local edge and vertex, and element areas.

    Local edge k joins local vertices k + 1 and k + 2 (mod 3).  Each of the
    parts xx and yy is a pair of (ne, 3) arrays: ``b_{k+1} b_{k+2} / 4A``
    on edge k and ``b_k^2 / 4A`` on vertex k for xx, the same in c for yy.
    A vertex keeps its own value rather than minus its edges' sum, which
    would cancel on thin elements.  The consistent mass is A/12 on each
    edge and A/6 on each vertex, and the lumped load A/3 on each vertex,
    so the areas A give both.
    """
    bvec, cvec, areas = _element_geometry(vertices, elements)
    if np.any(areas <= 0):
        raise DegenerateShape("mesh contains an element with nonpositive area")
    scale = 4.0 * areas[:, None]

    def part(u):
        return u[:, _NEXT] * u[:, _LAST] / scale, u * u / scale

    return part(bvec), part(cvec), areas


def _assemble(ref: _Reference, parts, group=None) -> np.ndarray:
    """Element parts on the reference's entries, (groups, parts, n + m).

    Each part is a pair of element arrays that broadcast to (ne, 3): the
    values of each local edge and of each local vertex.  bincount sums them
    onto the reference's edges and vertices, in input order, so the sums
    are reproducible; the entries are the sums on the unknowns and on the
    interior edges.  With ``group``, the group 0, 1, ... of each element,
    each group gets its own sums; without it there is one group.
    """
    n_edges, nv = len(ref.edges), len(ref.vertices)
    edge_bins, vertex_bins, groups = ref.edge_of, ref.elements, 1
    if group is not None:
        groups = int(group.max()) + 1
        edge_bins = edge_bins + (group * n_edges)[:, None]
        vertex_bins = vertex_bins + (group * nv)[:, None]

    def total(bins, values, size):
        values = np.broadcast_to(values, bins.shape).ravel()
        return np.bincount(bins.ravel(), values, groups * size).reshape(groups, size)

    n = len(ref.interior)
    out = np.empty((groups, len(parts), n + len(ref.inside)))
    for k, (on_edges, on_vertices) in enumerate(parts):
        out[:, k, :n] = total(vertex_bins, on_vertices, nv)[:, ref.interior]
        out[:, k, n:] = total(edge_bins, on_edges, n_edges)[:, ref.inside]
    return out


@functools.cache
def _reference_system(layout: str, level: int) -> _ReferenceSystem:
    """The cached per-piece interior system of ``layout`` at ``level``."""
    ref = _reference(layout, level)
    xx, yy, areas = _element_parts(ref.vertices, ref.elements)
    mass = (areas[:, None] / 12.0, areas[:, None] / 6.0)
    return _frozen(
        _ReferenceSystem(
            stiffness=_assemble(ref, (xx, yy), ref.pieces),
            mass=_assemble(ref, [mass], ref.pieces)[:, 0],
        )
    )


def _combine(parts, coefficients) -> np.ndarray:
    """``sum_k coefficients[k] * parts[k]``, in a fixed order."""
    out = None
    for c, part in zip(coefficients, parts):
        out = c * part if out is None else out + c * part
    return out


def _system(shape, level: int, base: Optional[Mesh] = None) -> _System:
    """Interior system of ``shape`` at ``level`` on its layout's entries.

    A triangle or rectangle combines its layout's cached components: a
    piece with diagonal map A contributes ``|det A| (G11 Kxx + G22 Kyy)``
    to the stiffness, with ``G = A^-1 A^-T``, and ``|det A|`` times its
    reference mass; its h halves per level from the longest edge of its
    level-0 mesh ``base`` (built here when not given), and its area is
    that mesh's.  A sector's mesh is built at ``level`` and its element
    Laplacian ``Kxx + Kyy`` and mass are assembled directly; its h is its
    longest edge and its area the sum of its element areas.  The lumped
    load is twice the mass diagonal, its first n entries.
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
        (kxx, vxx), (kyy, vyy), areas = _element_parts(mesh.vertices, mesh.elements)
        mass = (areas[:, None] / 12.0, areas[:, None] / 6.0)
        stiffness, mass = _assemble(ref, ((kxx + kyy, vxx + vyy), mass))[0]
        h = _longest_edge(mesh.vertices, ref.edges)
        area = float(areas.sum())
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
        h = _longest_edge(mesh.vertices, _reference(layout, 0).edges) / 2.0**level
        area = _mesh_area(mesh)
    return _System(
        stiffness=stiffness,
        mass=sp.csr_matrix((mass[ref.gather], ref.indices, ref.indptr), shape=(n, n)),
        load=2.0 * mass[:n],
        reference=ref,
        level=level,
        h=h,
        area=area,
    )


def mesh_domain(shape, level: int) -> Mesh:
    """Uniform red-refined mesh of a triangle, rectangle, or sector.

    The level-0 image of the shape's layout, prolonged one level at a time
    through the coarse reference's edges: new vertices are the midpoints of
    those edges, and on a sector those on the rim are projected back to
    the circle.  A triangle whose apex lies off its base is meshed as its
    congruent copy with the longest side on the x-axis.  A non-integer
    ``level`` raises ValueError.
    """
    _check_integer("level", level)
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
        vertices = _prolong(vertices, ref.edges)
        ref = _reference(layout, fine)
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
    fills from the stiffness entries, so the system is left as it was, and
    every solve is one dpbtrs call on that factor.  A nonpositive pivot
    raises NotPositiveDefinite.  The eigenpair comes from Lanczos on
    ``K^-1 M`` in the M inner product, started from ``x0`` (on all
    vertices) or, without it, from the torsion function.  The basis V is
    M-orthonormal and carries its images MV; a step solves ``K w = M v_j``,
    takes one mass product ``M w`` and one full Gram-Schmidt pass with
    ``h = MV w``, so ``alpha_j = h_j`` and ``beta_j = |w|_M``.  The
    eigenvalue is 1 / mu for the largest eigenvalue mu of the tridiagonal
    T of these (LAPACK dstev), the eigenvector is ``V y``, and
    ``eigen_residual`` is ``r / mu`` for its M-norm residual
    ``r = beta_j |y_j|``.  The loop stops when ``r^2 <= _EIG_TOL mu gap``,
    with gap = mu less T's second eigenvalue, which estimates the gap that
    puts mu within ``r^2 / gap`` of an eigenvalue (Parlett, 1998); mu
    stands in for the gap of the one-vector basis.  An invariant subspace
    (beta_j near 0) gives r near 0.  Every basis vector is kept, one per
    step; the storage grows _BLOCK rows at a time, which changes no value.
    EigenNotConverged is raised after _EIG_MAXIT steps, or for a start
    vector without a positive finite M-norm (a zero ``x0``, say).
    """
    ref = system.reference
    mass, idx = system.mass, ref.interior
    width, n = ref.half_width, len(idx)
    band = np.zeros((width + 1) * n)
    band[ref.band_at] = system.stiffness
    factor, info = lapack.dpbtrf(
        band.reshape((width + 1, n), order="F"), overwrite_ab=1
    )
    if info > 0:
        raise NotPositiveDefinite(
            f"stiffness at level {system.level}: Cholesky pivot {info} of "
            f"{n} is not positive"
        )
    u = lapack.dpbtrs(factor, system.load)[0]
    x = u if x0 is None else x0[idx]
    mx = mass @ x
    norm = float(x @ mx)
    if not (0.0 < norm < math.inf):
        raise EigenNotConverged(
            f"start vector at level {system.level} has squared M-norm {norm!r}"
        )
    norm = math.sqrt(norm)
    # rows of the M-orthonormal basis and their mass images, grown _BLOCK
    # rows at a time
    basis, images = np.empty((_BLOCK, n)), np.empty((_BLOCK, n))
    basis[0], images[0] = x / norm, mx / norm
    # T, the projection of K^-1 M on the basis: its diagonal and off-diagonal
    alpha, off = np.empty(_EIG_MAXIT), np.zeros(_EIG_MAXIT)
    for k in range(1, _EIG_MAXIT + 1):  # k basis rows in use, one step each
        w = lapack.dpbtrs(factor, images[k - 1])[0]
        mw = mass @ w
        h = images[:k] @ w
        w -= h @ basis[:k]
        mw -= h @ images[:k]
        beta = math.sqrt(max(float(w @ mw), 0.0))
        alpha[k - 1] = h[k - 1]
        # dstev reads at least one off-diagonal entry, unused when k is 1
        mus, ys, _ = lapack.dstev(alpha[:k], off[: max(k - 1, 1)])
        mu, y = float(mus[-1]), ys[:, -1]
        gap = float(mus[-1] - mus[-2]) if k > 1 else mu
        r = beta * abs(float(y[-1]))
        if r * r <= _EIG_TOL * mu * gap:
            break
        if k == _EIG_MAXIT:
            raise EigenNotConverged(
                f"estimated relative eigenvalue error {r * r / (mu * gap):.1e} "
                f"after {_EIG_MAXIT} Lanczos steps exceeds {_EIG_TOL:.0e}"
            )
        if k == len(basis):
            basis = np.concatenate((basis, np.empty((_BLOCK, n))))
            images = np.concatenate((images, np.empty((_BLOCK, n))))
        off[k - 1] = beta
        np.divide(w, beta, out=basis[k])
        np.divide(mw, beta, out=images[k])
    eigvec = np.zeros(len(ref.vertices))
    eigvec[idx] = y @ basis[:k]
    return {
        "lambda1": 1.0 / mu,
        "T": float(system.load @ u),
        "torsion_max": float(u.max()),
        "eigvec": eigvec,
        "eigen_iterations": k,
        "eigen_residual": r / mu,
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


def _longest_edge(vertices: np.ndarray, edges: np.ndarray) -> float:
    lengths = np.linalg.norm(vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1)
    return float(lengths.max())


def _prolong(x: np.ndarray, parents: np.ndarray) -> np.ndarray:
    mids = 0.5 * (x[parents[:, 0]] + x[parents[:, 1]])
    return np.concatenate([x, mids])


def spectral(shape, max_level: int) -> SpectralResult:
    """Eigenvalue, torsion, and their scale-invariant ratio with extrapolation.

    Solves on levels max_level-2 .. max_level with one factorization per
    level, warm-starting each eigenvalue solve from the prolonged
    eigenvector of the previous level, then Richardson-extrapolates.
    ``per_level["eigen_iterations"]`` counts the Lanczos steps of each
    level (one solve and one mass product each), ``eigen_residual`` the
    relative M-norm residual of its final Ritz pair, which sets its stop,
    ``per_level["elements"]`` its elements, ``per_level["dofs"]``
    its interior vertices n, the unknowns of its solves, and
    ``per_level["lu_nnz"]`` the entries of its stored banded Cholesky
    factor, (w + 1) n for half-bandwidth w.  Every level's system comes
    from ``_system``, so a triangle or rectangle is solved from one level-0
    mesh, without building its refined meshes.  A non-integer
    ``max_level`` raises ValueError before any solve.
    """
    _check_integer("max_level", max_level)
    if max_level < 2:
        raise ValueError("spectral needs max_level >= 2")
    if max_level > MAX_LEVEL:
        raise LevelTooHigh(f"max_level {max_level} exceeds the cap {MAX_LEVEL}")
    levels = [max_level - 2, max_level - 1, max_level]
    base = None if isinstance(shape, Sector) else mesh_domain(shape, 0)
    systems = [_system(shape, level, base) for level in levels]

    per_level: dict = {}
    warm: Optional[np.ndarray] = None
    for coarse, system in zip([None, *systems], systems):
        if coarse is not None:
            warm = _prolong(warm, coarse.reference.edges)
        solved = _solve_system(system, warm)
        warm = solved.pop("eigvec")
        for key, value in solved.items():
            per_level.setdefault(key, []).append(value)
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
