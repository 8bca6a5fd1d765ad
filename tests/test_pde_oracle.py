"""Finite element oracle: convergence, invariances, and failure modes."""

import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from polya_verify import geometry, harness, pde_oracle
from polya_verify.closed_forms import (
    bessel_first_zero,
    equilateral_exact,
    rect_torsion,
    sector_torsion,
)
from polya_verify.geometry import Rectangle, Sector, Triangle
from polya_verify.pde_oracle import (
    MAX_LEVEL,
    DegenerateShape,
    EigenNotConverged,
    LevelTooHigh,
    NonContracting,
    NotPositiveDefinite,
    SpectralResult,
    mesh_domain,
    richardson,
    spectral,
)

EQ_B = math.sqrt(3.0) / 2.0


def test_equilateral_convergence_at_level_six():
    truth = equilateral_exact()
    res = spectral(Triangle(0.5, EQ_B), max_level=6)
    assert isinstance(res, SpectralResult)
    assert res.lambda1 == pytest.approx(truth["lambda1"], rel=1e-3)
    assert res.T == pytest.approx(truth["T"], rel=1e-3)
    assert res.F == pytest.approx(truth["F"], rel=1e-3)
    assert res.torsion_max == pytest.approx(1.0 / 36.0, rel=5e-3)
    assert res.area == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-12)


def test_square_convergence_at_level_six():
    res = spectral(Rectangle(0.5, 0.5), max_level=6)
    assert res.lambda1 == pytest.approx(2.0 * math.pi**2, rel=1e-3)
    truth = rect_torsion(Rectangle(0.5, 0.5), n_terms=128)
    assert res.T == pytest.approx(truth.value, rel=1e-3)


def test_sector_convergence_with_boundary_projection():
    sec = Sector(math.pi / 3.0, 1.0)
    res = spectral(sec, max_level=6)
    lam_truth = bessel_first_zero(3.0) ** 2
    tor_truth = sector_torsion(sec, n_terms=128)
    assert res.lambda1 == pytest.approx(lam_truth, rel=5e-3)
    assert res.T == pytest.approx(tor_truth.value, rel=5e-3)
    assert res.area == pytest.approx(math.pi / 6.0, rel=1e-12)


def _corner_angles(mesh):
    """(ne, 3) interior angles of every element."""
    v = mesh.vertices[mesh.elements]
    angles = []
    for i in range(3):
        e1 = v[:, (i + 1) % 3] - v[:, i]
        e2 = v[:, (i + 2) % 3] - v[:, i]
        cos = np.sum(e1 * e2, axis=1) / (
            np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
        )
        angles.append(np.arccos(np.clip(cos, -1.0, 1.0)))
    return np.column_stack(angles)


@pytest.mark.parametrize("angle", (0.3, math.pi / 3.0, 1.4, 2.5, 3.1))
def test_sector_base_fan_is_sized_to_the_opening(angle):
    base = mesh_domain(Sector(angle, 1.0), level=0)
    wedges = math.ceil(angle / (math.pi / 3.0))
    assert len(base.elements) == wedges
    assert len(base.vertices) == wedges + 2
    assert np.all(_corner_angles(base) <= math.pi / 2.0 + 1e-12)
    assert np.all(base.boundary_flags)


@pytest.mark.parametrize("angle", (0.3, math.pi / 6.0, math.pi / 3.0, 1.4))
def test_sector_gauges_and_per_level_sides_are_calibrated(angle):
    sec = Sector(angle, 1.0)
    res = spectral(sec, max_level=6)
    lam_truth = bessel_first_zero(math.pi / angle) ** 2
    tor = sector_torsion(sec, n_terms=4000)
    # conforming elements: eigenvalues from above, torsion energy from below
    assert all(lam >= lam_truth for lam in res.per_level["lambda1"])
    assert all(t <= tor.value - tor.tail_bound for t in res.per_level["T"])
    assert abs(res.lambda1 - lam_truth) <= res.error_gauge["lambda1"]
    assert abs(res.T - tor.value) + tor.tail_bound <= res.error_gauge["T"]
    wedges = math.ceil(angle / (math.pi / 3.0))
    assert res.per_level["elements"] == tuple(wedges * 4**level for level in res.levels)


def test_conforming_bounds_bracket_the_truth_per_level():
    truth = equilateral_exact()
    res = spectral(Triangle(0.5, EQ_B), max_level=6)
    lam_levels = res.per_level["lambda1"]
    tor_levels = res.per_level["T"]
    # conforming elements: eigenvalues from above, torsion energy from below
    assert all(lam >= truth["lambda1"] for lam in lam_levels)
    assert all(tor <= truth["T"] for tor in tor_levels)
    assert all(a >= b for a, b in zip(lam_levels, lam_levels[1:]))
    assert all(a <= b for a, b in zip(tor_levels, tor_levels[1:]))


def test_error_gauges_bound_the_true_error_at_the_equilateral():
    truth = equilateral_exact()
    res = spectral(Triangle(0.5, EQ_B), max_level=6)
    assert abs(res.lambda1 - truth["lambda1"]) <= 10.0 * res.error_gauge["lambda1"]
    assert res.error_gauge["lambda1"] > 0.0
    assert res.error_gauge["T"] > 0.0
    assert res.error_gauge["F"] >= 0.0


@pytest.mark.parametrize(
    "shape",
    [Triangle(0.5, EQ_B), Rectangle(0.5, 0.5), Sector(math.pi / 3.0, 1.0)],
    ids=["equilateral", "square", "sector"],
)
def test_observed_orders_are_two_on_smooth_references(shape):
    res = spectral(shape, max_level=6)
    assert set(res.observed_order) == {"lambda1", "T"}
    for order in res.observed_order.values():
        assert 1.9 <= order <= 2.1


def test_dilation_invariance_of_the_functional():
    small = spectral(Rectangle(0.5, 0.5), max_level=5)
    big = spectral(Rectangle(1.0, 1.0), max_level=5)
    assert big.F == pytest.approx(small.F, rel=1e-10)
    assert big.lambda1 == pytest.approx(small.lambda1 / 4.0, rel=1e-10)
    assert big.T == pytest.approx(16.0 * small.T, rel=1e-10)


def test_levels_and_h_sequence_shape():
    res = spectral(Triangle(0.3, 0.5), max_level=5)
    assert res.levels == (3, 4, 5)
    assert len(res.h_sequence) == 3
    assert res.h_sequence[0] > res.h_sequence[1] > res.h_sequence[2]
    assert res.h_sequence[1] == pytest.approx(res.h_sequence[0] / 2.0, rel=1e-12)


def _parents(shape, level):
    """Parent pairs of the vertices new at ``level`` in the shape's meshes."""
    return pde_oracle._reference(pde_oracle._piece_maps(shape)[0], level).parents


_OFF_BASE = [(-2.0, 0.1), (-0.5, 0.05), (0.0, 0.7), (1.0, 0.4), (1.3, 0.6)]


@pytest.mark.parametrize("a, b", _OFF_BASE)
def test_off_base_triangles_match_their_similar_chart_triangle(a, b):
    # F is similarity-invariant, and the mesh of a triangle whose apex lies
    # off the interior of its base is that of its chart copy scaled by L
    sides = (1.0, math.hypot(a, b), math.hypot(1.0 - a, b))
    longest = max(sides)
    chart = geometry.triangle_from_sides(longest, 1.0, min(sides[1:]))
    assert 0.0 < chart.a < 1.0
    res, ref = spectral(Triangle(a, b), 6), spectral(chart, 6)
    assert res.F == pytest.approx(ref.F, rel=1e-12, abs=0.0)
    assert res.lambda1 * longest**2 == pytest.approx(ref.lambda1, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a, b", _OFF_BASE)
def test_off_base_triangle_meshes_keep_the_maximum_angle_condition(a, b):
    mesh = mesh_domain(Triangle(a, b), 3)
    assert np.all(_corner_angles(mesh).max(axis=1) <= math.pi / 2.0 + 1e-9)
    assert pde_oracle._mesh_area(mesh) == pytest.approx(b / 2.0, rel=1e-12)


@pytest.mark.parametrize(
    "a, b, raises", [(-1000.0, 1e-3, True), (-100.0, 1e-4, True), (-100.0, 0.1, False)]
)
def test_meshing_cutoff_agrees_between_similar_triangles(a, b, raises):
    # the cutoff reads the apex height over the longest side relative to that
    # side, so a triangle and its chart copy (that side scaled to [0, 1])
    # fall on the same side of it; relative heights 1e-9, 1e-8 and 9.8e-6
    length = math.hypot(1.0 - a, b)
    chart = Triangle((1.0 - a) / length**2, b / length**2)
    if raises:
        for shape in (Triangle(a, b), chart):
            with pytest.raises(DegenerateShape, match="meshing cutoff"):
                spectral(shape, 5)
    else:
        res, ref = spectral(Triangle(a, b), 5), spectral(chart, 5)
        assert res.F == pytest.approx(ref.F, rel=1e-12, abs=0.0)


def test_mesh_refinement_quadruples_elements():
    shape = Triangle(0.4, 0.6)
    mesh = mesh_domain(shape, level=3)
    fine = mesh_domain(shape, level=4)
    parents = _parents(shape, 4)
    assert fine.elements.shape[0] == 4 * mesh.elements.shape[0]
    assert fine.level == mesh.level + 1
    # one parent pair per new midpoint vertex
    assert parents.shape == (fine.vertices.shape[0] - mesh.vertices.shape[0], 2)


def test_single_level_solvers_run_standalone():
    solved = pde_oracle._solve_system(pde_oracle._system(Rectangle(0.5, 0.5), 4))
    assert solved["lambda1"] == pytest.approx(2.0 * math.pi**2, rel=2e-2)
    assert solved["T"] == pytest.approx(0.035144, rel=2e-2)
    assert solved["torsion_max"] <= 0.0736713  # conforming nodal max from below


def _edge_count_flags(mesh):
    """Boundary vertices recomputed independently: ends of single-use edges."""
    e = mesh.elements
    pairs = np.sort(np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    flags = np.zeros(len(mesh.vertices), dtype=bool)
    flags[uniq[counts == 1].ravel()] = True
    return flags


@pytest.mark.parametrize(
    "shape",
    [Triangle(0.3, 0.4), Rectangle(0.5, 0.25), Sector(math.pi / 3.0, 1.0)],
    ids=["triangle", "rectangle", "sector"],
)
def test_refinement_boundary_flags_match_edge_counts(shape):
    coarse = None
    for level in range(6):
        mesh = mesh_domain(shape, level)
        assert np.array_equal(mesh.boundary_flags, _edge_count_flags(mesh))
        if coarse is not None:
            # the meshes nest: a level keeps the vertices and flags below it
            old = len(coarse.vertices)
            assert np.array_equal(mesh.vertices[:old], coarse.vertices)
            assert np.array_equal(mesh.boundary_flags[:old], coarse.boundary_flags)
        coarse = mesh


@pytest.mark.parametrize("angle", (0.3, math.pi / 3.0, 1.4, 3.1))
def test_sector_refinement_keeps_midpoints_and_the_arc(angle):
    radius = 1.5
    shape = Sector(angle, radius)
    mesh = mesh_domain(shape, level=0)
    direction = np.array([math.cos(angle), math.sin(angle)])
    for level in range(1, 6):
        fine = mesh_domain(shape, level)
        parents = _parents(shape, level)
        old = len(mesh.vertices)
        assert np.array_equal(fine.vertices[:old], mesh.vertices)
        new = fine.vertices[old:]
        ends = mesh.vertices[parents]  # (n_mid, 2, 2)
        on_circle = np.all(
            np.abs(np.linalg.norm(ends, axis=2) - radius) <= 1e-14 * radius, axis=1
        )
        assert np.any(on_circle)
        # every new vertex off the arc is the midpoint of its parents
        mids = 0.5 * (ends[:, 0] + ends[:, 1])
        assert np.allclose(new[~on_circle], mids[~on_circle], rtol=0.0, atol=1e-15)
        # an arc midpoint lies on the circle at the mean angle of its parents
        arc = new[on_circle]
        arc_angle = np.arctan2(arc[:, 1], arc[:, 0])
        ends_angle = np.arctan2(ends[on_circle, :, 1], ends[on_circle, :, 0])
        assert np.allclose(np.linalg.norm(arc, axis=1), radius, rtol=1e-15, atol=0.0)
        assert np.allclose(arc_angle, ends_angle.mean(axis=1), rtol=0.0, atol=1e-14)
        # every boundary vertex lies on one of the two radii or on the circle
        v = fine.vertices[fine.boundary_flags]
        tol = 1e-14 * radius
        first_radius = (np.abs(v[:, 1]) <= tol) & (v[:, 0] >= -tol)
        across = v[:, 0] * direction[1] - v[:, 1] * direction[0]
        last_radius = (np.abs(across) <= tol) & (v @ direction >= -tol)
        circle = np.abs(np.linalg.norm(v, axis=1) - radius) <= tol
        assert np.all(first_radius | last_radius | circle)
        assert np.all(np.linalg.norm(fine.vertices, axis=1) <= radius + tol)
        mesh = fine


@pytest.mark.parametrize(
    "shape",
    [Triangle(0.5, EQ_B), Triangle(0.5, 0.04), Sector(math.pi / 3.0, 1.0)],
    ids=["equilateral", "thin", "sector"],
)
def test_spectral_factors_once_per_level(monkeypatch, shape):
    calls = []
    dpbtrf = pde_oracle.lapack.dpbtrf

    def counting_dpbtrf(band, **kwargs):
        factor, info = dpbtrf(band, **kwargs)
        calls.append((factor.shape[1], factor.size))
        return factor, info

    monkeypatch.setattr(pde_oracle.lapack, "dpbtrf", counting_dpbtrf)
    res = spectral(shape, max_level=6)
    assert len(calls) == len(res.levels) == 3
    sizes, entries = zip(*calls)
    assert sizes[0] < sizes[1] < sizes[2]
    assert sizes == res.per_level["dofs"]
    # the stored factor is the (w + 1, n) band
    assert res.per_level["lu_nnz"] == entries


def test_spectral_levels_match_single_level_solvers():
    shape = Triangle(0.3, 0.4)
    res = spectral(shape, max_level=5)
    for i, level in enumerate(res.levels):
        mesh = mesh_domain(shape, level)
        assert res.per_level["elements"][i] == len(mesh.elements)
        assert res.per_level["dofs"][i] == int(np.count_nonzero(~mesh.boundary_flags))
        solved = pde_oracle._solve_system(pde_oracle._system(shape, level))
        assert res.per_level["T"][i] == solved["T"]
        assert res.per_level["torsion_max"][i] == solved["torsion_max"]
        assert res.per_level["lambda1"][i] == pytest.approx(
            solved["lambda1"], rel=1e-11
        )


def test_spectral_reports_eigen_iterations_per_level():
    res = spectral(Triangle(0.5, 0.04), max_level=6)
    iterations = res.per_level["eigen_iterations"]
    assert isinstance(iterations, tuple)
    assert len(iterations) == len(res.levels)
    assert all(isinstance(n, int) and 0 < n <= pde_oracle._EIG_MAXIT for n in iterations)


def _stiffness_matrix(system):
    """The stiffness of ``system``, values on its reference's pattern, as a
    sparse matrix."""
    ref = system.reference
    n = len(ref.interior)
    return sp.csc_matrix((system.stiffness, ref.indices, ref.indptr), shape=(n, n))


def _negated_diagonal(system, k):
    """``system`` with the k-th diagonal entry of its stiffness negated."""
    ref = system.reference
    column = ref.indices[ref.indptr[k] : ref.indptr[k + 1]]
    at = ref.indptr[k] + np.flatnonzero(column == k)
    stiffness = system.stiffness.copy()
    stiffness[at] = -stiffness[at]
    return dataclasses.replace(system, stiffness=stiffness)


@pytest.mark.parametrize(
    "shape",
    [Triangle(0.3, 0.4), Sector(math.pi / 3.0, 1.0)],
    ids=["triangle", "sector"],
)
def test_a_system_solves_the_same_way_twice(shape):
    # the factorization overwrites its band, so it must not be the system's
    system = pde_oracle._system(shape, 5)
    first = pde_oracle._solve_system(system)
    second = pde_oracle._solve_system(system)
    assert np.array_equal(first.pop("eigvec"), second.pop("eigvec"))
    assert first == second


def test_indefinite_stiffness_raises_not_positive_definite():
    system = pde_oracle._system(Triangle(0.3, 0.4), 4)
    k = len(system.reference.interior) // 2
    with pytest.raises(NotPositiveDefinite, match=r"level 4: Cholesky pivot \d+ of"):
        pde_oracle._solve_system(_negated_diagonal(system, k))
    # the unchanged system factors
    assert pde_oracle._solve_system(system)["T"] > 0.0


def test_indefinite_stiffness_flags_the_sweep_row(monkeypatch):
    system = pde_oracle._system

    def indefinite(shape, level, base=None):
        return _negated_diagonal(system(shape, level, base), 0)

    monkeypatch.setattr(pde_oracle, "_system", indefinite)
    rows = harness.sweep_triangles(
        grid={"na": 2, "nb": 1, "b_min": 0.5}, max_level=4, threads=1
    )
    assert len(rows) == 1
    assert rows[0].error.startswith("NotPositiveDefinite: stiffness at level 2:")
    assert math.isnan(rows[0].F)


def test_unconverged_eigen_iteration_raises_and_flags_the_sweep_row(monkeypatch):
    monkeypatch.setattr(pde_oracle, "_EIG_MAXIT", 2)
    with pytest.raises(EigenNotConverged):
        spectral(Triangle(0.3, 0.4), max_level=4)
    rows = harness.sweep_triangles(
        grid={"na": 2, "nb": 1, "b_min": 0.5}, max_level=4, threads=1
    )
    assert len(rows) == 1
    assert rows[0].error.startswith("EigenNotConverged")
    assert math.isnan(rows[0].F)


def test_richardson_extrapolation_recovers_quadratic_limits():
    limit = 3.7
    values = [limit + 0.9 * 4.0 ** (-k) for k in range(4)]
    out = richardson(values)
    assert out["estimate"] == pytest.approx(limit, abs=1e-12)
    assert out["observed_order"] == pytest.approx(2.0, abs=1e-9)
    assert out["error_gauge"] >= 0.0


def test_richardson_rejects_noncontracting_sequences():
    with pytest.raises(NonContracting):
        richardson([1.0, 1.1, 1.4])
    with pytest.raises(ValueError):
        richardson([1.0, 2.0])


def test_level_limits_are_enforced():
    with pytest.raises(LevelTooHigh):
        spectral(Triangle(0.5, 0.5), max_level=MAX_LEVEL + 1)
    with pytest.raises(ValueError):
        spectral(Triangle(0.5, 0.5), max_level=1)


def test_thin_triangle_still_solves():
    res = spectral(Triangle(0.5, 0.05), max_level=7)
    assert res.F > math.pi**2 / 24.0
    assert res.F < 0.55


# P2 values with consistent mass on the altitude-split mesh (see CHANGES.md)
@pytest.mark.parametrize("b, f_p2", [(0.04, 0.471452), (0.05, 0.481216)])
@pytest.mark.parametrize("level", [6, 7])
def test_thin_triangle_gauges_cover_the_p2_value(b, f_p2, level):
    res = spectral(Triangle(0.5, b), max_level=level)
    assert abs(res.F - f_p2) <= res.error_gauge["F"], (res.F, res.error_gauge["F"])
    if level == 7:
        assert res.observed_order["lambda1"] >= 1.8, res.observed_order


def _coo_system(mesh):
    """Interior system of a mesh, assembled element by element on all
    vertices and then restricted: an independent route to ``_system``."""
    nv = len(mesh.vertices)
    elems = mesh.elements
    v = mesh.vertices[elems]
    x, y = v[:, :, 0], v[:, :, 1]
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    areas = 0.5 * np.einsum("ij,ij->i", x, bvec)
    ke = (
        bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :]
    ) / (4.0 * areas)[:, None, None]
    me = areas[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
    rows = np.repeat(elems, 3, axis=1).ravel()
    cols = np.tile(elems, (1, 3)).ravel()
    stiffness = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    mass = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    load = np.zeros(nv)
    np.add.at(load, elems.ravel(), np.repeat(areas / 3.0, 3))
    idx = np.flatnonzero(~mesh.boundary_flags)
    return stiffness[np.ix_(idx, idx)], mass[np.ix_(idx, idx)], load[idx], idx


@pytest.mark.parametrize(
    "shape, elements",
    [
        (Triangle(0.3, 0.4), 2),
        (Triangle(0.5, 0.05), 2),
        (Triangle(0.0, 0.7), 2),
        (Triangle(-0.2, 0.5), 2),
        (Triangle(1.3, 0.6), 2),
        (Rectangle(0.5, 0.25), 2),
        (Sector(0.3, 1.0), 1),
        (Sector(math.pi / 3.0, 1.0), 1),
        (Sector(1.4, 1.0), 2),
        (Sector(3.1, 1.0), 3),
    ],
    ids=[
        "split", "thin-split", "a=0", "a=-0.2", "a=1.3", "rectangle",
        "sector-0.3", "sector-pi/3", "sector-1.4", "sector-3.1",
    ],
)
def test_cached_assembly_matches_elementwise_assembly(shape, elements):
    level = 4
    mesh = mesh_domain(shape, level)
    assert len(mesh.elements) == elements * 4**level
    system = pde_oracle._system(shape, level)
    ref = system.reference
    stiffness, mass, load, idx = _coo_system(mesh)
    # the same unknowns, in the system's band order
    assert np.array_equal(np.sort(ref.interior), idx)
    order = np.argsort(ref.interior)
    for combined, direct in (
        (_stiffness_matrix(system), stiffness),
        (system.mass, mass),
    ):
        scale = abs(direct).max()
        assert abs(combined[order][:, order] - direct).max() <= 1e-13 * scale
    assert np.allclose(system.load[order], load, rtol=1e-13, atol=0.0)

    # the same mesh solved from the element-by-element system, taken to the
    # band order and read on the reference's pattern
    rank = np.argsort(order)
    stiffness = stiffness[rank][:, rank]
    columns = np.repeat(np.arange(len(idx)), np.diff(ref.indptr))
    plain = pde_oracle._solve_system(
        dataclasses.replace(
            system,
            stiffness=np.asarray(stiffness[ref.indices, columns]).ravel(),
            mass=mass[rank][:, rank],
            load=load[rank],
        )
    )
    solved = pde_oracle._solve_system(system)
    assert solved["T"] == pytest.approx(plain["T"], rel=1e-12)
    assert solved["lambda1"] == pytest.approx(plain["lambda1"], rel=1e-12)


_LAYOUT_SHAPES = {
    "split": Triangle(0.3, 0.4),
    "square": Rectangle(0.5, 0.25),
    "fan1": Sector(0.3, 1.0),
    "fan2": Sector(1.4, 1.0),
    "fan3": Sector(3.1, 1.0),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUT_SHAPES))
def test_band_order_bounds_the_half_width_and_the_band_is_exact(monkeypatch, layout):
    shape = _LAYOUT_SHAPES[layout]
    assert pde_oracle._piece_maps(shape)[0] == layout
    bands = []
    dpbtrf = pde_oracle.lapack.dpbtrf

    def reading_dpbtrf(band, **kwargs):
        bands.append((band.flags.f_contiguous, band.copy(order="F")))
        return dpbtrf(band, **kwargs)

    monkeypatch.setattr(pde_oracle.lapack, "dpbtrf", reading_dpbtrf)
    for level in range(1, 6):
        ref = pde_oracle._reference(layout, level)
        n = len(ref.interior)
        columns = np.repeat(np.arange(n), np.diff(ref.indptr))
        assert np.all(columns - ref.indices <= 2**level)
        w = ref.half_width
        assert w == np.max(columns - ref.indices, initial=0) <= 2**level
        # the map is built without unknowns too, and it sends the entries
        # below the diagonal, and only those, to the discard bin
        assert np.array_equal(ref.band_at == (w + 1) * n, ref.indices > columns)
        if n == 0:
            continue
        system = pde_oracle._system(shape, level)
        pde_oracle._solve_system(system)
        f_contiguous, band = bands.pop()
        assert f_contiguous
        assert band.shape == (w + 1, n)
        # entry (i, j), i <= j, of the matrix sits at band[w + i - j, j]
        dense = np.zeros((n, n))
        for d in range(w + 1):
            dense += np.diag(band[w - d, d:], d)
        assert np.array_equal(dense, np.triu(_stiffness_matrix(system).toarray()))


def test_cached_reference_arrays_are_read_only():
    mesh = mesh_domain(Triangle(0.3, 0.4), 3)
    system = pde_oracle._reference_system("split", 3)
    ref = pde_oracle._reference("split", 3)
    arrays = (
        mesh.elements, mesh.boundary_flags, system.stiffness, ref.interior,
        ref.indptr, ref.indices, ref.slot, ref.load_at, ref.band_at,
    )
    assert not any(array.flags.writeable for array in arrays)


@pytest.mark.parametrize(
    "shape",
    [
        Triangle(math.nan, 0.5),
        Triangle(math.inf, 0.5),
        Triangle(0.3, math.inf),
        Rectangle(math.inf, 1.0),
        Sector(1.0, math.inf),
    ],
    ids=["triangle-a-nan", "triangle-a-inf", "triangle-b-inf", "rectangle", "sector"],
)
def test_non_finite_shapes_raise_degenerate_shape(shape):
    with pytest.raises(DegenerateShape):
        spectral(shape, max_level=4)
    with pytest.raises(DegenerateShape):
        mesh_domain(shape, 2)


@pytest.mark.parametrize("workers", [2, 4])
def test_sweep_rows_do_not_depend_on_the_thread_count(workers):
    # a cold cache and frequent thread switches, so that the workers race to
    # build the shared reference systems
    pde_oracle._reference.cache_clear()
    pde_oracle._reference_system.cache_clear()
    grid = {"na": 4, "nb": 4, "b_min": 0.05}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = harness.sweep_triangles(grid=grid, max_level=5, threads=workers)
    finally:
        sys.setswitchinterval(interval)
    one = harness.sweep_triangles(grid=grid, max_level=5, threads=1)
    assert len(one) == 9
    assert not any(row.error for row in one)
    assert many == one
    memo = pde_oracle._reference_system
    assert memo.cache_info().currsize == 3
    for level in (3, 4, 5):
        hits = memo.cache_info().hits
        memo("split", level)
        assert memo.cache_info().hits == hits + 1
