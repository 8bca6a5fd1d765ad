"""Verification toolkit for the eigenvalue-torsion shape functional.

The package computes F(D) = lambda_1(D) * T(D) / |D| on triangles,
rectangles, and circular sectors, evaluates the closed forms, series,
and analytic bounds that squeeze it between pi^2/24 and pi^2/12 on
triangles, certifies the underlying polynomial inequalities in exact
rational arithmetic, and cross-checks everything against an independent
finite element oracle.

Modules:

- geometry: triangle/rectangle/sector types, charts, exact region tests;
- constants: rational enclosures of the transcendental constants used;
- closed_forms: exact values and series with explicit truncation tails;
- bounds: the individual eigenvalue and torsion bounds with validity;
- polycert: exact nonpositivity certificates for rational polynomials;
- pde_oracle: conforming finite element solver with extrapolation;
- exact: the six analytic case replays, evidence reports, the certificate
  plan and the band-floor cell certifier, on the standard library alone;
- harness: the oracle-backed replays, the case list, sweeps, and scans.
"""

from .bounds import (
    BoundValue,
    eig_lb_diameter_height,
    eig_lb_sector,
    thinning_upper,
    torsion_lb_equilateral_test,
    torsion_lb_obtuse_test,
    upper_chain,
)
from .closed_forms import (
    SeriesValue,
    bessel_first_zero,
    equilateral_exact,
    rect_F,
    rect_center_torsion,
    rect_lambda1,
    rect_torsion,
    sector_torsion,
)
from .constants import RationalInterval, as_fraction, enclose
from .geometry import (
    Rectangle,
    Sector,
    Triangle,
    TriangleClass,
    TriangleData,
    chart_swap,
    classify,
    derive,
    in_region,
    triangle_from_sides,
)
from .exact import CaseReport, EvidenceItem, certify_all, certify_g_floor
from .harness import (
    REPLAY_IDS,
    g_remark_check,
    rect_monotonicity_scan,
    replay_all,
    replay_case,
    sweep_triangles,
)
from .pde_oracle import SpectralResult, spectral
from .polycert import Certificate, RationalPoly, build_lemma_polynomial, certify_nonpositive

__version__ = "0.1.0"

__all__ = [
    "BoundValue",
    "CaseReport",
    "Certificate",
    "EvidenceItem",
    "REPLAY_IDS",
    "RationalInterval",
    "RationalPoly",
    "Rectangle",
    "Sector",
    "SeriesValue",
    "SpectralResult",
    "Triangle",
    "TriangleClass",
    "TriangleData",
    "as_fraction",
    "bessel_first_zero",
    "build_lemma_polynomial",
    "certify_all",
    "certify_g_floor",
    "certify_nonpositive",
    "chart_swap",
    "classify",
    "derive",
    "eig_lb_diameter_height",
    "eig_lb_sector",
    "enclose",
    "equilateral_exact",
    "g_remark_check",
    "in_region",
    "rect_F",
    "rect_center_torsion",
    "rect_lambda1",
    "rect_monotonicity_scan",
    "rect_torsion",
    "replay_all",
    "replay_case",
    "sector_torsion",
    "spectral",
    "sweep_triangles",
    "thinning_upper",
    "torsion_lb_equilateral_test",
    "torsion_lb_obtuse_test",
    "triangle_from_sides",
    "upper_chain",
    "__version__",
]
