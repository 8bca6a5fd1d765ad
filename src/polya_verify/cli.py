"""Command line front end: compute, sweep, certify, and replay.

Exit codes: 0 on success; 1 when a requested check fails (a certificate
finds a positive value, a replayed case reports Failed, or a survey row
flags a solver failure), or when any command fails: bad input, an oracle
failure or an unwritable --out each end in one line, "<command>: <Error>:
<message>" ("compute: NonContracting: ...", "sweep: FileNotFoundError:
..."); 2 when a certificate run exhausts its depth budget without deciding.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import closed_forms, harness, pde_oracle, polycert
from .geometry import Rectangle, Triangle
from .pde_oracle import EigenNotConverged, NonContracting, NotPositiveDefinite


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_compute(args: argparse.Namespace) -> int:
    _emit(_compute(args), args.out)
    return 0


def _compute(args: argparse.Namespace) -> dict:
    if args.shape == "triangle":
        tri = Triangle(args.a, args.b)
        res = pde_oracle.spectral(tri, max_level=args.level)
        return {
            "shape": "triangle",
            "a": args.a,
            "b": args.b,
            "lambda1": res.lambda1,
            "T": res.T,
            "torsion_max": res.torsion_max,
            "F": res.F,
            "area": res.area,
            "margin_low": res.F - harness.F_LOWER_LIMIT,
            "margin_high": harness.F_UPPER_LIMIT - res.F,
            "levels": res.levels,
            "error_gauge": dict(res.error_gauge),
            "observed_order": dict(res.observed_order),
            "eigen_iterations": res.per_level["eigen_iterations"],
            "eigen_residual": res.per_level["eigen_residual"],
        }
    rect = Rectangle(args.a, args.b)
    tor = closed_forms.rect_torsion(rect, n_terms=args.terms)
    f = closed_forms.rect_F(rect, n_terms=args.terms)
    center = closed_forms.rect_center_torsion(rect, n_terms=args.terms)
    return {
        "shape": "rect",
        "a": args.a,
        "b": args.b,
        "lambda1": closed_forms.rect_lambda1(rect),
        "T": tor.value,
        "T_tail": tor.tail_bound,
        "torsion_center": center.value,
        "F": f.value,
        "F_tail": f.tail_bound,
        "area": 4.0 * args.a * args.b,
    }


def _parse_grid(text: str) -> dict:
    try:
        na, nb = text.lower().split("x")
        return {"na": int(na), "nb": int(nb)}
    except ValueError:
        raise ValueError(f"--grid expects NAxNB, got {text!r}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    if args.bmin is not None:
        grid["b_min"] = args.bmin
    if args.bmax is not None:
        grid["b_max"] = args.bmax
    rows = harness.sweep_triangles(grid=grid, max_level=args.level, csv_path=args.out)
    errors = [r for r in rows if r.error]
    sys.stdout.write(
        f"swept {len(rows)} triangles, {len(errors)} solver failure(s), "
        f"table written to {args.out}\n"
    )
    return 0 if not errors else 1


def _rational(text, what: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} must be a rational P/Q, got {text!r}") from None


def _load_poly(path: str) -> polycert.RationalPoly:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read --poly {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"--poly {path} is not JSON: {exc}") from None
    if isinstance(data, dict):
        data = data.get("coeffs")
    if not isinstance(data, list):
        raise ValueError(f"--poly {path} holds no coefficient list")
    return polycert.RationalPoly(tuple(_rational(c, "a coefficient") for c in data))


def _cmd_certify(args: argparse.Namespace) -> int:
    try:
        if not args.poly:
            summaries = harness.certify_all(max_depth=args.depth)
            _emit({"certificates": summaries}, args.out)
            return 0 if all(s["ok"] for s in summaries) else 1
        poly = _load_poly(args.poly)
        cert = polycert.certify_nonpositive(
            poly, _rational(args.dx, "--dx"), max_depth=args.depth
        )
    except polycert.DepthExhausted as exc:
        _emit({"ok": False, "error": "depth exhausted", "detail": str(exc)}, args.out)
        return 2
    _emit(cert.to_json_dict(), args.out)
    return 0 if cert.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.case:
        reports = {args.case: harness.replay_case(args.case)}
    else:
        reports = harness.replay_all()
    payload = {cid: rep.to_json_dict() for cid, rep in reports.items()}
    _emit(payload, args.out)
    failed = [cid for cid, rep in reports.items() if rep.verdict == "Failed"]
    if failed:
        sys.stderr.write(f"failed cases: {', '.join(failed)}\n")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polya-verify",
        description="Evaluate, bound, certify, and replay the "
        "eigenvalue-torsion shape functional.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="solve one shape and print its functional values"
    )
    p_compute.add_argument("--shape", choices=("triangle", "rect"), required=True)
    p_compute.add_argument("--a", type=float, required=True)
    p_compute.add_argument("--b", type=float, required=True)
    p_compute.add_argument("--level", type=int, default=7)
    p_compute.add_argument(
        "--terms",
        type=int,
        default=64,
        help="odd terms of the single rectangle series (default 64)",
    )
    p_compute.add_argument("--out", default=None)
    p_compute.set_defaults(func=_cmd_compute)

    p_sweep = sub.add_parser(
        "sweep", help="survey the triangle chart row by row and write a CSV table"
    )
    p_sweep.add_argument("--grid", default="60x60", help="NAxNB grid size")
    p_sweep.add_argument("--bmin", type=float, default=None, help="lowest height, >= 1e-3")
    p_sweep.add_argument("--bmax", type=float, default=None, help="highest height, >= 1e-3")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--level", type=int, default=7)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cert = sub.add_parser(
        "certify", help="run polynomial nonpositivity certificates"
    )
    p_cert.add_argument(
        "--poly",
        default=None,
        help="JSON file with rational coefficients, ascending degree; "
        "without it, run the built-in lemma plan",
    )
    p_cert.add_argument("--dx", default="1", help="right endpoint P/Q")
    p_cert.add_argument("--depth", type=int, default=40)
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(func=_cmd_certify)

    p_replay = sub.add_parser(
        "replay", help="replay the case analysis and print evidence reports"
    )
    p_replay.add_argument("--case", default=None, choices=harness.REPLAY_IDS)
    p_replay.add_argument("--out", default=None)
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NonContracting, EigenNotConverged, NotPositiveDefinite) as exc:
        raise SystemExit(f"{args.command}: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
