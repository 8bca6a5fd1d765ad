"""The exact side's outputs as JSON, and the committed copy of them.

``exact_outputs()`` gathers what the exact modules return: the first zeros
of J_1 .. J_20, enclosures of every named constant and of two Bessel zeros,
the six analytic replays, the certificate plan without its timings and the
default g-floor certificate.  It imports the exact modules only, so it also
runs in a process that refuses numpy, scipy and mpmath.

Every float in it comes from a Fraction or is an IEEE midpoint, so two runs
compare exactly.  After a deliberate change of these outputs, rewrite the
committed copy with

    PYTHONPATH=src python tests/exact_outputs.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from polya_verify import closed_forms, constants, exact

PATH = Path(__file__).resolve().parent / "data" / "exact_outputs.json"

CONSTANT_IDS = (
    "pi",
    "pi_pow_2",
    "pi_pow_5",
    "pi_pow_2_3",
    "pi_pow_4_3",
    "sqrt3",
    "two_pow_1_3",
    "two_pow_2_3",
    "zeta5",
)


def _endpoints(iv) -> list:
    return [str(iv.lo), str(iv.hi)]


def exact_outputs() -> dict:
    enclosures = {
        f"{cid}@1e-{digits}": _endpoints(constants.enclose(cid, Fraction(1, 10**digits)))
        for cid, digits in (("j_1/3", 40), ("j_3", 80))
    }
    enclosures.update(
        (f"{cid}@1e-30", _endpoints(constants.enclose(cid, Fraction(1, 10**30))))
        for cid in CONSTANT_IDS
    )
    certificates = [
        {key: value for key, value in cert.items() if key != "seconds"}
        for cert in exact.certify_all()
    ]
    cell = exact.certify_g_floor()
    out = {
        "zeros": [closed_forms.bessel_first_zero(nu) for nu in range(1, 21)],
        "enclosures": enclosures,
        "replays": [replay().to_json_dict() for replay in exact.REPLAYS.values()],
        "certificates": certificates,
        "g_floor": {
            "floor": str(cell.floor),
            "box": [str(v) for v in cell.box],
            "cells": cell.cells,
            "max_depth": cell.max_depth,
        },
    }
    return json.loads(json.dumps(out))


if __name__ == "__main__":
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(exact_outputs(), indent=1) + "\n", encoding="utf-8")
