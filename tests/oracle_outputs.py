"""The oracle's outputs as JSON, and the committed copy of them.

``oracle_outputs()`` gathers what the finite-element oracle returns on a
fixed set of inputs: the 60 rows of the 2 x 60 chart survey at level 6, the
value fields of ``spectral`` at levels 5, 6 and 7 on four shapes, and the
reports of the three replays that call the oracle.  ``replay_report``
keeps each of those reports for the rest of the session, so the tests
that read them share one run of each replay.  Work counts
(``eigen_iterations``, ``eigen_residual``) are left out, so a change of the
eigen solver that keeps the values keeps this file.  The test that reads it
compares floats within stated tolerances, not exactly.  After a deliberate
change of these outputs, rewrite the committed copy with

    PYTHONPATH=src python tests/oracle_outputs.py
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path

from polya_verify import harness, pde_oracle
from polya_verify.geometry import Rectangle, Sector, Triangle

PATH = Path(__file__).resolve().parent / "data" / "oracle_outputs.json"

SHAPES = {
    "equilateral": Triangle(0.5, math.sqrt(3.0) / 2.0),
    "square": Rectangle(0.5, 0.5),
    "sector": Sector(math.pi / 3.0, 1.0),
    "thin": Triangle(0.5, 0.04),
}
LEVELS = (5, 6, 7)
SURVEY_GRID, SURVEY_LEVEL = {"na": 2, "nb": 60}, 6
REPLAYS = ("upper-triangle", "upper-tangential", "sharpness-thinning")
WORK_COUNTS = ("eigen_iterations", "eigen_residual")


@functools.cache
def replay_report(case_id: str):
    """The report of one oracle-backed replay, run once per session."""
    return harness.replay_case(case_id)


def _spectral(shape, level: int) -> dict:
    res = pde_oracle.spectral(shape, level)
    out = {
        field.name: getattr(res, field.name)
        for field in dataclasses.fields(res)
        if field.name != "per_level"
    }
    out["per_level"] = {
        key: values for key, values in res.per_level.items() if key not in WORK_COUNTS
    }
    return out


def oracle_outputs() -> dict:
    rows = harness.sweep_triangles(grid=dict(SURVEY_GRID), max_level=SURVEY_LEVEL)
    out = {
        "survey": [dataclasses.asdict(row) for row in rows],
        "spectral": {
            f"{name}@{level}": _spectral(shape, level)
            for name, shape in SHAPES.items()
            for level in LEVELS
        },
        "replays": [replay_report(case).to_json_dict() for case in REPLAYS],
    }
    return json.loads(json.dumps(out))


if __name__ == "__main__":
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(oracle_outputs(), indent=1) + "\n", encoding="utf-8")
