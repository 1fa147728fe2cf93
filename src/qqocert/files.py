"""File formats: coefficient tensor documents, reports, trajectory tables.

Tensor file: a JSON object with either a full tensor, ``{"b": [[[...]]]}``
with 27 reals nested outer-to-inner as m -> l -> k, or the shorthand
``{"epsilon": e}`` that expands to the one-parameter family.

Reports are strict JSON objects (no NaN or infinity) with a leading
``"schema": "v1"`` field and sorted keys, so identical runs produce
byte-identical documents.

Trajectory file: comma-separated rows ``step,f1,f2,f3,rho`` after a
one-line header.
"""

from __future__ import annotations

import json
import sys
from typing import IO, Optional

import numpy as np

from .core import as_coeff_tensor
from .dynamics import Trajectory
from .epsilon import build_coeff_tensor

SCHEMA_VERSION = "v1"


def load_tensor_file(path: str) -> np.ndarray:
    """Read a coefficient tensor document, expanding the epsilon shorthand."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an object at top level")
    has_b = "b" in doc
    has_eps = "epsilon" in doc
    if has_b == has_eps:
        raise ValueError(f"{path}: exactly one of 'b' or 'epsilon' must be present")
    if has_eps:
        eps = doc["epsilon"]
        if not isinstance(eps, (int, float)) or not np.isfinite(eps):
            raise ValueError(f"{path}: 'epsilon' must be a finite number")
        return build_coeff_tensor(float(eps))
    try:
        return as_coeff_tensor(doc["b"])
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: bad tensor payload ({exc})") from exc


def save_tensor_file(b: np.ndarray, path: str) -> None:
    """Write a full coefficient tensor document."""
    arr = as_coeff_tensor(b)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"b": arr.tolist()}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dump_report(report: dict, out: Optional[IO[str]] = None) -> None:
    """Emit a schema-tagged report as deterministic JSON."""
    doc = {"schema": SCHEMA_VERSION}
    doc.update(report)
    # serialize first: a NaN or infinity fails before anything is written
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    fh = out if out is not None else sys.stdout
    fh.write(text + "\n")


def write_trajectory_csv(traj: Trajectory, out: IO[str]) -> None:
    """Write the recorded orbit as step,f1,f2,f3,rho rows."""
    out.write("step,f1,f2,f3,rho\n")
    for idx, f, rho in traj.steps:
        out.write(
            f"{idx},{float(f[0])!r},{float(f[1])!r},{float(f[2])!r},{float(rho)!r}\n"
        )
