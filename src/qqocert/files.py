"""File formats: coefficient tensor documents, reports, trajectory tables.

Tensor file: a JSON object with either a full tensor, ``{"b": [[[...]]]}``
with 27 reals nested outer-to-inner as m -> l -> k, or the shorthand
``{"epsilon": e}`` that expands to the one-parameter family.  Every
value must be a finite JSON number; true, false and strings are refused.

Reports are strict JSON objects (no NaN or infinity) with a leading
``"schema": "v1"`` field and sorted keys, so identical runs produce
byte-identical documents.

Trajectory file: comma-separated rows ``step,f1,f2,f3,rho`` after a
one-line header.

Every file is written whole by ``write_text``: the text is rendered
first, so an error while rendering leaves an existing file as it was;
a failed write during the in-place overwrite can leave it partly
overwritten.
"""

from __future__ import annotations

import json
import os
import stat
from typing import IO

import numpy as np

from .core import as_coeff_tensor
from .dynamics import Trajectory
from .epsilon import build_coeff_tensor

SCHEMA_VERSION = "v1"


def _real(value) -> float:
    """A JSON number as a float; true, false and strings are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer beyond float range") from None


def _is_list_of_3(value) -> bool:
    return isinstance(value, list) and len(value) == 3


def load_tensor_file(path: str) -> np.ndarray:
    """Read a coefficient tensor document, expanding the epsilon shorthand."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError:
            raise ValueError(f"{path}: not valid JSON (nested too deep)") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected an object at top level")
    if ("b" in doc) == ("epsilon" in doc):
        raise ValueError(f"{path}: exactly one of 'b' or 'epsilon' must be present")
    try:
        if "epsilon" in doc:
            return build_coeff_tensor(_real(doc["epsilon"]))
        b = doc["b"]
        # the shape is checked level by level, so no depth of nesting recurses
        if not (
            _is_list_of_3(b)
            and all(_is_list_of_3(plane) for plane in b)
            and all(_is_list_of_3(row) for plane in b for row in plane)
        ):
            raise ValueError("'b' must be 3 lists of 3 lists of 3 numbers")
        return as_coeff_tensor([[[_real(x) for x in row] for row in plane] for plane in b])
    except ValueError as exc:
        raise ValueError(f"{path}: bad tensor payload ({exc})") from exc


def write_text(path: str, text: str) -> None:
    """Replace the contents of path with text, creating the file if needed.

    A regular file is overwritten in place and then cut to the new
    length, rather than opened with truncation: on ext4, truncating a
    file to empty and writing it again makes close() start writeback of
    the new data, which costs a tenth of a millisecond or more per file
    and varies with the disk's load.  The bytes left are the same.  The
    file is not touched until text is complete, but a failed os.write
    can leave it partly overwritten.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _encode(value):
    """json.dumps' fallback for the numpy arrays in a report (see dump_report)."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"re": value.real.tolist(), "im": value.imag.tolist()}
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dump_report(report: dict, out: IO[str]) -> None:
    """Write a schema-tagged report to out as deterministic JSON.

    A real numpy array is written as its nested list and a complex one as
    {"re": [...], "im": [...]}; any other non-JSON value raises TypeError.
    """
    doc = {"schema": SCHEMA_VERSION}
    doc.update(report)
    # serialize first: a NaN or infinity fails before anything is written
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_encode)
    out.write(text + "\n")


def write_trajectory_csv(traj: Trajectory, out: IO[str]) -> None:
    """Write the recorded orbit as step,f1,f2,f3,rho rows."""
    out.write("step,f1,f2,f3,rho\n")
    for idx, f, rho in traj.steps:
        out.write(
            f"{idx},{float(f[0])!r},{float(f[1])!r},{float(f[2])!r},{float(rho)!r}\n"
        )
