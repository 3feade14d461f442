"""Writers of the ``.qfun`` and series file forms, which only tests write.

``qspec.io`` parses both forms; the library writes neither, so their
writers live here, beside the round-trip tests that read them back.
"""

from __future__ import annotations

import math

from qspec.io import format_quaternion
from qspec.operators import MultiplicationOperator
from qspec.sliceseries import SliceSeries


def format_qfun(op: MultiplicationOperator) -> str:
    """One ``label w,x,y,z`` line per point, as ``io.parse_qfun`` reads them."""
    lines = [f"{lab} {format_quaternion(val)}" for lab, val in zip(op.labels, op.values)]
    return "\n".join(lines) + "\n"


def format_series(f: SliceSeries) -> str:
    """The ``center:`` line, a ``radius:`` line when the radius is finite,
    and one coefficient per line, as ``io.parse_series`` reads them."""
    if f.is_vector:
        raise ValueError("only scalar series have a file form")
    lines = [f"center: {format_quaternion(f.center)}"]
    if math.isfinite(f.radius):
        lines.append(f"radius: {f.radius!r}")
    lines.extend(format_quaternion(c) for c in f.coefficients)
    return "\n".join(lines) + "\n"
