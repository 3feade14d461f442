"""Plain-text formats for quaternionic data.

A quaternion literal is four comma-separated floats "w,x,y,z" with no
interior whitespace.  Vectors and matrices carry a header line with
their dimensions; point functions are "label literal" lines; a series
file opens with its center (and optional radius) followed by one
coefficient literal per line.  Writers emit shortest round-trip floats,
so read(write(x)) is exact.

Operator specifications are single tokens: ``dense:FILE.qmat``,
``mult:FILE.qfun``, ``shift:left:N`` / ``shift:right:N``.
"""

from __future__ import annotations

import math
import os

from .operators import (DenseOperator, LinearOperator, MultiplicationOperator,
                        ShiftOperator)
from .qlinalg import QMatrix, QVector
from .quat import Quaternion
from .sliceseries import SliceSeries
from .spectral import GridSpec


def format_quaternion(q: Quaternion) -> str:
    return ",".join(repr(float(c)) for c in (q.w, q.x, q.y, q.z))


def parse_quaternion(text: str) -> Quaternion:
    parts = text.strip().split(",")
    if len(parts) != 4:
        raise ValueError(f"quaternion literal needs four components: {text!r}")
    try:
        w, x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad quaternion literal {text!r}: {exc}") from exc
    return Quaternion(w, x, y, z)


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_qvec(text: str) -> QVector:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty vector file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"bad vector header {lines[0]!r}") from exc
    if n < 0 or len(lines) != n + 1:
        raise ValueError(f"vector header says {n} entries, file has {len(lines) - 1}")
    return QVector.from_quaternions([parse_quaternion(l) for l in lines[1:]])


def format_qvec(v: QVector) -> str:
    lines = [str(v.n)]
    lines.extend(format_quaternion(v.entry(k)) for k in range(v.n))
    return "\n".join(lines) + "\n"


def parse_qmat(text: str) -> QMatrix:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"matrix header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad matrix header {lines[0]!r}") from exc
    if rows < 0 or cols < 0 or len(lines) != rows + 1:
        raise ValueError(f"matrix header says {rows} rows, file has {len(lines) - 1}")
    entries = []
    for line in lines[1:]:
        cells = line.split()
        if len(cells) != cols:
            raise ValueError(f"row has {len(cells)} entries, expected {cols}")
        entries.append([parse_quaternion(c) for c in cells])
    return QMatrix.from_quaternions(entries)


def format_qmat(a: QMatrix) -> str:
    lines = [f"{a.rows} {a.cols}"]
    for i in range(a.rows):
        lines.append(" ".join(format_quaternion(a.entry(i, j))
                              for j in range(a.cols)))
    return "\n".join(lines) + "\n"


def parse_qfun(text: str) -> MultiplicationOperator:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty point-function file")
    labels, values = [], []
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"point-function line must be 'label literal': {line!r}")
        labels.append(parts[0])
        values.append(parse_quaternion(parts[1]))
    return MultiplicationOperator(tuple(labels), tuple(values))


def format_qfun(op: MultiplicationOperator) -> str:
    lines = [f"{lab} {format_quaternion(val)}"
             for lab, val in zip(op.labels, op.values)]
    return "\n".join(lines) + "\n"


def parse_series(text: str) -> SliceSeries:
    lines = _data_lines(text)
    if not lines or not lines[0].startswith("center:"):
        raise ValueError("series file must open with 'center: w,x,y,z'")
    center = parse_quaternion(lines[0][len("center:"):])
    radius = math.inf
    body = lines[1:]
    if body and body[0].startswith("radius:"):
        try:
            radius = float(body[0][len("radius:"):])
        except ValueError as exc:
            raise ValueError(f"bad radius line {body[0]!r}") from exc
        body = body[1:]
    if not body:
        raise ValueError("series file has no coefficients")
    return SliceSeries(center, tuple(parse_quaternion(l) for l in body), radius)


def format_series(f: SliceSeries) -> str:
    if f.is_vector:
        raise ValueError("only scalar series have a file form")
    lines = [f"center: {format_quaternion(f.center)}"]
    if math.isfinite(f.radius):
        lines.append(f"radius: {f.radius!r}")
    lines.extend(format_quaternion(c) for c in f.coefficients)
    return "\n".join(lines) + "\n"


def read_text(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def parse_operator_spec(spec: str, base_dir: str = ".") -> LinearOperator:
    """Build an operator from a one-token description.

    dense:FILE   square matrix from a .qmat file
    mult:FILE    diagonal multiplication from a .qfun file
    shift:SIDE:N shift with default window N (N optional, default 128)
    """
    parts = spec.strip().split(":")
    kind = parts[0]
    if kind == "shift":
        if len(parts) not in (2, 3):
            raise ValueError(f"shift spec must be shift:SIDE[:N], got {spec!r}")
        side = parts[1]
        window = 128
        if len(parts) == 3:
            try:
                window = int(parts[2])
            except ValueError as exc:
                raise ValueError(f"bad shift window in {spec!r}") from exc
        return ShiftOperator(side, window=window)
    if kind in ("dense", "mult"):
        if len(parts) != 2 or not parts[1]:
            raise ValueError(f"{kind} spec must be {kind}:FILE, got {spec!r}")
        path = parts[1]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        text = read_text(path)
        if kind == "dense":
            mat = parse_qmat(text)
            return DenseOperator(mat)
        return parse_qfun(text)
    raise ValueError(f"unknown operator kind {kind!r} in {spec!r}")


def parse_grid(text: str) -> GridSpec:
    """Grid description "x0,x1,y1,RES" with RES either N or NXxNY."""
    parts = text.strip().split(",")
    if len(parts) != 4:
        raise ValueError(f"grid must be 'x0,x1,y1,RES', got {text!r}")
    try:
        x0, x1, y1 = (float(p) for p in parts[:3])
    except ValueError as exc:
        raise ValueError(f"bad grid bounds in {text!r}") from exc
    res = parts[3]
    left, sep, right = res.partition("x")
    try:
        nx = int(left)
        ny = int(right) if sep else nx
    except ValueError as exc:
        raise ValueError(f"bad grid resolution {res!r}") from exc
    return GridSpec(x0, x1, y1, nx, ny)
