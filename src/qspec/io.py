"""Plain-text formats for quaternionic data.

A quaternion literal is four comma-separated floats "w,x,y,z" with no
interior whitespace.  Vectors and matrices carry a header line with
their dimensions; point functions are "label literal" lines; a series
file opens with its center (and optional radius) followed by one
coefficient literal per line.  Writers emit shortest round-trip floats,
so read(write(x)) is exact; point-function and series files are only read.

Operator specifications are single tokens: ``dense:FILE.qmat``,
``mult:FILE.qfun``, ``shift:left`` / ``shift:right``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .quat import Quaternion
from .qvector import QVector

if TYPE_CHECKING:
    from .operators import LinearOperator, MultiplicationOperator
    from .qlinalg import QMatrix
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
    if not all(map(math.isfinite, (w, x, y, z))):
        raise ValueError(f"quaternion literal {text!r} is not finite")
    return Quaternion(w, x, y, z)


def _components(literals: list[str]) -> np.ndarray:
    """(len, 4) float components of quaternion literals, accepted exactly
    when ``parse_quaternion`` accepts each of them.  The array is C-ordered,
    so its view as complex128 pairs each row into w + x i and y + z i.

    One split pass and ``float`` per component, as ``parse_quaternion``
    reads them, then one finiteness check; on any failure the literals go
    through ``parse_quaternion`` one by one, so the error is its message.
    """
    if all(lit.count(",") == 3 for lit in literals):
        try:
            values = np.array([float(p) for p in ",".join(literals).split(",")])
        except ValueError:
            values = None
        if values is not None and np.isfinite(values).all():
            return values.reshape(len(literals), 4)
    return np.array([[q.w, q.x, q.y, q.z] for q in map(parse_quaternion, literals)],
                    dtype=np.float64).reshape(len(literals), 4)


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
    pairs = _components(lines[1:]).view(np.complex128)
    return QVector(pairs[:, 0], pairs[:, 1])


def format_qvec(v: QVector) -> str:
    lines = [str(v.n)]
    lines.extend(format_quaternion(v.entry(k)) for k in range(v.n))
    return "\n".join(lines) + "\n"


def parse_qmat(text: str) -> QMatrix:
    from .qlinalg import QMatrix

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
    cells = []
    for line in lines[1:]:
        row = line.split()
        if len(row) != cols:
            # errors in file order: a bad literal in a row above comes first
            _components(cells)
            raise ValueError(f"row has {len(row)} entries, expected {cols}")
        cells.extend(row)
    if rows == 0:
        return QMatrix.zeros(0, cols)
    pairs = _components(cells).reshape(rows, cols, 4).view(np.complex128)
    return QMatrix(pairs[..., 0], pairs[..., 1])


def format_qmat(a: QMatrix) -> str:
    lines = [f"{a.rows} {a.cols}"]
    for i in range(a.rows):
        lines.append(" ".join(format_quaternion(a.entry(i, j))
                              for j in range(a.cols)))
    return "\n".join(lines) + "\n"


def parse_qfun(text: str) -> MultiplicationOperator:
    from .operators import MultiplicationOperator
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty point-function file")
    labels, literals = [], []
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            _components(literals)
            raise ValueError(f"point-function line must be 'label literal': {line!r}")
        labels.append(parts[0])
        literals.append(parts[1])
    values = tuple(Quaternion(*q) for q in _components(literals).tolist())
    return MultiplicationOperator(tuple(labels), values)


def parse_series(text: str) -> SliceSeries:
    from .sliceseries import SliceSeries
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
    return SliceSeries._from_array(center, _components(body), radius)


def read_text(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def parse_operator_spec(spec: str) -> LinearOperator:
    """Build an operator from a one-token description, split at its first
    colon, so a file path may hold colons of its own.

    dense:FILE   square matrix from a .qmat file
    mult:FILE    diagonal multiplication from a .qfun file
    shift:SIDE   left or right shift; ``portrait --window`` sets its section
    """
    from .operators import DenseOperator, ShiftOperator
    kind, _, rest = spec.strip().partition(":")
    if kind == "shift":
        if ":" in rest:
            raise ValueError(f"shift spec must be shift:SIDE, got {spec!r}; "
                             "set the section size with --window")
        return ShiftOperator(rest)
    if kind in ("dense", "mult"):
        if not rest:
            raise ValueError(f"{kind} spec must be {kind}:FILE, got {spec!r}")
        text = read_text(rest)
        if kind == "dense":
            return DenseOperator(parse_qmat(text))
        return parse_qfun(text)
    raise ValueError(f"unknown operator kind {kind!r} in {spec!r}")


def parse_grid(text: str) -> GridSpec:
    """Grid description "x0,x1,y1,RES" with RES either N or NXxNY."""
    from .spectral import GridSpec
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
