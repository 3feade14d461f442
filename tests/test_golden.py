"""Golden CLI output: ``spectrum``, ``classify``, ``local`` and ``portrait``.

Sixty seed-fixed inputs (generic, repeated and pure-imaginary spectra;
dense similarity images and multiplication operators; n from 3 to 14) are
built here with numpy alone, and the stdout of the first three commands
must match ``tests/golden/`` byte for byte.  Portraits of both shifts at
small windows and of two of those inputs are pinned the same way.  Each
golden file also records a digest of its input text, so a change in the
generator fails with its own message instead of as an output change.

Regenerate the files, after a deliberate output change only, with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys

import numpy as np
import pytest

from qspec import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEED = 20260601
SPECTRA = ("generic", "repeated", "imaginary")
OPS = ("dense", "mult")
COUNT = 60
# (name, operator, options): an int operator is the file of that case
PORTRAITS = (
    ("p0-shift-right-w4", "shift:right", ["--window", "4", "--grid=-1.5,1.5,1.5,13x7"]),
    ("p1-shift-left-w4", "shift:left", ["--window", "4", "--grid=-1.5,1.5,1.5,13x7"]),
    ("p2-shift-right-w9", "shift:right", ["--window", "9", "--grid=-1.3,1.2,1.4,17x9"]),
    ("p3-shift-left-w12", "shift:left", ["--window", "12", "--grid=-1.3,1.2,1.4,17x9"]),
    ("p4-shift-right-w33", "shift:right", ["--window", "33", "--grid=-0.7,1.1,0.9,9x5"]),
    ("p5-dense-n3", 0, ["--grid=-2.5,2.5,2.5,31x16"]),
    ("p6-mult-n12", 3, ["--grid=-2.5,2.5,2.5,23x12"]),
)


def _lit(q) -> str:
    return ",".join(repr(float(c)) for c in q)


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _chi(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    return np.block([[c1, c2], [-np.conj(c2), np.conj(c1)]])


def _spheres(rng, n: int, spectrum: str) -> tuple[list, list[int]]:
    """Planted sphere centres (re, im) and their multiplicities."""
    if spectrum == "generic":
        count, real = n, n // 4
    else:
        count, real = int(rng.integers(2, max(3, n // 2 + 1))), 1
    out: list[tuple[float, float]] = []
    while len(out) < count:
        if spectrum == "imaginary":
            re, im = 0.0, float(rng.uniform(0.2, 3.0))
        else:
            re = float(rng.uniform(-2.0, 2.0))
            im = 0.0 if len(out) < real else float(rng.uniform(0.2, 2.0))
        if all(math.hypot(re - a, im - b) >= 0.15 for a, b in out):
            out.append((re, im))
    mult = [1] * count
    for _ in range(n - count):
        mult[int(rng.integers(count))] += 1
    return out, mult


def build_case(idx: int) -> tuple[str, str, str, str]:
    """(name, operator kind, operator text, vector text) of case ``idx``."""
    spectrum, op = SPECTRA[idx % 3], OPS[(idx // 3) % 2]
    n = 3 + (7 * idx) % 12
    rng = np.random.Generator(np.random.Philox(key=[SEED, idx]))
    spheres, mult = _spheres(rng, n, spectrum)
    entries = []
    for (re, im), m in zip(spheres, mult):
        for _ in range(m):
            entries.append(np.concatenate([[re], im * _unit(rng)]))
    entries = [entries[k] for k in rng.permutation(n)]
    # the vector mixes a random subset of eigenvectors, so its local
    # spectrum is a planted subset of the spheres
    keep = rng.integers(0, 2, n).astype(bool)
    keep[int(rng.integers(n))] = True
    coef = rng.normal(size=(n, 4)) * keep[:, None]
    coef_c = _chi(np.diag(coef[:, 0] + 1j * coef[:, 1]),
                  np.diag(coef[:, 2] + 1j * coef[:, 3]))
    name = f"g{idx:02d}-{spectrum}-{op}-n{n}"
    if op == "mult":
        text = "".join(f"x{k} {_lit(q)}\n" for k, q in enumerate(entries))
        vec = coef_c[:, :n] @ np.ones(n)
    else:
        d = np.array(entries)
        chi_d = _chi(np.diag(d[:, 0] + 1j * d[:, 1]), np.diag(d[:, 2] + 1j * d[:, 3]))
        while True:
            s = rng.normal(size=(n, n, 4)) / math.sqrt(4 * n)
            s[:, :, 0] += np.eye(n)
            chi_s = _chi(s[:, :, 0] + 1j * s[:, :, 1], s[:, :, 2] + 1j * s[:, :, 3])
            if np.linalg.cond(chi_s) <= 30.0:
                break
        m = chi_s @ chi_d @ np.linalg.inv(chi_s)
        c1, c2 = m[:n, :n], m[:n, n:]
        comps = np.stack([c1.real, c1.imag, c2.real, c2.imag], axis=-1)
        text = f"{n} {n}\n" + "".join(
            " ".join(_lit(comps[i, j]) for j in range(n)) + "\n" for i in range(n))
        # sum_k S e_k coef_k, embedded: chi(S) chi(diag coef) [1; 0]
        vec = chi_s @ coef_c[:, :n] @ np.ones(n)
    v1, v2 = vec[:n], -np.conj(vec[n:])
    vtext = f"{n}\n" + "".join(
        _lit((a.real, a.imag, b.real, b.imag)) + "\n" for a, b in zip(v1, v2))
    return name, op, text, vtext


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"exit {code}\n{buf.getvalue()}"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def render(idx: int, workdir: str) -> tuple[str, str]:
    """(name, golden text) of case ``idx``, computed by the current code."""
    name, op, text, vtext = build_case(idx)
    ext = "qmat" if op == "dense" else "qfun"
    path = _write(os.path.join(workdir, f"{name}.{ext}"), text)
    vpath = _write(os.path.join(workdir, f"{name}.qvec"), vtext)
    spec = f"{op}:{path}"
    parts = [f"input {_digest(text + vtext)}\n"]
    for cmd, extra in (("spectrum", []), ("classify", []), ("local", ["--vector", vpath])):
        parts.append(f"$ {cmd}\n")
        parts.append(_run([cmd, "--op", spec, *extra]))
    return name, "".join(parts)


def render_portrait(idx: int, workdir: str) -> tuple[str, str]:
    """(name, golden text) of portrait case ``idx``: CSV on stdout."""
    name, op, options = PORTRAITS[idx]
    if isinstance(op, int):
        case, kind, text, _ = build_case(op)
        ext = "qmat" if kind == "dense" else "qfun"
        path = _write(os.path.join(workdir, f"{case}.{ext}"), text)
        shown, spec = f"{kind}:{case}.{ext}", f"{kind}:{path}"
    else:
        text = shown = spec = op
    return name, (f"input {_digest(text)}\n$ portrait --op {shown} {' '.join(options)}\n"
                  + _run(["portrait", "--op", spec, *options]))


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.out")


@pytest.mark.parametrize("idx", range(COUNT))
def test_golden_output(idx, tmp_path):
    name, got = render(idx, str(tmp_path))
    with open(_golden_path(name), encoding="ascii") as fh:
        want = fh.read()
    assert got.splitlines()[0] == want.splitlines()[0], \
        f"{name}: the input generator changed; its golden output no longer applies"
    assert got == want


@pytest.mark.parametrize("idx", range(len(PORTRAITS)))
def test_golden_portrait(idx, tmp_path):
    name, got = render_portrait(idx, str(tmp_path))
    with open(_golden_path(name), encoding="ascii") as fh:
        want = fh.read()
    assert got.splitlines()[0] == want.splitlines()[0], \
        f"{name}: the input generator changed; its golden output no longer applies"
    assert got == want


def _regen() -> None:
    import tempfile
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        cases = [render(idx, tmp) for idx in range(COUNT)]
        cases += [render_portrait(idx, tmp) for idx in range(len(PORTRAITS))]
        for name, text in cases:
            _write(_golden_path(name), text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit(__doc__)
    _regen()
