"""Seeded request cycles for the four benchmark workloads, with checks.

Every workload builds a fixed cycle of requests from the seed.  Request
sizes are stratified draws from continuous ranges: each stratum of the
range gets one uniform draw per cycle, so two seeds replay the same mix of
sizes and kinds while no two requests are identical.  Inputs are planted
with known answers; the checks compare the program's output with those
answers using only this file's own arithmetic.

A request is a ``qspec.cli.main`` argument list plus, for ``series``, a
few library calls made in the same request.  ``check`` returns ``None``
when the output is right and a reason string when it is not.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

import numpy as np

# -- quaternion helpers (independent of qspec) --------------------------------


def qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def qlit(q) -> str:
    return ",".join(repr(float(c)) for c in q)


def parse_qlit(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"not a quaternion literal: {text!r}")
    return tuple(parts)


def qdist(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def qnorm(a) -> float:
    return math.sqrt(sum(x * x for x in a))


def unit_vector(rng) -> tuple[float, float, float]:
    v = rng.normal(size=3)
    return tuple(float(c) for c in v / np.linalg.norm(v))


def on_slice(z: complex, unit) -> tuple[float, float, float, float]:
    """The quaternion z.real + z.imag * unit."""
    return (z.real, z.imag * unit[0], z.imag * unit[1], z.imag * unit[2])


def stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata of [lo, hi], shuffled."""
    draws = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
    return rng.permutation(draws)


@dataclass
class Request:
    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    # Failure reasons that are documented defects of the program (see
    # README.md).  A failure whose reason contains one of these still counts
    # as failed; any other failure makes the run incorrect.
    known: tuple[str, ...] = ()


def _floats(line: str) -> list[float] | None:
    try:
        return [float(t) for t in line.split(",")]
    except ValueError:
        return None


# -- matrix: classify on planted similarity images and diagonals ---------------

MATRIX_SIZES = range(8, 15)
MATRIX_SPECTRA = ("generic", "repeated", "imaginary")
MATRIX_OPS = ("dense", "mult")
MATRIX_REPEATS = 4
# Repeated pure-imaginary spheres split into duplicates (sorting by real
# part interleaves copies).  The report then lists a sphere twice, or a
# split cluster fails with one of the errors after it.
DUPLICATE_SPHERES = "duplicate spheres"
CLUSTER_DEFECT = (DUPLICATE_SPHERES,
                  "eigenvalue cluster broke a conjugate pair",
                  "projection broke the quaternionic structure",
                  "kernel pullback produced")
# lower_bound_i takes sup_n kappa(A^n)^(1/n); for a sphere of small modulus
# the rounding floor of kappa(A^8) lifts that above the sphere.
LOWER_BOUND_DEFECT = "lower-bound above a planted sphere"


def _separated(rng, count: int, re_range, im_range, gap: float, real: int = 0):
    """``count`` sphere centres (re, im), ``real`` of them on the real axis,
    with pairwise distance >= gap."""
    out: list[tuple[float, float]] = []
    while len(out) < count:
        re = float(rng.uniform(*re_range))
        im = 0.0 if len(out) < real else float(rng.uniform(*im_range))
        if all(math.hypot(re - a, im - b) >= gap for a, b in out):
            out.append((re, im))
    return out


def _planted_spectrum(rng, n: int, spectrum: str, distinct: int) -> tuple[list, list]:
    """Diagonal entries (quaternions) and the distinct planted spheres."""
    if spectrum == "generic":
        spheres = _separated(rng, n, (-2.0, 2.0), (0.2, 2.0), 0.15, real=n // 5)
        mult = [1] * n
    else:
        if spectrum == "repeated":
            # real parts at least 2/distinct apart, so sorting spheres by
            # real part never interleaves two of them
            jitter = rng.uniform(-0.25, 0.25, distinct)
            spheres = [(-2.0 + 4.0 * (k + 0.5 + jitter[k]) / distinct,
                        float(rng.uniform(0.2, 2.0))) for k in range(distinct)]
        else:
            spheres = _separated(rng, distinct, (0.0, 0.0), (0.2, 3.0), 0.15)
        mult = [1] * distinct
        for _ in range(n - distinct):
            mult[int(rng.integers(distinct))] += 1
    entries = []
    for (re, im), m in zip(spheres, mult):
        for _ in range(m):
            u = unit_vector(rng)
            entries.append((re, im * u[0], im * u[1], im * u[2]))
    order = rng.permutation(len(entries))
    return [entries[k] for k in order], spheres


def _chi(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    return np.block([[c1, c2], [-np.conj(c2), np.conj(c1)]])


def _similarity_image(rng, entries) -> np.ndarray:
    """S diag(entries) S^-1 as an (n, n, 4) array, S with condition <= 30."""
    n = len(entries)
    d = np.array(entries)
    chi_d = _chi(np.diag(d[:, 0] + 1j * d[:, 1]), np.diag(d[:, 2] + 1j * d[:, 3]))
    while True:
        s = rng.normal(size=(n, n, 4)) / math.sqrt(4 * n) + np.eye(n)[:, :, None] * [1, 0, 0, 0]
        chi_s = _chi(s[:, :, 0] + 1j * s[:, :, 1], s[:, :, 2] + 1j * s[:, :, 3])
        if np.linalg.cond(chi_s) <= 30.0:
            break
    m = chi_s @ chi_d @ np.linalg.inv(chi_s)
    c1, c2 = m[:n, :n], m[:n, n:]
    return np.stack([c1.real, c1.imag, c2.real, c2.imag], axis=-1)


def build_matrix(rng, workdir: str) -> list[Request]:
    # Every (size, spectrum, operator) cell appears MATRIX_REPEATS times,
    # with the number of distinct repeated spheres spread over 2..n/2.
    combos = [(n, sp, op, r) for n in MATRIX_SIZES for sp in MATRIX_SPECTRA
              for op in MATRIX_OPS for r in range(MATRIX_REPEATS)]
    out = []
    for idx in rng.permutation(len(combos)):
        n, spectrum, op, r = combos[idx]
        distinct = 2 + round(r * (n // 2 - 2) / (MATRIX_REPEATS - 1))
        entries, spheres = _planted_spectrum(rng, n, spectrum, distinct)
        path = os.path.join(workdir, f"m{len(out)}.{'qmat' if op == 'dense' else 'qfun'}")
        if op == "dense":
            arr = _similarity_image(rng, entries)
            lines = [f"{n} {n}"] + [" ".join(qlit(arr[i, j]) for j in range(n))
                                    for i in range(n)]
        else:
            lines = [f"x{k} {qlit(q)}" for k, q in enumerate(entries)]
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        out.append(Request(
            kind=f"{spectrum}-{op}",
            argv=["classify", "--op", f"{op}:{path}"],
            expect={"spheres": spheres},
            known=(LOWER_BOUND_DEFECT,) + (CLUSTER_DEFECT if spectrum == "imaginary" else ())))
    return out


def check_matrix(req: Request, out: str, lib) -> str | None:
    planted = req.expect["spheres"]
    found, tail = [], {}
    for line in out.splitlines():
        tok = line.split()
        try:
            found.append((float(tok[0]), float(tok[1]), " ".join(tok[2:])))
        except (ValueError, IndexError):
            if len(tok) >= 2:
                tail[tok[0]] = tok[1:]
    matched = set()
    for re, im, flags in found:
        close = [k for k, s in enumerate(planted) if math.hypot(s[0] - re, s[1] - im) <= 1e-6]
        if len(close) != 1:
            return f"sphere ({re}, {im}) matches {len(close)} planted spheres"
        if flags != "p a c s":
            return f"sphere ({re}, {im}) has flags {flags!r}"
        matched.add(close[0])
    if len(matched) != len(planted):
        return (f"{len(found)} sphere lines match {len(matched)} of "
                f"{len(planted)} planted spheres")
    if len(found) != len(planted):
        return f"{DUPLICATE_SPHERES}: {len(found)} lines for {len(planted)} planted spheres"
    if tail.get("decomposability") != ["PASS"]:
        return f"decomposability {tail.get('decomposability')}"
    if tail.get("coincident") != ["yes"]:
        return "report not coincident"
    if tail.get("annulus") != ["ok"]:
        lower, upper = float(tail["lower-bound"][0]), float(tail["radius"][0])
        moduli = [math.hypot(*s) for s in planted]
        if all(m <= upper + 1e-6 for m in moduli) and min(moduli) < lower - 1e-6:
            return f"{LOWER_BOUND_DEFECT}: |q| {min(moduli)} < lower-bound {lower}"
        return "annulus violated"
    return None


def duplicate_sphere(out: str) -> str:
    lines = out.splitlines()
    return "\n".join([lines[0]] + lines) + "\n"


def duplicate_for_missing(out: str) -> str:
    """The first sphere line twice and the second not at all: the line
    count stays right while one planted sphere goes missing."""
    lines = out.splitlines()
    return "\n".join([lines[0], lines[0]] + lines[2:]) + "\n"


# -- portrait: window-kappa grids of the two shifts ----------------------------

PORTRAIT_REQUESTS = 110
PORTRAIT_GRID = (9, 5)
KAPPA_CUT = 2e-8       # tol * (1 + |S|^2) with tol 1e-8 and |S| = 1
KAPPA_SLACK = 1e-11    # printed values are rounded to 12 decimals


def build_portrait(rng, workdir: str) -> list[Request]:
    windows = stratified(rng, 96.0, 161.0, PORTRAIT_REQUESTS)
    out = []
    nx, ny = PORTRAIT_GRID
    for k, w in enumerate(windows):
        side = ("left", "right")[k % 2]
        x0, x1, y1 = (float(rng.uniform(-1.8, -1.2)), float(rng.uniform(1.2, 1.8)),
                      float(rng.uniform(1.2, 1.8)))
        grid = f"{x0!r},{x1!r},{y1!r},{nx}x{ny}"
        window = int(w)
        out.append(Request(
            kind=f"shift-{side}",
            argv=["portrait", "--op", f"shift:{side}", f"--grid={grid}",
                  "--window", str(window)],
            expect={"side": side, "window": window,
                    "xs": np.linspace(x0, x1, nx), "ys": np.linspace(0.0, y1, ny)}))
    return out


def check_portrait(req: Request, out: str, lib) -> str | None:
    e = req.expect
    lines = out.splitlines()
    xs, ys = e["xs"], e["ys"]
    if not lines or lines[0] != "x,y,kappa":
        return "missing CSV header"
    if len(lines) != 1 + len(xs) * len(ys):
        return f"{len(lines) - 1} rows for a {len(xs)}x{len(ys)} grid"
    rows = iter(lines[1:])
    for y in ys:
        for x in xs:
            vals = _floats(next(rows))
            if vals is None or len(vals) != 3:
                return "malformed CSV row"
            px, py, kappa = vals
            if abs(px - x) > 1e-9 or abs(py - y) > 1e-9:
                return f"row ({px}, {py}) where grid has ({x}, {y})"
            r = math.hypot(x, y)
            if not (kappa >= 0.0 and math.isfinite(kappa)):
                return f"kappa {kappa} at ({x}, {y})"
            if e["side"] == "right" or r > 1.0:
                floor = (1.0 - r) ** 2
                if kappa < floor - KAPPA_SLACK:
                    return f"kappa {kappa} below the bound {floor} at ({x}, {y})"
            elif r ** e["window"] <= 1e-12 and kappa > KAPPA_CUT:
                return f"left-shift eigenvalue ({x}, {y}) has kappa {kappa} above the cut"
    return None


def corrupt_portrait(out: str) -> str:
    lines = out.splitlines()
    return "\n".join(lines[:-1]) + "\n"


# -- series: CLI report plus the series algebra on planted geometric series ----

SERIES_REQUESTS = 112
SERIES_DEGREES = (12.0, 41.0)
# The second factor of each star product has degree 52 - deg f, so every
# product has degree 52 and its cost does not depend on the seed.
SERIES_PRODUCT_DEGREE = 52


@dataclass(frozen=True)
class Geometric:
    """coeff * sum_{n<=degree} (ratio (q - center))^n, coeff on the left.

    A non-real centre puts centre, coefficient, ratio and every evaluation
    point on the centre's own slice.  A real centre takes a real ratio, so
    the closed form holds at any point, on the point's own slice.
    """

    center: tuple
    coeff: tuple
    ratio: complex
    degree: int

    def coefficients(self):
        unit = _unit_of(self.center)
        out = []
        for n in range(self.degree + 1):
            out.append(qmul(self.coeff, on_slice(self.ratio ** n, unit or (1.0, 0.0, 0.0))))
        return out

    def slice_value(self, q, derivative: bool = False) -> tuple:
        """Closed form of the truncated sum (or its derivative) at q."""
        unit = _unit_of(self.center) or _unit_of(q) or (1.0, 0.0, 0.0)
        z = _on_unit(q, unit) - _on_unit(self.center, unit)
        r = self.ratio * z
        big = self.degree + 1
        if derivative:
            # d/dz sum_{n<=N} (ratio z)^n with r = ratio z
            val = self.ratio * (1 - big * r ** self.degree + self.degree * r ** big) / (1 - r) ** 2
        else:
            val = (1 - r ** big) / (1 - r)
        return qmul(self.coeff, on_slice(val, unit))


def _unit_of(q):
    v = math.sqrt(q[1] ** 2 + q[2] ** 2 + q[3] ** 2)
    return None if v == 0.0 else (q[1] / v, q[2] / v, q[3] / v)


def _on_unit(q, unit) -> complex:
    """Complex coordinate of q on the slice of ``unit`` (q must lie on it)."""
    return complex(q[0], q[1] * unit[0] + q[2] * unit[1] + q[3] * unit[2])


def _series_text(g: Geometric) -> str:
    lines = [f"center: {qlit(g.center)}", f"radius: {1.0 / abs(g.ratio)!r}"]
    lines.extend(qlit(c) for c in g.coefficients())
    return "\n".join(lines) + "\n"


def _geometric_pair(rng, degree: int, real_center: bool):
    if real_center:
        center = (float(rng.uniform(-0.4, 0.4)), 0.0, 0.0, 0.0)
        ratios = [complex(float(rng.uniform(0.5, 0.85)) * float(rng.choice([-1, 1])))
                  for _ in range(2)]
        coeffs = [tuple(float(c) for c in rng.uniform(-1, 1, 4)) for _ in range(2)]
        points = [on_slice(center[0] + cmath.rect(rng.uniform(0.1, 0.6),
                                                   rng.uniform(0, math.pi)), unit_vector(rng))
                  for _ in range(3)]
    else:
        unit = unit_vector(rng)
        pc = cmath.rect(rng.uniform(0.1, 0.35), rng.uniform(0.2, math.pi - 0.2))
        center = on_slice(pc, unit)
        ratios = [cmath.rect(rng.uniform(0.5, 0.85), rng.uniform(0, 2 * math.pi)) for _ in range(2)]
        coeffs = [on_slice(cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi)), unit)
                  for _ in range(2)]
        points = [on_slice(pc + cmath.rect(rng.uniform(0.1, 0.45), rng.uniform(0, 2 * math.pi)),
                           unit) for _ in range(3)]
    f = Geometric(center, coeffs[0], ratios[0], degree)
    g = Geometric(center, coeffs[1], ratios[1], SERIES_PRODUCT_DEGREE - degree)
    return f, g, points


def series_library(qspec, req: Request) -> dict:
    """The library half of a series request, on series rebuilt per request:
    star product, derivative and regularity residual at the second point,
    evaluation at the third (the CLI evaluated at the first)."""
    e = req.expect
    Q = qspec.Quaternion
    center = Q(*e["f"].center)
    sf = qspec.SliceSeries(center, tuple(Q(*c) for c in e["f_coefficients"]))
    sg = qspec.SliceSeries(center, tuple(Q(*c) for c in e["g_coefficients"]))
    prod = qspec.star_product(sf, sg)
    deriv = qspec.slice_derivative(sf)
    _, q1, q2 = (Q(*p) for p in e["points"])

    def parts(q):
        return (q.w, q.x, q.y, q.z)

    return {
        "product": parts(prod.eval(q1)),
        "derivative": parts(deriv.eval(q1)),
        "residual": qspec.cr_residual(sf, [q1]),
        "value": parts(sf.eval(q2)),
    }


def build_series(rng, workdir: str) -> list[Request]:
    degrees = stratified(rng, *SERIES_DEGREES, SERIES_REQUESTS)
    out = []
    for k, deg in enumerate(degrees):
        real_center = k % 4 == 3
        f, g, points = _geometric_pair(rng, int(deg), real_center)
        path = os.path.join(workdir, f"s{k}.series")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(_series_text(f))
        out.append(Request(
            kind="real-center" if real_center else "slice-center",
            argv=["series", "--input", path, f"--at={qlit(points[0])}"],
            expect={"f": f, "g": g, "points": points,
                    "f_coefficients": f.coefficients(), "g_coefficients": g.coefficients()}))
    return out


def _close(got, want, rel: float) -> bool:
    return qdist(got, want) <= rel * (1.0 + qnorm(want))


def check_series(req: Request, out: str, lib) -> str | None:
    f, g, points = req.expect["f"], req.expect["g"], req.expect["points"]
    report = {}
    for line in out.splitlines():
        key, _, val = line.partition(" ")
        report[key] = val
    if report["coefficients"] != str(f.degree + 1):
        return f"coefficients {report['coefficients']}"
    if qdist(parse_qlit(report["center"]), f.center) != 0.0:
        return "center does not round-trip"
    radius = 1.0 / abs(f.ratio)
    if not abs(float(report["declared-radius"]) - radius) <= 1e-9 * radius:
        return f"declared radius {report['declared-radius']}"
    # Root test: max of |a_n|^(1/n) over the upper half of the coefficients.
    mag = qnorm(f.coeff)
    start = max(1, (f.degree + 1) // 2)
    inv = max((mag * abs(f.ratio) ** n) ** (1.0 / n) for n in range(start, f.degree + 1))
    if not abs(float(report["estimated-radius"]) * inv - 1.0) <= 1e-9:
        return f"estimated radius {report['estimated-radius']}, expected {1.0 / inv}"
    if not _close(parse_qlit(report["value"]), f.slice_value(points[0]), 1e-12):
        return f"value {report['value']} != {f.slice_value(points[0])}"
    p = points[1]
    if f.center[1:] != (0.0, 0.0, 0.0):
        want = qmul(f.slice_value(p), g.slice_value(p))
    else:
        want = _real_center_product(f, g, p)
    if not _close(lib["product"], want, 1e-12):
        return f"star product {lib['product']} != {want}"
    want = f.slice_value(p, derivative=True)
    if not _close(lib["derivative"], want, 1e-12):
        return f"slice derivative {lib['derivative']} != {want}"
    # centred differences of step 1e-4 leave about 1e-8 here
    if not lib["residual"] <= 1e-6 * (1.0 + qnorm(f.slice_value(p))):
        return f"Cauchy-Riemann residual {lib['residual']}"
    if not _close(lib["value"], f.slice_value(points[2]), 1e-12):
        return f"eval {lib['value']} != {f.slice_value(points[2])}"
    return None


def _real_center_product(f: Geometric, g: Geometric, p):
    # Real centre and real ratios: (f*g)(q) = c_f c_g F(q) G(q), where F and
    # G are the scalar truncated sums, which commute with each other.
    one = (1.0, 0.0, 0.0, 0.0)
    sf = Geometric(f.center, one, f.ratio, f.degree).slice_value(p)
    sg = Geometric(g.center, one, g.ratio, g.degree).slice_value(p)
    return qmul(qmul(f.coeff, g.coeff), qmul(sf, sg))


def corrupt_series(out: str) -> str:
    lines = out.splitlines()
    head, _, val = lines[-1].partition(" ")
    w, rest = val.split(",", 1)
    return "\n".join(lines[:-1] + [f"{head} {float(w) + 1e-6!r},{rest}"]) + "\n"


# -- suites: every property suite at two trials --------------------------------

# Each suite runs once at each of these trial counts per cycle.  A suite's
# time grows with its trials, so the 17 suites spread over a near-continuous
# range instead of 17 clusters with gaps that p50 or p90 could sit in.
SUITE_TRIALS = (1, 1, 2, 2, 3, 3)
SUITE_NAMES = (
    "scalar-algebra", "matrix-structure", "eigensphere-similarity",
    "adjoint-symmetry", "classify-parts", "portrait-symmetry",
    "portrait-boundary", "restriction-quotient", "shift-window",
    "shift-decomposability", "mult-operator", "local-laws", "product-laws",
    "intertwining", "subspace-laws", "series-algebra", "series-analysis",
)


def build_suites(rng, workdir: str) -> list[Request]:
    combos = [(name, trials) for trials in SUITE_TRIALS for name in SUITE_NAMES]
    out = []
    for idx in rng.permutation(len(combos)):
        name, trials = combos[idx]
        out.append(Request(
            kind=name,
            argv=["check", "--suite", name, "--trials", str(trials),
                  "--seed", str(int(rng.integers(0, 2 ** 31)))]))
    return out


def check_suites(req: Request, out: str, lib) -> str | None:
    last = out.splitlines()[-1] if out else ""
    parts = last.split()
    if len(parts) != 5 or parts[:2] != ["total:", "1/1"]:
        return f"suite summary {last!r}"
    passed, _, total = parts[3].partition("/")
    if passed != total or int(total) < 1:
        return f"suite summary {last!r}"
    return None


def corrupt_suites(out: str) -> str:
    lines = out.splitlines()
    parts = lines[-1].split()
    passed, _, total = parts[3].partition("/")
    parts[3] = f"{int(passed) - 1}/{total}"
    return "\n".join(lines[:-1] + [" ".join(parts)]) + "\n"


@dataclass(frozen=True)
class Workload:
    build: object
    check: object
    # Each corruption turns a right answer into one the check must reject.
    corruptions: tuple
    library: object = None


WORKLOADS = {
    "matrix": Workload(build_matrix, check_matrix, (duplicate_sphere, duplicate_for_missing)),
    "portrait": Workload(build_portrait, check_portrait, (corrupt_portrait,)),
    "series": Workload(build_series, check_series, (corrupt_series,), series_library),
    "suites": Workload(build_suites, check_suites, (corrupt_suites,)),
}
