"""Command-line surface.

Six commands over the library: ``spectrum`` and ``classify`` for exact
sphere sets of matrix-backed operators, ``portrait`` for sampled kappa
grids of any operator, ``local`` for local spectra of a vector,
``series`` for power-series reports, and ``check`` for the property
suites.  Exit codes: 0 success, 1 a check suite failed, 2 malformed
input or configuration.

All output is deterministic for a fixed seed.  QSPEC_THREADS is accepted
for compatibility and ignored: portraits are computed in one thread,
because a thread pool over rows gave no speed-up.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

from . import io, localspec, spectral, suites
from .errors import NumericalError, PoleError, ShapeError
from .quat import SLICE_I, SLICE_J, SLICE_K, SliceUnit
from .sliceseries import sigma_radius


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, resolved from flags.

    A fixed config determines the output bytes; the seed feeds every
    randomized suite through counter-based streams.
    """

    command: str
    op_spec: str | None = None
    input_path: str | None = None
    vector_path: str | None = None
    grid: str | None = None
    tol: float = 1e-8
    trials: int = 20
    seed: int = 0
    out: str | None = None
    window: int | None = None
    slice_axis: str = "i"
    suite: str = "all"
    at: str | None = None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="qspec",
        description="computable S-spectra for quaternionic operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, op=False, grid=False,
               vector=False, series=False, suite=False) -> None:
        if op:
            p.add_argument("--op", required=True, dest="op_spec",
                           help="operator spec: dense:FILE | mult:FILE | shift:SIDE[:N]")
        if grid:
            p.add_argument("--grid", default="-1.5,1.5,1.5,128x64",
                           help="portrait grid 'x0,x1,y1,RES' with RES N or NXxNY")
            p.add_argument("--window", type=int, default=None,
                           help="finite-section size (at least 4) for genuinely "
                                "infinite operators; default the operator's own")
            p.add_argument("--slice", default="i", dest="slice_axis",
                           help="slice plane: i, j, k, or a custom axis 'x,y,z'")
        if vector:
            p.add_argument("--vector", dest="vector_path", required=True,
                           help="vector file (.qvec)")
        if series:
            p.add_argument("--input", dest="input_path", required=True,
                           help="series file")
            p.add_argument("--at", default=None,
                           help="evaluation point 'w,x,y,z'")
        if suite:
            p.add_argument("--suite", default="all",
                           help="suite name or 'all'")
            p.add_argument("--trials", type=int, default=20)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file (default stdout)")

    common(sub.add_parser("spectrum", help="sphere set with part flags"), op=True)
    common(sub.add_parser("classify", help="sphere set plus radius and verdicts"),
           op=True)
    common(sub.add_parser("portrait", help="kappa grid as CSV"), op=True, grid=True)
    common(sub.add_parser("local", help="local spectrum of a vector"),
           op=True, vector=True)
    common(sub.add_parser("series", help="series report"), series=True)
    check = sub.add_parser("check", help="run property suites")
    common(check, suite=True)
    check.set_defaults(tol=1e-6)
    return parser


def _config(ns: argparse.Namespace) -> RunConfig:
    fields = ("op_spec", "input_path", "vector_path", "grid", "tol", "trials",
              "seed", "out", "window", "slice_axis", "suite", "at")
    kwargs = {f: getattr(ns, f) for f in fields if hasattr(ns, f)}
    return RunConfig(command=ns.command, **kwargs)


def _slice_unit(text: str) -> SliceUnit:
    named = {"i": SLICE_I, "j": SLICE_J, "k": SLICE_K}
    if text in named:
        return named[text]
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"slice axis must be i, j, k or 'x,y,z': {text!r}")
    x, y, z = (float(p) for p in parts)
    return SliceUnit.from_components(x, y, z)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        io.write_text(cfg.out, text)
    else:
        sys.stdout.write(text)


def _matrix_backed(op):
    if op.dim is None:
        raise ValueError(
            f"operator {op.label!r} has no finite matrix; use 'portrait' "
            "for window evidence")
    return op.finite_section(op.dim)


def _cmd_spectrum(cfg: RunConfig) -> int:
    op = io.parse_operator_spec(cfg.op_spec)
    report = spectral.classify(_matrix_backed(op), tol=cfg.tol)
    _emit(cfg, "\n".join(report.to_lines()) + "\n")
    return 0


def _cmd_classify(cfg: RunConfig) -> int:
    mat = _matrix_backed(io.parse_operator_spec(cfg.op_spec))
    report = spectral.classify(mat, tol=cfg.tol)
    verdict = localspec.decomposability_necessary(mat, report=report)
    lines = report.to_lines()
    lines.append(f"radius {spectral._fmt(report.radius)}")
    lines.append(f"lower-bound {spectral._fmt(report.lower_bound)}")
    lines.append(f"coincident {'yes' if report.coincident else 'no'}")
    lines.append(f"annulus {'ok' if spectral.annulus_check(report).ok else 'violated'}")
    witness = ""
    if verdict.witness is not None:
        witness = (f" witness {spectral._fmt(verdict.witness.re)}"
                   f" {spectral._fmt(verdict.witness.im)}")
    lines.append(f"decomposability {verdict.status}{witness}")
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def _cmd_portrait(cfg: RunConfig) -> int:
    op = io.parse_operator_spec(cfg.op_spec)
    grid = io.parse_grid(cfg.grid)
    unit = _slice_unit(cfg.slice_axis)
    p = spectral.portrait(op, grid, window=cfg.window, slice_unit=unit)
    _emit(cfg, "\n".join(p.csv_lines()) + "\n")
    return 0


def _cmd_local(cfg: RunConfig) -> int:
    mat = _matrix_backed(io.parse_operator_spec(cfg.op_spec))
    vec = io.parse_qvec(io.read_text(cfg.vector_path))
    spheres = localspec.local_spectrum(mat, vec, tol=max(cfg.tol, 1e-12))
    lines = [f"{spectral._fmt(s.re)} {spectral._fmt(s.im)}" for s in spheres]
    _emit(cfg, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_series(cfg: RunConfig) -> int:
    f = io.parse_series(io.read_text(cfg.input_path))
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = sigma_radius(f)
        lines = [
            f"coefficients {len(f)}",
            f"center {io.format_quaternion(f.center)}",
            f"declared-radius {'inf' if math.isinf(f.radius) else spectral._fmt(f.radius)}",
            f"estimated-radius {'inf' if math.isinf(est) else spectral._fmt(est)}",
        ]
        if cfg.at is not None:
            lines.append(f"value {io.format_quaternion(f.eval(io.parse_quaternion(cfg.at)))}")
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def _cmd_check(cfg: RunConfig) -> int:
    scfg = suites.SuiteConfig(seed=cfg.seed, trials=cfg.trials,
                              tol=max(cfg.tol, 1e-8))
    try:
        results = suites.run_many([cfg.suite], scfg)
    except KeyError as exc:
        raise ValueError(str(exc)) from exc
    _emit(cfg, "\n".join(suites.report_lines(results)) + "\n")
    return 0 if all(r.ok for r in results) else 1


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "classify": _cmd_classify,
    "portrait": _cmd_portrait,
    "local": _cmd_local,
    "series": _cmd_series,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = _config(ns)
    try:
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, ShapeError, PoleError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
