"""Command-line surface.

Six commands over the library: ``spectrum`` and ``classify`` for exact
sphere sets of matrix-backed operators, ``portrait`` for sampled kappa
grids of any operator, ``local`` for local spectra of a vector,
``series`` for power-series reports, and ``check`` for the property
suites.  Exit codes: 0 success, 1 a check suite failed, 2 malformed
input or configuration.

``--tol`` sets the membership threshold of ``spectrum``, ``classify`` and
``local`` and the tolerance of ``check``; ``--seed`` seeds ``check``, the
one command that draws random instances.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import io
from .errors import NumericalError, PoleError, ShapeError
from .quat import _fmt


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
                           help="operator spec: dense:FILE | mult:FILE | shift:left | shift:right")
        if grid:
            p.add_argument("--grid", default="-1.5,1.5,1.5,128x64",
                           help="portrait grid 'x0,x1,y1,RES' with RES N or NXxNY")
            p.add_argument("--window", type=int, default=None,
                           help="finite-section size (at least 4) for genuinely "
                                "infinite operators; default 128")
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
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--tol", type=float, default=1e-6)
        elif op and not grid:
            # the membership threshold of the matrix-backed commands
            p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--out", default=None, help="output file (default stdout)")

    common(sub.add_parser("spectrum", help="sphere set with part flags"), op=True)
    common(sub.add_parser("classify", help="sphere set plus radius and verdicts"),
           op=True)
    common(sub.add_parser("portrait", help="kappa grid as CSV"), op=True, grid=True)
    common(sub.add_parser("local", help="local spectrum of a vector"),
           op=True, vector=True)
    common(sub.add_parser("series", help="series report"), series=True)
    common(sub.add_parser("check", help="run property suites"), suite=True)
    return parser


def _emit(cfg: argparse.Namespace, text: str) -> None:
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


def _cmd_spectrum(cfg: argparse.Namespace) -> int:
    from . import spectral
    op = io.parse_operator_spec(cfg.op_spec)
    report = spectral.classify(_matrix_backed(op), tol=cfg.tol)
    _emit(cfg, "\n".join(report.to_lines()) + "\n")
    return 0


def _cmd_classify(cfg: argparse.Namespace) -> int:
    from . import localspec, spectral
    mat = _matrix_backed(io.parse_operator_spec(cfg.op_spec))
    report = spectral.classify(mat, tol=cfg.tol)
    verdict = localspec.decomposability_necessary(mat)
    lines = report.to_lines()
    lines.append(f"radius {_fmt(report.radius)}")
    lines.append(f"lower-bound {_fmt(report.lower_bound)}")
    lines.append(f"coincident {'yes' if report.coincident else 'no'}")
    lines.append(f"annulus {'ok' if spectral.annulus_check(report).ok else 'violated'}")
    witness = ""
    if verdict.witness is not None:
        witness = f" witness {_fmt(verdict.witness.re)} {_fmt(verdict.witness.im)}"
    lines.append(f"decomposability {verdict.status}{witness}")
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def _cmd_portrait(cfg: argparse.Namespace) -> int:
    from . import spectral
    op = io.parse_operator_spec(cfg.op_spec)
    grid = io.parse_grid(cfg.grid)
    p = spectral.portrait(op, grid, window=cfg.window)
    _emit(cfg, "\n".join(p.csv_lines()) + "\n")
    return 0


def _cmd_local(cfg: argparse.Namespace) -> int:
    from . import localspec
    mat = _matrix_backed(io.parse_operator_spec(cfg.op_spec))
    vec = io.parse_qvec(io.read_text(cfg.vector_path))
    spheres = localspec.local_spectrum(mat, vec, tol=max(cfg.tol, 1e-12))
    lines = [f"{_fmt(s.re)} {_fmt(s.im)}" for s in spheres]
    _emit(cfg, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_series(cfg: argparse.Namespace) -> int:
    import warnings

    from .sliceseries import sigma_radius
    f = io.parse_series(io.read_text(cfg.input_path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = sigma_radius(f)
        lines = [
            f"coefficients {len(f)}",
            f"center {io.format_quaternion(f.center)}",
            f"declared-radius {'inf' if math.isinf(f.radius) else _fmt(f.radius)}",
            f"estimated-radius {'inf' if math.isinf(est) else _fmt(est)}",
        ]
        if cfg.at is not None:
            lines.append(f"value {io.format_quaternion(f.eval(io.parse_quaternion(cfg.at)))}")
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def _cmd_check(cfg: argparse.Namespace) -> int:
    from . import suites
    if cfg.suite != "all" and cfg.suite not in suites.SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; "
                         f"available: {', '.join(suites.SUITES)}")
    scfg = suites.SuiteConfig(seed=cfg.seed, trials=cfg.trials,
                              tol=max(cfg.tol, 1e-8))
    results = suites.run_many([cfg.suite], scfg)
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
    cfg = parser.parse_args(argv)
    try:
        # every comparison against a nan threshold is False, and a threshold
        # at or below 0 admits nothing
        if "tol" in cfg and not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
            raise ValueError(f"--tol must be finite and positive, got {cfg.tol!r}")
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, ShapeError, PoleError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
