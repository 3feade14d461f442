#!/usr/bin/env python3
"""Digest the CLI output that a pure refactor must leave byte-identical.

Twelve gates, each printed on one line, named first, as a sha256 digest of
its stdout and exit codes, with the number of stdout lines:

  matrix    the 504 ``classify`` requests of the ``matrix`` benchmark for
            seeds 51-53, whose inputs share one folder, so that later seeds
            overwrite earlier ones' files and the commands read 291 of them
  check     ``check --suite all --trials 6`` for seeds 42 and 1
  portrait  the 110 ``portrait`` benchmark requests of seed 51
  series    the 112 ``series`` benchmark reports of seed 51
  subspace  ``check --suite S --trials 4`` for seeds 100-139 and each of the
            six suites that build subspace bases
  laws      ``check --suite S --trials 4`` for seeds 100-139 and each of the
            two suites that run the product and similarity law checks
  local     ``local`` on each ``.qmat`` input of seeds 51-53, written to a
            folder of its seed, with one seeded vector and one basis vector
  classify  the same 504 ``classify`` requests, each seed's inputs in the
            folder of its own that the local gate reads, so every command
            reads its own input
  portrait-dense
            ``portrait`` on each of the 168 ``dense:`` and ``mult:`` inputs
            of seed 51's ``matrix`` requests, on one fixed 9x5 grid
  classify-large
            ``classify`` on one random matrix for each n of LARGE_SIZES,
            past the n = 8-14 of the ``matrix`` inputs: complex-normal c1,
            then c2, from a fresh ``default_rng(3)`` per n
  local-mult
            ``local`` on each ``.qfun`` input of seeds 51-53, with vectors
            drawn as the local gate draws them, in the same folders
  classify-tol
            the 168 ``classify`` requests of seed 51 at ``--tol 1e-30`` and
            then at ``--tol 1e-4``, each on its own input as the classify
            gate reads it: the flags move with ``--tol``, the decomposability
            verdict, read at a fixed threshold, does not

Run it from any directory as ``python3 scripts/output_gate.py`` on two
checkouts, save each output, and compare them with

    python3 scripts/output_gate.py --compare BASE_OUTPUT HEAD_OUTPUT

which matches gates by name: a gate that both print must match, a gate
that the head no longer prints fails, and a gate that only the head
prints is listed as new.  The comparison exits 1 on any failure.  It imports qspec from the ``src`` of
the checkout it sits in and the request builders of
``perfbench/workloads.py``, which it only reads.  It took 15.5-20.8
seconds on a 2-core host (four runs, as the host's speed drifted), under
one of them in the classify-large gate.
"""

import os
import sys

# one BLAS thread, as in the benchmark worker: two threads change last bits
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from qspec import cli  # noqa: E402
from qspec.io import format_qmat, format_qvec  # noqa: E402
from qspec.qlinalg import QMatrix, QVector  # noqa: E402

# the random streams perfbench/worker.py gives these three workloads
MATRIX_STREAM, PORTRAIT_STREAM, SERIES_STREAM = 1, 2, 3

# the random stream of the local gate's vectors
LOCAL_STREAM = 4

# the grid of the portrait-dense gate: the planted spheres lie in
# [-2, 2] x [0, 3]
DENSE_PORTRAIT_GRID = "--grid=-2,2,3,9x5"

# the suites whose instances build orthonormal bases of subspaces
SUBSPACE_SUITES = ("subspace-laws", "restriction-quotient", "mult-operator",
                   "intertwining", "local-laws", "matrix-structure")

# the suites of the local spectrum laws under products, and of planted
# spheres under similarity, that no other seeded gate runs
LAW_SUITES = ("product-laws", "defective-similarity")

# the membership thresholds of the classify-tol gate, below and above the
# default 1e-8
GATE_TOLS = ("1e-30", "1e-4")

# the sizes of the classify-large gate's random matrices
LARGE_SIZES = (16, 24, 32, 40, 48, 60)


def digest(argvs) -> tuple[str, int]:
    """sha256 over each command's exit code and stdout, and the stdout lines."""
    h, lines = hashlib.sha256(), 0
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        text = out.getvalue()
        h.update(f"{code}\n{text}".encode())
        lines += text.count("\n")
    return h.hexdigest(), lines


def seeded_checks(suites) -> list[list[str]]:
    """``check --suite S --trials 4`` for seeds 100-139 and each suite S."""
    return [["check", "--suite", suite, "--trials", "4", "--seed", str(seed)]
            for seed in range(100, 140) for suite in suites]


def seeded_matrix_requests(workdir: str) -> dict[int, list]:
    """The ``matrix`` benchmark requests of seeds 51-53, each seed's inputs
    written to a folder of its own, so no seed overwrites another's."""
    out = {}
    for seed in (51, 52, 53):
        folder = os.path.join(workdir, f"seed{seed}")
        os.mkdir(folder)
        out[seed] = workloads.build_matrix(np.random.default_rng([seed, MATRIX_STREAM]), folder)
    return out


def local_requests(seeded: dict[int, list], kind: str = "dense") -> list[list[str]]:
    """``local --op KIND:M --vector V`` for each input M of that kind
    (``dense``, a ``.qmat``, or ``mult``, a ``.qfun``) of the
    ``seeded_matrix_requests``, with V a seeded vector and then a basis
    vector, written next to M; each seed's vectors come from its own
    stream, drawn in request order."""
    out = []
    for seed, requests in seeded.items():
        rng = np.random.default_rng([seed, LOCAL_STREAM])
        for k, req in enumerate(requests):
            spec = req.argv[req.argv.index("--op") + 1]
            if not spec.startswith(f"{kind}:"):
                continue
            source = spec[len(kind) + 1:]
            with open(source, encoding="ascii") as fh:
                # a matrix header "n n", or one "label literal" line per point
                n = int(fh.readline().split()[0]) if kind == "dense" else len(fh.readlines())
            basis = np.zeros((n, 4))
            basis[rng.integers(n), 0] = 1.0
            for name, vec in (("v", rng.uniform(-1.0, 1.0, (n, 4))), ("e", basis)):
                path = os.path.join(os.path.dirname(source), f"{name}{k}.qvec")
                # rows w, x, y, z viewed as the complex pair w + x i, y + z i
                pairs = vec.view(np.complex128)
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(format_qvec(QVector(pairs[:, 0], pairs[:, 1])))
                out.append(["local", "--op", spec, "--vector", path])
    return out


def large_requests(workdir: str) -> list[list[str]]:
    """``classify --op dense:M`` for each size n in LARGE_SIZES, with M the
    random n x n matrix of the classify-large gate written to its own file."""
    out = []
    for n in LARGE_SIZES:
        rng = np.random.default_rng(3)
        c1, c2 = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
        path = os.path.join(workdir, f"large{n}.qmat")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(format_qmat(QMatrix(c1, c2)))
        out.append(["classify", "--op", f"dense:{path}"])
    return out


def gates(text: str) -> dict[str, str]:
    """Gate lines of one output, keyed by gate name."""
    return {line.split()[0]: line for line in text.splitlines() if line.strip()}


def compare(base_text: str, head_text: str) -> list[str]:
    """Failures of the head's gates against the base's, after printing a
    line per gate."""
    base, head = gates(base_text), gates(head_text)
    failures = []
    for name in sorted(base.keys() | head.keys()):
        if name not in head:
            failures.append(f"{name}: gate dropped by the head")
        elif name not in base:
            print(f"new gate  {head[name]}")
        elif base[name] != head[name]:
            failures.append(f"{name}: base {base[name]!r} != head {head[name]!r}")
        else:
            print(f"same      {head[name]}")
    for failure in failures:
        print(f"FAIL {failure}")
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--compare"] and len(argv) == 3:
        with open(argv[1]) as base, open(argv[2]) as head:
            return 1 if compare(base.read(), head.read()) else 0
    if argv:
        print("usage: output_gate.py [--compare BASE_OUTPUT HEAD_OUTPUT]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        matrix = [req.argv for seed in (51, 52, 53) for req in workloads.build_matrix(
            np.random.default_rng([seed, MATRIX_STREAM]), workdir)]
        portrait = [req.argv for req in workloads.build_portrait(
            np.random.default_rng([51, PORTRAIT_STREAM]), workdir)]
        series = [req.argv for req in workloads.build_series(
            np.random.default_rng([51, SERIES_STREAM]), workdir)]
        check = [["check", "--suite", "all", "--trials", "6", "--seed", str(seed)]
                 for seed in (42, 1)]
        subspace, laws = seeded_checks(SUBSPACE_SUITES), seeded_checks(LAW_SUITES)
        seeded = seeded_matrix_requests(workdir)
        local = local_requests(seeded)
        classify = [req.argv for requests in seeded.values() for req in requests]
        dense_portrait = [["portrait", "--op", req.argv[req.argv.index("--op") + 1],
                           DENSE_PORTRAIT_GRID] for req in seeded[51]]
        classify_tol = [req.argv + ["--tol", tol] for tol in GATE_TOLS for req in seeded[51]]
        for name, argvs in (("matrix", matrix), ("check", check), ("portrait", portrait),
                            ("series", series), ("subspace", subspace), ("laws", laws),
                            ("local", local), ("classify", classify),
                            ("portrait-dense", dense_portrait),
                            ("classify-large", large_requests(workdir)),
                            ("local-mult", local_requests(seeded, "mult")),
                            ("classify-tol", classify_tol)):
            sha, lines = digest(argvs)
            print(f"{name:<9} {len(argvs):>4} commands  sha256 {sha}  lines {lines}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
