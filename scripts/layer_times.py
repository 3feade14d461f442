#!/usr/bin/env python3
"""Time the matrix kernels of two qspec checkouts, layer by layer.

    python3 scripts/layer_times.py BASE_CHECKOUT HEAD_CHECKOUT [--rounds N]

Each round starts one worker process per checkout, in alternating order
(base first in even rounds, head first in odd ones).  A worker imports
qspec from the ``src`` of its checkout, builds seed 51's ``matrix``
benchmark inputs with the request builder of ``perfbench/workloads.py``
of the checkout this script sits in (which it only reads), parses the
dense ones with its own ``qspec.io`` and times each layer over them, in
CPU time on one OpenBLAS thread, as the fastest of PASSES passes:

  growth_bounds          ``spectral.growth_bounds``
  spectral_decomposition ``qlinalg.spectral_decomposition`` of a fresh
                         copy of each matrix, with the bound reads that
                         ``classify`` makes: the kernel counts at 1e-8 and
                         1e-10 and the kappa flags at classify's threshold
  spectral_projections   ``localspec.spectral_projections`` on a matrix
                         whose decomposition is already built: the
                         validation of its projections
  classify               ``spectral.classify`` of a fresh copy

It prints one JSON object: for each layer the median over the rounds of
each side's microseconds per input, the relative change of the medians
and the number of rounds the head was faster in.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the seed and random stream of the benchmark's ``matrix`` inputs, as
#: perfbench/worker.py draws them
SEED, MATRIX_STREAM = 51, 1

#: passes per layer in a worker, of which the fastest counts
PASSES = 3

LAYERS = ("growth_bounds", "spectral_decomposition", "spectral_projections", "classify")


def _worker(checkout: str) -> dict[str, float]:
    """Microseconds per dense input of each layer."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(ROOT, "perfbench")]
    import numpy as np
    import workloads
    from qspec import io, localspec, qlinalg, spectral

    with tempfile.TemporaryDirectory() as workdir:
        mats = []
        for req in workloads.build_matrix(np.random.default_rng([SEED, MATRIX_STREAM]), workdir):
            kind, path = req.argv[-1].split(":", 1)
            if kind == "dense":
                mats.append(io.parse_qmat(io.read_text(path)))

    def fresh():
        return [qlinalg.QMatrix(a.c1, a.c2) for a in mats]    # no decomposition kept

    def built():
        out = fresh()
        for b in out:
            qlinalg.spectral_decomposition(b)
        return out

    def decomposition(b):
        dec = qlinalg.spectral_decomposition(b)
        dec.kernel_dims(1e-8)
        dec.kernel_dims(1e-10)
        dec.kappa_at_most(spectral.membership_threshold(b, 1e-8))

    def timed(fn, inputs) -> float:
        """The fastest of PASSES passes, each over new inputs."""
        best = float("inf")
        for _ in range(PASSES):
            batch = inputs()
            start = time.process_time_ns()
            for b in batch:
                fn(b)
            best = min(best, time.process_time_ns() - start)
        return best / 1e3 / len(mats)

    for b in fresh():    # warm up every layer once
        spectral.classify(b)
        localspec.spectral_projections(b)
    return {"growth_bounds": timed(spectral.growth_bounds, lambda: mats),
            "spectral_decomposition": timed(decomposition, fresh),
            "spectral_projections": timed(localspec.spectral_projections, built),
            "classify": timed(spectral.classify, fresh)}


def _run(checkout: str) -> dict[str, float]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", checkout],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(run.stdout)


def compare(base: str, head: str, rounds: int) -> dict:
    times = {"base": [], "head": []}
    for r in range(rounds):
        order = ("base", "head") if r % 2 == 0 else ("head", "base")
        for side in order:
            times[side].append(_run(base if side == "base" else head))
    layers = {}
    for layer in LAYERS:
        b = [t[layer] for t in times["base"]]
        h = [t[layer] for t in times["head"]]
        base_us, head_us = statistics.median(b), statistics.median(h)
        layers[layer] = {"base_us": round(base_us, 1), "head_us": round(head_us, 1),
                         "change": round(head_us / base_us - 1.0, 4),
                         "head_wins": sum(y < x for x, y in zip(b, h))}
    return {"seed": SEED, "rounds": rounds, "layers": layers}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"] and len(argv) == 2:
        print(json.dumps(_worker(os.path.abspath(argv[1]))))
        return 0
    rounds = 10
    if len(argv) == 4 and argv[2] == "--rounds":
        rounds = int(argv[3])
    elif len(argv) != 2:
        print("usage: layer_times.py BASE_CHECKOUT HEAD_CHECKOUT [--rounds N]", file=sys.stderr)
        return 2
    print(json.dumps(compare(os.path.abspath(argv[0]), os.path.abspath(argv[1]), rounds),
                     indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
