"""One benchmark worker: set up, replay the request cycle, report JSON.

Started by run.py as ``python3 worker.py ROOT WORKLOAD SEED SECONDS
TRACE MODE T0``.  BLAS and qspec threading are pinned to one thread
before numpy loads: two BLAS threads on two cores gave CPU/wall of
1.3-1.5 and nondeterministic last bits, and no speed-up.  MODE
``setup`` stops once the worker is ready and reports only ``setup_s``;
MODE ``run`` goes on to measure.  T0 is the ``time.monotonic()`` reading
taken by the parent just before it started this process, so ``setup_s``
covers interpreter start, importing qspec, generating and writing the
inputs and one warm-up request of each kind.

Every time reported is scaled to a nominal host speed by the reference
jobs of hostspeed.py, timed before every request.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "QSPEC_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_STREAMS = {"matrix": 1, "portrait": 2, "series": 3, "suites": 4}
# Reference runs at the start and at the end of set-up.
SETUP_REFERENCES = 5
# Every cycle has at least 102 requests, so two passes put at least 20
# requests beyond p90 however slow the host is.
MIN_PASSES = 2

def import_qspec(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qspec
    import qspec.cli
    if not os.path.abspath(qspec.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"qspec imported from {qspec.__file__}, not from {src}")
    return qspec


@dataclass(slots=True)
class Outcome:
    """What one request did: wall time, pass/fail and why."""

    kind: str
    seconds: float
    reason: str | None      # None when the request passed its check
    known: bool             # failed with a documented defect


def check(wl, req, text: str, lib) -> str | None:
    try:
        return wl.check(req, text, lib)
    except (ValueError, KeyError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def run_request(qspec, wl, req) -> tuple[Outcome, str, object]:
    out, err = io.StringIO(), io.StringIO()
    lib, crash = None, None
    t = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qspec.cli.main(req.argv)
            if code == 0 and wl.library is not None:
                lib = wl.library(qspec, req)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a dead run
            crash = f"crash: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t
    text = out.getvalue()
    if crash is not None:
        reason = crash
    elif code != 0:
        reason = f"exit {code}: {err.getvalue().strip()[:200]}"
    else:
        reason = check(wl, req, text, lib)
    known = reason is not None and any(k in reason for k in req.known)
    return Outcome(req.kind, seconds, reason, known), text, lib


@dataclass(slots=True)
class Replay:
    passes: list[list[Outcome]]
    speed: np.ndarray           # speed factor of each request, in order


def replay(qspec, wl, cycle, seconds: float, ref, tracer=None) -> Replay:
    """Whole passes over the cycle, ending at the pass boundary nearest to
    ``seconds``; at least MIN_PASSES.  ``ref`` is (reference jobs, nominal
    seconds), run before each request."""
    jobs, nominal = ref
    passes, refs = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        outcomes = []
        for req in cycle:
            refs.append(hostspeed.reference(jobs))
            if tracer is not None:
                tracer.request += 1
            outcomes.append(run_request(qspec, wl, req)[0])
        passes.append(outcomes)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - pass_start) / 2 >= seconds:
            return Replay(passes, hostspeed.speed_factors(refs, nominal))


def self_test(qspec, wl, cycle) -> str | None:
    """The checker must reject every corrupted copy of a right answer."""
    for req in cycle:
        outcome, text, lib = run_request(qspec, wl, req)
        if outcome.reason is None:
            for corrupt in wl.corruptions:
                if check(wl, req, corrupt(text), lib) is None:
                    return f"check accepted a {req.kind} answer after {corrupt.__name__}"
            return None
    return "no request passed, so the check could not be self-tested"


def steal_ticks() -> int:
    """Host steal ticks summed over CPUs, from /proc/stat (-1 if unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def hd_quantile(x: np.ndarray, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of x: the order statistics
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass between (i-1)/n and i/n.

    Request times come in clusters (one per suite and trial count, say),
    and a plain percentile taken between two clusters jumps by the whole
    gap when one request changes rank; this estimate moves smoothly.  The
    Beta cdf is integrated here with the trapezoid rule, so that the
    worker loads nothing that qspec does not (scipy.stats would add 40 MB
    to peak RSS and 0.4 s to set-up).
    """
    x = np.sort(x)
    n, steps = len(x), 64
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, steps * n + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))[::steps]
    return float(np.dot(np.diff(cdf) / cdf[-1], x))


def summarize(rep: Replay) -> dict:
    """End-to-end metrics over every attempted request of a replay, with
    each request's wall time scaled by its speed factor."""
    outcomes = [o for run in rep.passes for o in run]
    passed = sum(1 for o in outcomes if o.reason is None)
    wall = np.array([o.seconds for o in outcomes]) * 1e3
    speed = rep.speed
    lat = wall * speed
    p50, p90 = hd_quantile(lat, 0.5), hd_quantile(lat, 0.9)
    return {
        "attempted": len(outcomes),
        "failed": len(outcomes) - passed,
        "known_failures": sum(1 for o in outcomes if o.known),
        "unexpected": sorted({f"{o.kind}: {o.reason}" for o in outcomes
                              if o.reason is not None and not o.known})[:5],
        "goodput_per_s": passed / (float(np.sum(lat)) / 1e3),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "beyond_p90": int(np.sum(lat > p90)),
        "error_rate": (len(outcomes) - passed) / len(outcomes),
        "wall_p50_ms": float(np.median(wall)),
        "speed_median": float(np.median(speed)),
        "speed_range": (float(np.min(speed)), float(np.max(speed))),
    }


def main(argv) -> int:
    root, name, seed, seconds, trace, mode, t0 = argv
    seed, seconds, trace, t0 = int(seed), float(seconds), trace == "1", float(t0)
    warnings.simplefilter("ignore")
    ref = hostspeed.REFERENCES[name]
    ref_start = time.monotonic()
    refs = [hostspeed.reference(ref[0]) for _ in range(SETUP_REFERENCES)]
    ref_cost = time.monotonic() - ref_start
    qspec = import_qspec(root)
    wl = workloads.WORKLOADS[name]
    workdir = os.path.join(root, "perfbench", "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cycle = wl.build(np.random.default_rng([seed, WORKLOAD_STREAMS[name]]), workdir)
        first_of_kind = {}
        for req in cycle:
            first_of_kind.setdefault(req.kind, req)
        for req in first_of_kind.values():
            run_request(qspec, wl, req)
        setup_wall = time.monotonic() - t0 - ref_cost
        refs += [hostspeed.reference(ref[0]) for _ in range(SETUP_REFERENCES)]
        setup_s = setup_wall * ref[1] / float(np.median(refs))
        if mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        cpu0, steal0, wall0 = time.process_time(), steal_ticks(), time.perf_counter()
        if trace:
            import tracing
            plain = replay(qspec, wl, cycle, seconds / 2, ref)
            tracer = tracing.Tracer()
            tracer.install(qspec)
            try:
                rep = replay(qspec, wl, cycle, seconds / 2, ref, tracer)
            finally:
                tracer.uninstall()
        else:
            rep = replay(qspec, wl, cycle, seconds, ref)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        steal1 = steal_ticks()

        result = summarize(rep)
        result.update(
            setup_s=setup_s,
            setup_wall_s=setup_wall,
            passes=len(rep.passes),
            cycle=len(cycle),
            cpu_per_wall=cpu / wall,
            steal_ticks=steal1 - steal0 if steal0 >= 0 and steal1 >= 0 else -1,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            self_test=self_test(qspec, wl, cycle),
        )
        if trace:
            path = os.path.join(root, "perfbench", "out", f"trace-{name}-{seed}.jsonl")
            tracer.write(path)
            result["trace_file"] = os.path.relpath(path, root)
            result["layers"] = tracer.layer_metrics(
                result["attempted"], float(np.median(rep.speed)))
            result["layers"]["trace.overhead_ratio"] = (
                summarize(plain)["goodput_per_s"] / result["goodput_per_s"])
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
