"""qspec benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

Run from the root of a qspec checkout; qspec is imported from ./src.  The
run starts SETUP_SAMPLES worker processes one after another.  All but the
last only set up and report their set-up time; the last also replays the
workload's request cycle for ``--seconds`` and checks every answer.  With
``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced replay, and the spans go to perfbench/out/.  Times are scaled to
a nominal host speed measured with reference jobs (see worker.py).  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("matrix", "portrait", "series", "suites")
SETUP_SAMPLES = 3
DEADLINE_S = 170
END_TO_END = {
    "goodput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("quat.hamilton_products", "spectral.kappa_points"):
        return "count"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("us_per_point"):
        return "us"
    return "ratio"


def start_worker(args, mode: str, deadline: float) -> dict:
    # Fixed string hashing keeps set order, and so the traced call counts,
    # the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    timeout = deadline - t0
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), ROOT, args.workload,
         str(args.seed), str(args.seconds), str(args.trace), mode, repr(t0)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qspec", "__init__.py")):
        print(f"error: no qspec sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [start_worker(args, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = start_worker(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    if res["beyond_p90"] < 10:
        print(f"error: only {res['beyond_p90']} requests beyond p90", file=sys.stderr)
        return 1
    res["setup_s"] = statistics.median(setups)
    correct = not res["unexpected"] and res["self_test"] is None

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {res['attempted']} requests "
          f"({res['passes']} passes of a {res['cycle']}-request cycle)")
    if args.trace:
        print("  end-to-end metrics are measured with --trace 0 only")
    else:
        for name, unit in END_TO_END.items():
            print(f"  {name:16s} {res[name]:12.6g} {unit}")
    print(f"  {'error_rate':16s} {res['error_rate']:12.6g} ratio  "
          f"({res['failed']} failed, {res['known_failures']} of them documented "
          "defects)")
    print(f"  p90 sample: {res['beyond_p90']} requests beyond it; "
          f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
    lo, hi = res["speed_range"]
    print(f"  host speed factor median {res['speed_median']:.3f} (range {lo:.3f}-{hi:.3f}); "
          f"unscaled wall p50 {res['wall_p50_ms']:.3f} ms, set-up {res['setup_wall_s']:.3f} s")
    print(f"  cpu/wall {res['cpu_per_wall']:.3f}  host steal ticks {res['steal_ticks']}")
    for reason in res["unexpected"]:
        print(f"  unexpected failure: {reason}")
    if res["self_test"]:
        print(f"  self-test: {res['self_test']}")
    if args.trace:
        print(f"  spans written to {res['trace_file']}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
