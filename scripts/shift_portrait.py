#!/usr/bin/env python3
"""Sample spectral portraits of both shifts and print annulus statistics.

Writes CSV portraits next to this script (or into --outdir) and reports,
for a few window sizes, how the sampled kappa field resolves the unit
circle: min kappa on the circle, max kappa well inside, and the count of
threshold-flagged cells.
"""

import argparse
import os
import time

import numpy as np

from qspec.operators import ShiftOperator
from qspec.spectral import portrait, threshold_region


def stats(op, grid, window):
    t0 = time.time()
    p = portrait(op, grid, window=window)
    dt = time.time() - t0
    X, Y = np.meshgrid(grid.xs(), grid.ys())
    r = np.sqrt(X ** 2 + Y ** 2)
    on_circle = np.abs(r - 1.0) < 0.05
    inside = r < 0.6
    flagged = threshold_region(p).cell_count()
    return p, {
        "window": window,
        "seconds": dt,
        "kappa_on_circle_min": float(p.values[on_circle].min()),
        "kappa_inside_max": float(p.values[inside].max()),
        "flagged_cells": int(flagged),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default=os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("--grid", default="-1.5,1.5,1.5,128x64")
    ap.add_argument("--windows", default="32,64,128")
    args = ap.parse_args()

    from qspec.io import parse_grid

    grid = parse_grid(args.grid)
    windows = [int(w) for w in args.windows.split(",")]

    for side in ("right", "left"):
        op = ShiftOperator(side)
        for w in windows:
            p, row = stats(op, grid, w)
            print(f"{side:5s} window={row['window']:4d} "
                  f"circle-min={row['kappa_on_circle_min']:.3e} "
                  f"inside-max={row['kappa_inside_max']:.3e} "
                  f"flagged={row['flagged_cells']:4d} "
                  f"({row['seconds']:.1f}s)")
        out = os.path.join(args.outdir, f"portrait_{side}_{windows[-1]}.csv")
        p.write_csv(out)
        print(f"  wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
