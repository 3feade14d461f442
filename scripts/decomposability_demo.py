#!/usr/bin/env python3
"""Walk the decomposability necessary condition across operator families.

Three exhibits:
  1. a random matrix, where the four spectral sets coincide and the
     condition passes;
  2. a multiplication operator, decomposable by construction, with the
     partition of a two-disk cover shown explicitly;
  3. both shifts, where the exact lower bounds of R_q on both sides of the
     adjoint duality (the symbol limits of the window kappas) refute the
     condition.
"""

import argparse

from qspec import localspec, rand
from qspec.operators import HalfPlaneRegion, MultiplicationOperator, ShiftOperator
from qspec.quat import Quaternion


def show(title, verdict):
    print(f"== {title}")
    print(f"   status  {verdict.status}")
    if verdict.witness is not None:
        print(f"   witness ({verdict.witness.re:.3f}, {verdict.witness.im:.3f})")
    print(f"   {verdict.detail}")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = rand.generator(args.seed, 0)
    a = rand.rand_qmatrix(rng, 5, 5)
    show("random 5x5 matrix", localspec.decomposability_necessary(a))

    vals = (Quaternion(0, 1, 0, 0), Quaternion(2, 0, 0, 0),
            Quaternion(0, 0, 1, 0), Quaternion(2.1, 0.1, 0, 0))
    m = MultiplicationOperator(("a", "b", "c", "d"), vals)
    show("multiplication operator on 4 points",
         localspec.decomposability_necessary(m.as_qmatrix()))
    u1 = HalfPlaneRegion.disk(0, 1, 0.5)
    u2 = HalfPlaneRegion.disk(2, 0, 0.5)
    from qspec.operators import partition_splitting

    m1, m2 = partition_splitting(m, u1, u2)
    print(f"   two-disk partition dims: {m1.dim} + {m2.dim} "
          f"(space dim {len(vals)})")
    print()

    for side in ("right", "left"):
        show(f"{side} shift (symbol limit)",
             localspec.decomposability_necessary(ShiftOperator(side)))

    for side in ("right", "left"):
        s = localspec.svep_status(ShiftOperator(side))
        print(f"svep[{side} shift] = {s.has_svep}  ({s.reason})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
