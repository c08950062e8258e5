"""Record the lattice digests the ``lattice`` workload checks against.

Run from the root of a checkout; rewrites ``perfbench/lattice_digests.json``::

    python3 perfbench/record_digests.py

For x the all-singleton partition on n labels it records the digest of
``enumerate_coarsenings(x)`` and, for each y shape, of ``xi_set(x, y)``, and
confirms that relabelling the inputs relabels the outputs (the workload
permutes labels per op).
"""

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import entmono as em  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    out = {"enumerate_coarsenings": {}, "xi_set": {}}
    rng = np.random.default_rng(0)
    for n in (5, 6, 7, 8):
        canon = "ABCDEFGH"[:n]
        ident = {lab: lab for lab in canon}
        x = em.full_partition(canon)
        out["enumerate_coarsenings"][str(n)] = ref.partition_digest(em.enumerate_coarsenings(x), ident)
        for shape in workloads.Y_SHAPES:
            if shape != "merge" and sum(shape) > n:
                continue
            blocks = workloads.y_blocks(shape, n)
            digest = ref.partition_digest(em.xi_set(x, em.Partition(blocks, canon)), ident)
            perm = rng.permutation(n)
            to_actual = {canon[i]: canon[perm[i]] for i in range(n)}
            moved = em.xi_set(x, em.Partition([[to_actual[lab] for lab in b] for b in blocks], canon))
            if ref.partition_digest(moved, {v: k for k, v in to_actual.items()}) != digest:
                raise SystemExit(f"xi_set is not relabelling-equivariant at {shape} on {n} labels")
            out["xi_set"][workloads.shape_key(n, shape)] = digest
            print(workloads.shape_key(n, shape), digest[:12], flush=True)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
