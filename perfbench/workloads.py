"""Workload definitions and seeded input generation (standard library only).

A pass is the unit that runs in one fresh worker process.  Its inputs are
made here from (workload, run seed, pass index) alone, so the same seed
always gives the same inputs; the worker receives only these inputs.

The seed reaches the program the way a user's seed does: as the harness
seed (verify) and the chop seed (meataxe).  The orbit computations take no
seed, so each module of the orbits workload is conjugated by a seeded
monomial matrix (a permutation of the basis with nonzero scalings), which
changes the vector keys and matrices the sweeps work on.  Every checked
output (catalog dimensions, composition factors by dimension and class
traces, orbit counts and sizes, degree sets) is independent of the seed, so
one reference serves all seeds.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify", "meataxe", "orbits")

# verify: the acceptance checks that need no catalog above 1 s.  The
# sl2:11/F3 and sl2:13/F3 catalogs take 25 s and 42 s per build, which no
# run of this benchmark can afford several times; the seven other catalogs
# of verify.CATALOG_SPECS are built, in the harness's order.
VERIFY_BIG_CATALOGS = ((11, 3), (13, 3))
VERIFY_CHECKS = (
    "group-orders",
    "sylow-normalizer-counts",
    "degree-graph-shapes",
    "natural-extension-components",
    "predicted-cut-vertex-graphs",
    "degree-square-identity",
    "graph-analyzer-oracle",
    "rank-nullity",
    "orbit-sizes",
    "inequality-ledgers",
    "three-vertex-scan",
    "primitive-divisors",
)

# meataxe: chop of tensor squares of projective-line permutation modules,
# (label, q, r): dim 100 over F2, F3 (the defining characteristic) and F5,
# and dim 144 over F2.  Chop time depends on the chop seed (about 0.5x-2x
# of the median for these modules), so a run needs many chops for a steady
# median; a pass of these four takes about 2.3 s.  Larger modules were left
# out: the permutation modules on nonzero vectors (dim 255-360) have chop
# times heavy-tailed in the seed (sl2:19/F3 from 5.4 s to 58 s, sl2:16/F3
# from 4.7 s to 16 s over eight seeds), and sl2:17/F3 raised
# InconclusiveError at chop seed 2.
MEATAXE_MODULES = (
    ("sl2:9/F2 P1^2", 9, 2),
    ("sl2:9/F3 P1^2", 9, 3),
    ("sl2:9/F5 P1^2", 9, 5),
    ("sl2:11/F2 P1^2", 11, 2),
)

# orbits: covering classification of projective-line permutation modules,
# (label, q, r, minus prime, plus prime), up to the 3^12 orbit-space cap.
# SL2(17) on F2^18 (1.8 s) and SL2(7) on F5^8 (2.6 s) were left out to
# keep a pass near 5 s: the machine's speed drifts by 10-20% over seconds,
# and only a run of many passes averages that out.
ORBIT_MODULES = (
    ("sl2:11 on F3^12", 11, 3, 5, 3),
    ("sl2:13 on F2^14", 13, 2, 3, 7),
    ("sl2:9 on F3^10", 9, 3, None, 5),
)
# ... and semidirect_degrees of the natural module of SL2(p^k), written over
# F_p with dimension 2k: (q, p, k).  Most of their time is group closure
# and the element-image table of SL2(q).
SEMIDIRECT = ((16, 2, 4), (25, 5, 2), (27, 3, 3))


def _monomial(rng: random.Random, r: int, dim: int) -> dict:
    perm = list(range(dim))
    rng.shuffle(perm)
    return {"perm": perm, "scale": [rng.randrange(1, r) for _ in range(dim)]}


def pass_inputs(workload: str, seed: int, index: int) -> dict:
    """The generated inputs of pass `index` of a run with seed `seed`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "verify":
        return {"workload": workload, "harness_seed": rng.randrange(1 << 30)}
    if workload == "meataxe":
        ops = [
            {"label": label, "q": q, "r": r, "chop_seed": rng.randrange(1 << 30)}
            for label, q, r in MEATAXE_MODULES
        ]
        return {"workload": workload, "ops": ops}
    if workload == "orbits":
        ops = []
        for label, q, r, minus, plus in ORBIT_MODULES:
            ops.append(
                {"label": label, "op": "covering", "q": q, "r": r, "minus": minus, "plus": plus}
                | _monomial(rng, r, q + 1)
            )
        for q, p, k in SEMIDIRECT:
            ops.append(
                {"label": f"sl2:{q} natural semidirect", "op": "semidirect", "q": q}
                | _monomial(rng, p, 2 * k)
            )
        return {"workload": workload, "ops": ops}
    raise ValueError(f"unknown workload {workload!r}")
