#!/usr/bin/env python3
"""Single-threaded timings of the MeatAxe layers, appended to BENCH_meataxe.json.

    python3 benchmarks/bench_meataxe_layers.py --label "after: float64 products"

Times spin, nullspace, rref_prime, _random_algebra_element, split_module
and chop on permutation modules of SL2(q) over F2, F3 and F5:

  d = 100  the tensor square of SL2(9) on the 10 projective points;
  d = 144  the tensor square of SL2(11) on the 12 projective points;
  d = 288  SL2(17) on the 288 nonzero vectors of F17^2.

It also times whole catalog builds, irreducible_catalog at their
verify.CATALOG_SPECS caps on a prebuilt group, for CATALOGS: the layer that
skips chops whose eigenvalue profile adds no type.

Every input is fixed by SEED, so two checkouts time the same work:
nullspace and rref_prime reduce the same random algebra element.  chop
runs at d = 100 and 144 only: at d = 288 it raises InconclusiveError over
F3 and F5 at most chop seeds (ROADMAP item 1).  Each layer makes one
untimed warm-up call, then reports the median of REPEATS timed ones.
--src picks the chardeg sources to time (default: the ones beside this
script); the record names their git commit, with "-dirty" appended when
those sources differ from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# single-threaded BLAS, as perfbench runs; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent

MODULES = (
    (100, 9, "projective-points", True),
    (144, 11, "projective-points", True),
    (288, 17, "nonzero-vectors", False),
)
PRIMES = (2, 3, 5)
CATALOGS = ((9, 2, 20), (9, 3, 16), (13, 3, 12))
SEED = 42
REPEATS = 5
OUT = ROOT / "BENCH_meataxe.json"


def _median_time(fn, repeats: int) -> float:
    fn()  # warm-up, untimed
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _module(q: int, action: str, r: int, square: bool):
    from chardeg.groups import sl2_group
    from chardeg.modules import perm_module, tensor

    m = perm_module(sl2_group(q), action, r)
    return tensor(m, m) if square else m


def time_layers(seed: int, repeats: int) -> dict:
    import numpy as np

    from chardeg.groups import sl2_group
    from chardeg.kernels import rref_prime
    from chardeg.linalg import nullspace
    from chardeg.modules import (
        _meataxe_step,
        _random_algebra_element,
        chop,
        irreducible_catalog,
        spin,
        split_module,
    )

    out = {}
    for d, q, action, square in MODULES:
        for r in PRIMES:
            m = _module(q, action, r, square)
            F = m.field
            assert m.dim == d
            rng = np.random.default_rng(seed)
            act = [g.T.copy() for g in m.gen_images]
            v = rng.integers(0, r, size=d)
            A = _random_algebra_element(np.random.default_rng(seed), F, m.gen_images)
            verdict, W = _meataxe_step(m, np.random.default_rng(seed))
            key = f"d={d} F{r}"
            out[f"spin {key}"] = _median_time(lambda: spin(F, [v], act, d), repeats)
            out[f"nullspace {key}"] = _median_time(lambda: nullspace(F, A), repeats)
            out[f"rref_prime {key}"] = _median_time(lambda: rref_prime(A, r), repeats)
            out[f"random_algebra_element {key}"] = _median_time(
                lambda: _random_algebra_element(np.random.default_rng(seed), F, m.gen_images),
                repeats,
            )
            if verdict == "sub":
                out[f"split_module {key}"] = _median_time(lambda: split_module(m, W), repeats)
            if d <= 144:
                out[f"chop {key}"] = _median_time(lambda: chop(m, seed=seed), repeats)
    for q, r, cap in CATALOGS:
        g = sl2_group(q)
        out[f"catalog sl2:{q}/F{r} cap {cap}"] = _median_time(
            lambda: irreducible_catalog(g, r, cap, seed=seed), repeats
        )
    return out


def _git(src: Path, *args: str) -> str:
    try:
        res = subprocess.run(["git", *args], cwd=src, capture_output=True, text=True, timeout=30)
    except OSError:
        return ""
    return res.stdout.strip() if res.returncode == 0 else ""


def _commit(src: Path) -> str | None:
    """The commit of the timed sources; "-dirty" if they differ from it."""
    head = _git(src, "rev-parse", "--short", "HEAD")
    if not head:
        return None
    return head + "-dirty" if _git(src, "status", "--porcelain", "--", ".") else head


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the chardeg package")
    ap.add_argument("--label", required=True, help="what the timed checkout is, e.g. 'parent' or 'change'")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    layers = time_layers(SEED, REPEATS)
    record = {
        "label": args.label,
        "commit": _commit(args.src),
        "date": time.strftime("%Y-%m-%d"),
        "seed": SEED,
        "warmup": 1,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "median_s": {k: round(v, 5) for k, v in layers.items()},
    }
    records = json.loads(OUT.read_text()) if OUT.exists() else []
    records.append(record)
    OUT.write_text(json.dumps(records, indent=1) + "\n")
    for k, v in layers.items():
        print(f"{k:40s} {v * 1000:9.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
