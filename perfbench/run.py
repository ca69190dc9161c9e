#!/usr/bin/env python3
"""chardeg benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload meataxe --seed 1 --seconds 36 --trace 0

Each pass of a workload runs in a fresh single-threaded interpreter
(worker.py), because chardeg's caches (field_make, Harness, GroupTable)
fill as the work runs and a second pass in one process would be warm.
Passes repeat, each on new inputs drawn from (--seed, pass index), until
--seconds would be exceeded.  The last line of stdout is one JSON object:

  --trace 0  end-to-end metrics: the median over passes of the pass wall
             time, the set-up time of the worker (fresh interpreter until
             numpy and chardeg are imported and the inputs are read) and
             its peak resident memory;
  --trace 1  per-layer metrics: passes run in pairs on the same inputs,
             untraced then traced; the traced one wraps every layer's
             public functions (tracer.py).  Layer metrics are means per
             traced pass; the tracing overhead is the traced median wall
             time minus the untraced one.

Every pass's outputs are checked, outside the timed region, against
reference.json; a traced pass must also give bit-identical results to its
untraced twin, and its self times must account for its wall time.
`--workload all` runs the three workloads one after another.

A full record of each run, with the environment fingerprint, goes to
perfbench/results/; compare.py compares such records.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, pass_inputs  # noqa: E402

# Workers started only to time set-up, on top of one per pass, so that the
# set-up median rests on enough samples even when few passes fit.
SETUP_SAMPLES = 5
# A run may take 180 s: no pass starts after HARD_STOP_S, and a worker
# still running at RUN_LIMIT_S is killed and its pass counted as failed.
HARD_STOP_S = 120
RUN_LIMIT_S = 160


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def fingerprint() -> dict:
    """What kernel dispatch and speed depend on; results compare only if equal."""
    probe = (
        "import json, sys, numpy\n"
        "try:\n    import numba; nb = numba.__version__\nexcept ImportError:\n    nb = None\n"
        "from chardeg import kernels\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        " 'numba': nb, 'jit_enabled': kernels.JIT_ENABLED}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=worker_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=60, check=True,
    )
    fp = json.loads(out.stdout.strip().splitlines()[-1])
    fp["CHARDEG_JIT"] = os.environ.get("CHARDEG_JIT")
    fp["nproc"] = len(os.sched_getaffinity(0))
    fp["cpu_model"] = _cpu_model()
    return fp


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def run_worker(inputs: dict, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one pass in a fresh interpreter; returns its record plus setup_s."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(inputs)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=worker_env(), text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(timeout - setup, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"crashed": f"killed after {timeout:.0f} s", "setup_s": setup}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if inputs.get("setup_only") and proc.returncode == 0:
        return {"setup_s": setup}
    lines = out.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {err.strip()[-2000:]}", "setup_s": setup}
    record = json.loads(lines[-1])
    record["setup_s"] = setup
    return record


def check_pass(record: dict, reference: dict) -> tuple[int, list]:
    """Number of failed operations of a pass, and why each failed."""
    if "crashed" in record:
        return len(reference), [f"worker crashed: {record['crashed']}"]
    bad = []
    for label, want in reference.items():
        if label in record["errors"]:
            bad.append(f"{label}: {record['errors'][label]}")
        elif record["outputs"].get(label) != want:
            bad.append(f"{label}: output differs from reference.json")
    return len(bad), bad


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    ref = reference[workload]
    RESULTS.mkdir(exist_ok=True)
    plain, traced, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    setups = []
    index = 0
    while True:
        if not trace and index < SETUP_SAMPLES:
            setups.append(run_worker({"workload": workload, "trace": False, "setup_only": True})["setup_s"])
        inputs = pass_inputs(workload, seed, index) | {"trace": False}
        rec = run_worker(inputs, RUN_LIMIT_S - (time.perf_counter() - start))
        plain.append(rec)
        checked = [rec]
        if trace:
            # raw spans of the first traced pass only, to bound disk use
            spans_path = RESULTS / f"{workload}-seed{seed}-spans.json" if index == 0 else None
            twin = run_worker(
                inputs | {"trace": True, "spans_path": spans_path and str(spans_path)},
                RUN_LIMIT_S - (time.perf_counter() - start),
            )
            traced.append(twin)
            checked.append(twin)
            problems += _trace_problems(rec, twin, index)
        for r in checked:
            n_bad, why = check_pass(r, ref)
            attempted += len(ref)
            failed += n_bad
            problems += [f"pass {index}: {w}" for w in why]
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds or elapsed > HARD_STOP_S:
            break
    ok_plain = [r for r in plain if "crashed" not in r]
    metrics = {}
    if not trace:
        if ok_plain:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in ok_plain),
                "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
                "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok_plain),
            }
    else:
        ok_traced = [r for r in traced if "crashed" not in r]
        if ok_plain and ok_traced:
            per_pass = [r["trace"]["metrics"] for r in ok_traced]
            metrics = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
            metrics["process.cpu_s"] = statistics.fmean(r["cpu_s"] for r in ok_plain)
            metrics["trace.overhead_s"] = statistics.median(
                r["wall_s"] for r in ok_traced
            ) - statistics.median(r["wall_s"] for r in ok_plain)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(plain),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems and bool(metrics),
        "problems": problems,
        "metrics": metrics,
        "setup_only_s": setups,
        "plain": [_brief(r) for r in plain],
        "traced": [_brief(r) | {"trace": r.get("trace")} for r in traced],
    }


def _trace_problems(plain: dict, traced: dict, index: int) -> list:
    if "crashed" in plain or "crashed" in traced:
        return []  # counted by check_pass
    out = []
    if plain["exact"] != traced["exact"]:
        diff = sorted(k for k in plain["exact"] if plain["exact"][k] != traced["exact"].get(k))
        out.append(f"pass {index}: traced outputs differ from untraced: {diff}")
    if not traced["trace"]["accounting"]["ok"]:
        out.append(f"pass {index}: self times do not sum to wall time: {traced['trace']['accounting']}")
    return out


def _print_trace(workload: str, traced: list) -> None:
    """Top self-time chains and call shapes, summed over the traced passes."""
    ok = [r["trace"] for r in traced if "crashed" not in r]
    for part, label in (("chains", "chain"), ("rref_shapes", "rref shape"), ("sweep_shapes", "sweep space")):
        total: dict = {}
        for t in ok:
            for row in t["summary"][part]:
                calls, self_s = total.get(row["key"], (0, 0.0))
                total[row["key"]] = (calls + row["calls"], self_s + row["self_s"])
        for key, (calls, self_s) in sorted(total.items(), key=lambda kv: -kv[1][1])[:5]:
            print(f"[{workload}] {label} {key}: calls={calls} self={self_s / len(ok):.4g} s/pass")


def _brief(r: dict) -> dict:
    keys = ("setup_s", "wall_s", "cpu_s", "rss_mb", "op_s", "errors", "crashed")
    return {k: r[k] for k in keys if k in r}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "chardeg" / "__init__.py").is_file():
        print(f"chardeg sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # byte-compile once, so no pass pays for it in its set-up time
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "chardeg"), str(HERE)],
                   check=True, capture_output=True, timeout=120)
    fp = fingerprint()
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for w in workloads:
        res = run_workload(w, args.seed, args.seconds, bool(args.trace), reference)
        if res["metrics"] and set(res["metrics"]) != set(declared):
            raise SystemExit(f"metrics {sorted(res['metrics'])} do not match BENCHMARK.json")
        res["fingerprint"] = fp
        out = RESULTS / f"{w}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(res, indent=1))
        runs.append(res)
        print(f"[{w}] passes={res['passes']} record={out.relative_to(ROOT)}")
        for name, value in res["metrics"].items():
            print(f"[{w}] {name} = {value:.6g} {declared[name]}")
        if args.trace:
            _print_trace(w, res["traced"])
        rate = res["failed"] / res["attempted"] if res["attempted"] else 1.0
        print(f"[{w}] failure_rate = {rate:.6g} ({res['failed']}/{res['attempted']} operations)")
        for p in res["problems"][:20]:
            print(f"[{w}] FAIL {p}")
    if len(runs) == 1:
        metrics = {k: {"value": v, "unit": declared[k]} for k, v in runs[0]["metrics"].items()}
    else:
        metrics = {
            f"{r['workload']}.{k}": {"value": v, "unit": declared[k]}
            for r in runs
            for k, v in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
