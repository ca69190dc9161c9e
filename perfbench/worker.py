"""One benchmark pass in a fresh interpreter.

run.py starts this script once per pass with the pass inputs (see
workloads.py) as its one argument, a JSON object.  The worker prints "ready"
once numpy and chardeg are imported and the inputs are read; that point
ends the set-up time.  It then runs the pass inside the timed region, and
afterwards, outside it, derives the outputs that run.py checks.  The last
line it prints is one JSON object.

Calls into chardeg go through module attributes (modules.chop, not a
name imported here), so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

import numpy as np

import chardeg.classify as classify
import chardeg.groups as groups
import chardeg.modules as modules
import chardeg.orbits as orbits
import chardeg.verify as verify
from workloads import VERIFY_BIG_CATALOGS, VERIFY_CHECKS

# A raised error of one of these kinds is a failed operation, not a crash.
OP_ERRORS = (
    modules.InconclusiveError,
    groups.CapExceeded,
    groups.BudgetExceeded,
    classify.ClassifyError,
    LookupError,
)


class BudgetHarness(verify.Harness):
    """The acceptance harness, refusing the catalogs outside the workload."""

    def catalog(self, q: int, r: int):
        if (q, r) in VERIFY_BIG_CATALOGS:
            raise LookupError(f"catalog sl2:{q}/F{r} is outside the verify workload")
        return super().catalog(q, r)


def conjugate(m, op):
    """The module in the basis f_j = scale_j * e_perm(j) (a monomial change)."""
    p = m.field.p
    perm = np.asarray(op["perm"], dtype=np.int64)
    s = np.asarray(op["scale"], dtype=np.int64)
    s_inv = np.asarray([pow(int(x), p - 2, p) for x in s], dtype=np.int64)
    images = [(s_inv[:, None] * g[np.ix_(perm, perm)] * s[None, :]) % p for g in m.gen_images]
    return modules.GModule(m.group, m.field, images, check=False)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, default=str).encode())
    return h.hexdigest()


# Each workload has a runner, which executes the pass inside the timed region
# and returns {label: result}, and a deriver, which turns the results into
# outputs and exact digests outside it.  run.py checks the outputs against
# reference.json; the digests must be identical between a traced and an
# untraced pass on the same inputs.


def run_verify(inputs, op_s, errors):
    h = BudgetHarness(seed=inputs["harness_seed"])
    results = {}
    for q, r, _cap in verify.CATALOG_SPECS:
        if (q, r) in VERIFY_BIG_CATALOGS:
            continue
        label = f"catalog sl2:{q}/F{r}"
        _timed(op_s, errors, results, label, lambda: h.catalog(q, r))
    checks = {name: fn for name, _suite, fn in verify.CHECKS}
    for name in VERIFY_CHECKS:
        _timed(op_s, errors, results, name, lambda: checks[name](h))
    return results


def outputs_verify(results):
    out, exact = {}, {}
    for label, res in results.items():
        if label.startswith("catalog"):
            out[label] = {"dims": res.nontrivial_dims(), "complete": res.complete}
            exact[label] = _sha([res.to_json()])
        else:
            expected, observed = res
            out[label] = "pass" if expected == observed else "fail"
            exact[label] = _sha([expected, observed])
    return out, exact


def run_meataxe(inputs, op_s, errors):
    results = {}
    for op in inputs["ops"]:

        def chop(op=op):
            g = groups.sl2_group(op["q"])
            p1 = modules.perm_module(g, "projective-points", op["r"])
            return modules.chop(modules.tensor(p1, p1), seed=op["chop_seed"])

        _timed(op_s, errors, results, op["label"], chop)
    return results


def outputs_meataxe(results):
    out, exact = {}, {}
    for label, factors in results.items():
        out[label] = sorted([f.dim, list(f.class_traces)] for f in factors)
        exact[label] = _sha([g.tobytes() for f in factors for g in f.gen_images])
    return out, exact


def run_orbits(inputs, op_s, errors):
    results = {}
    for op in inputs["ops"]:
        if op["op"] == "covering":

            def work(op=op):
                g = groups.sl2_group(op["q"])
                m = conjugate(modules.perm_module(g, "projective-points", op["r"]), op)
                return orbits.covering_classify(m, r=op["minus"], s=op["plus"])

        else:

            def work(op=op):
                return classify.semidirect_degrees(conjugate(modules.natural_restricted(op["q"]), op))

        _timed(op_s, errors, results, op["label"], work)
    return results


def outputs_orbits(results):
    out, exact = {}, {}
    for label, res in results.items():
        if isinstance(res, orbits.OrbitReport):
            summ = res.summary
            out[label] = {
                "orbit_count": summ["orbit_count"],
                "sizes": summ["sizes"],
                "equalities": summ["equalities"],
                "nonzero_counts": summ["nonzero_counts"],
            }
            exact[label] = _sha([[o.rep_key, o.size, o.stab_order, o.flags] for o in res.orbits])
        else:
            out[label] = [list(dk) for dk in res.multiplicities]
            exact[label] = _sha([out[label]])
    return out, exact


RUNNERS = {
    "verify": (run_verify, outputs_verify),
    "meataxe": (run_meataxe, outputs_meataxe),
    "orbits": (run_orbits, outputs_orbits),
}


def _timed(op_s, errors, results, label, fn):
    t0 = time.perf_counter()
    try:
        results[label] = fn()
    except OP_ERRORS as exc:
        errors[label] = f"{type(exc).__name__}: {exc}"
    op_s[label] = time.perf_counter() - t0


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    inputs = json.loads(sys.argv[1])
    print("ready", flush=True)
    if inputs.get("setup_only"):
        return
    run, derive = RUNNERS[inputs["workload"]]
    tracer = None
    if inputs["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    op_s: dict = {}
    errors: dict = {}
    cpu0 = _cpu()
    t0 = time.perf_counter()
    results = run(inputs, op_s, errors)
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb, "op_s": op_s, "errors": errors}
    if tracer is not None:
        tracer.active = False
        spans = tracer.spans
        selfs = tracing.self_times(spans)
        check_spans = {f"verify.{fn.__name__}": name for name, _s, fn in verify.CHECKS}
        summary = tracing.summarize(spans, selfs, check_spans)
        record["trace"] = {
            "accounting": tracing.check_accounting(spans, selfs, wall),
            "metrics": tracing.layer_metrics(spans, summary),
            "summary": summary,
        }
        if inputs["spans_path"]:
            with open(inputs["spans_path"], "w") as fh:
                json.dump(
                    {
                        "fields": ["name", "start_s", "end_s", "parent", "self_s"],
                        "spans": [[s[0], s[1] - t0, s[2] - t0, s[3], d] for s, d in zip(spans, selfs)],
                    },
                    fh,
                )
    record["outputs"], record["exact"] = derive(results)
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
