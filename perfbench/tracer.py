"""Outside-in span tracer for the chardeg layers.

The tracer wraps the public functions of each layer module at its import
boundary: every module-level name bound to the original function, in every
chardeg module that imported it, is rebound to the wrapper, so no call
bypasses its span.  Spans (name, start, end, parent) are kept in memory and
turned into self times and per-layer metrics when the pass ends.  Nothing in
chardeg itself is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("groups", "modules", "linalg", "kernels", "orbits", "classify", "graphs", "verify")

# Private functions that are layer boundaries in their own right.
EXTRA = {"modules": ("_meataxe_step",), "orbits": ("_decompose",)}

# Span names that differ from "<layer>.<function>".
RENAME = {"modules._meataxe_step": "modules.meataxe_step", "orbits._decompose": "orbits.decompose"}

# Methods that do layer work: (layer, class, attribute).  Cached properties
# are wrapped on their underlying function so the cache still works.
METHODS = (
    ("groups", "GroupTable", "conjugacy_classes"),
    ("verify", "Harness", "group"),
    ("verify", "Harness", "catalog"),
)

SPIN = "modules.spin"
HOM = "modules.hom_space_dim"
RREF = "kernels.rref_prime"
SWEEP = "kernels.orbit_sweep"
CATALOG = "modules.irreducible_catalog"
SL2 = "groups.sl2_group"
HARNESS_SPANS = ("verify.Harness.catalog", "verify.Harness.group")


def _attrs(name, args, result):
    """Call-shape attributes recorded for the spans that need them."""
    if name == RREF:
        rows, cols = args[0].shape
        return (int(rows), int(cols), int(args[1]))
    if name == SWEEP:
        return (int(args[1]), int(args[2]))
    if name == SPIN:
        return (int(result.shape[0]) < int(args[3]),)
    if name == HOM:
        return (int(result) > 0,)
    if name == CATALOG:
        return (bool(result.complete),)
    if name == SL2:
        return (int(result.order),)
    return None


class Tracer:
    """Records one span per wrapped call while active."""

    def __init__(self):
        self.active = False
        # span: [name, start, end, parent index, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = _attrs(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer boundary of the chardeg modules in this process."""
        mods = {layer: importlib.import_module(f"chardeg.{layer}") for layer in LAYERS}
        every = [m for n, m in sys.modules.items() if n.split(".")[0] == "chardeg"]
        for layer, mod in mods.items():
            fns = [
                (attr, val)
                for attr, val in vars(mod).items()
                if inspect.isfunction(val)
                and val.__module__ == mod.__name__
                and (not attr.startswith("_") or attr in EXTRA.get(layer, ()))
            ]
            for attr, orig in fns:
                name = RENAME.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapped = self.wrap(name, orig)
                # rebind in every module that imported the function by name
                for other in every:
                    for k, v in list(vars(other).items()):
                        if v is orig:
                            setattr(other, k, wrapped)
        for layer, cls_name, attr in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(orig, functools.cached_property):
                prop = functools.cached_property(self.wrap(name, orig.func))
                prop.__set_name__(cls, attr)
                setattr(cls, attr, prop)
            else:
                setattr(cls, attr, self.wrap(name, orig))
        # the harness's check table holds function objects, not names
        verify = mods["verify"]
        verify.CHECKS = tuple((n, s, getattr(verify, fn.__name__)) for n, s, fn in verify.CHECKS)


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def check_accounting(spans, selfs, wall: float) -> dict:
    """Self times plus the untraced remainder must sum to the pass wall time."""
    roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
    remainder = wall - roots
    total = sum(selfs) + remainder
    tol = 1e-6 * max(wall, 1.0)
    ok = abs(total - wall) <= tol and remainder >= -tol and min(selfs, default=0.0) >= -tol
    return {"ok": ok, "wall_s": wall, "self_sum_s": sum(selfs), "remainder_s": remainder}


def _chain(spans, i) -> str:
    names = []
    while i >= 0:
        names.append(spans[i][0])
        i = spans[i][3]
    return " > ".join(reversed(names))


def summarize(spans, selfs, check_names) -> dict:
    """Per-name calls/total/self, parent chains, call shapes, per-check self.

    check_names maps a check's span name to the check's name; a check's
    self time is its duration net of the harness cache builds it triggered.
    """
    by_name: dict = defaultdict(lambda: [0, 0.0, 0.0])
    chains: dict = defaultdict(lambda: [0, 0.0])
    shapes = {RREF: defaultdict(lambda: [0, 0.0]), SWEEP: defaultdict(lambda: [0, 0.0])}
    checks: dict = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        agg = by_name[s[0]]
        agg[0] += 1
        agg[2] += selfs[i]
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:  # total time counts the outermost span of a name only
            agg[1] += dur
        c = chains[_chain(spans, i)]
        c[0] += 1
        c[1] += selfs[i]
        if s[0] == RREF:
            key = f"{s[4][0]}x{s[4][1]} F{s[4][2]}"
        elif s[0] == SWEEP:
            key = f"F{s[4][0]}^{s[4][1]} ({s[4][0] ** s[4][1]} vectors)"
        else:
            key = None
        if key is not None:
            shapes[s[0]][key][0] += 1
            shapes[s[0]][key][1] += selfs[i]
        if s[0] in check_names:
            checks[check_names[s[0]]] += dur
        elif s[0] in HARNESS_SPANS:
            p = s[3]
            while p >= 0 and spans[p][0] not in check_names and spans[p][0] not in HARNESS_SPANS:
                p = spans[p][3]
            if p >= 0 and spans[p][0] in check_names:
                checks[check_names[spans[p][0]]] -= dur

    def top(d, n):
        rows = sorted(d.items(), key=lambda kv: -kv[1][-1])[:n]
        return [{"key": k, "calls": v[0], "self_s": v[-1]} for k, v in rows]

    return {
        "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(by_name.items())},
        "chains": top(chains, 40),
        "rref_shapes": top(shapes[RREF], 10),
        "sweep_shapes": top(shapes[SWEEP], 10),
        "checks_net_self_s": dict(checks),
    }


def layer_metrics(spans, summary) -> dict:
    """The per-layer metrics of one traced pass, by their BENCHMARK.json names."""
    agg = summary["spans"]

    def get(name, field):
        return agg.get(name, {}).get(field, 0.0)

    def frac(name, pos):
        flags = [s[4][pos] for s in spans if s[0] == name]
        return sum(flags) / len(flags) if flags else 0.0

    def self_where(pred):
        return sum(v["self_s"] for k, v in agg.items() if pred(k))

    rref_cells = sum(s[4][0] * s[4][1] for s in spans if s[0] == RREF)
    sweep_vectors = sum(s[4][0] ** s[4][1] for s in spans if s[0] == SWEEP)
    sweep_self = get(SWEEP, "self_s")
    group_own = (SL2, "groups.GroupTable.conjugacy_classes")
    return {
        "groups.sl2_group.self_s": get(SL2, "self_s"),
        "groups.sl2_group.elements": sum(s[4][0] for s in spans if s[0] == SL2),
        "groups.conjugacy_classes.self_s": get("groups.GroupTable.conjugacy_classes", "self_s"),
        "groups.queries.self_s": self_where(lambda k: k.startswith("groups.") and k not in group_own),
        "modules.chop.calls": get("modules.chop", "calls"),
        "modules.meataxe_step.calls": get("modules.meataxe_step", "calls"),
        "modules.meataxe_step.self_s": get("modules.meataxe_step", "self_s"),
        "modules.spin.calls": get(SPIN, "calls"),
        "modules.spin.self_s": get(SPIN, "self_s"),
        "modules.spin.proper_frac": frac(SPIN, 0),
        "modules.split_module.self_s": get("modules.split_module", "self_s"),
        "modules.hom_space_dim.calls": get(HOM, "calls"),
        "modules.hom_space_dim.total_s": get(HOM, "total_s"),
        "modules.hom_space_dim.nonzero_frac": frac(HOM, 0),
        "modules.irreducible_catalog.total_s": get(CATALOG, "total_s"),
        "modules.catalog.complete_frac": frac(CATALOG, 0),
        "linalg.nullspace.calls": get("linalg.nullspace", "calls"),
        "linalg.nullspace.self_s": get("linalg.nullspace", "self_s"),
        "linalg.mat_inv.self_s": get("linalg.mat_inv", "self_s"),
        "kernels.rref_prime.calls": get(RREF, "calls"),
        "kernels.rref_prime.self_s": get(RREF, "self_s"),
        "kernels.rref_prime.cells": rref_cells,
        "kernels.orbit_sweep.self_s": sweep_self,
        "kernels.orbit_sweep.vectors": sweep_vectors,
        "kernels.orbit_sweep.vectors_per_s": sweep_vectors / sweep_self if sweep_self else 0.0,
        "orbits.stabilizer.calls": get("orbits.stabilizer", "calls"),
        "orbits.stabilizer.self_s": get("orbits.stabilizer", "self_s"),
        "orbits.decompose.total_s": get("orbits.decompose", "total_s"),
        "classify.semidirect_degrees.total_s": get("classify.semidirect_degrees", "total_s"),
        "classify.scans.self_s": get("classify.inequality_ledger", "self_s")
        + get("classify.three_vertices_classify", "self_s"),
        "graphs.self_s": self_where(lambda k: k.startswith("graphs.")),
        "verify.harness.catalog.total_s": get("verify.Harness.catalog", "total_s"),
        "verify.harness.group.total_s": get("verify.Harness.group", "total_s"),
        "verify.checks.self_s": sum(summary["checks_net_self_s"].values()),
    }
