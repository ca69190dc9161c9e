#!/usr/bin/env python3
"""Record the reference outputs that run.py checks every pass against.

    python3 perfbench/make_reference.py

Runs one untraced pass of each workload and writes its outputs to
perfbench/reference.json.  The outputs are invariant under the seeded
inputs (see workloads.py), so the references hold for every seed; rerun
this only when a workload's definition changes, and review the diff.
"""

from __future__ import annotations

import json
import sys

from run import HERE, run_worker
from workloads import WORKLOADS, pass_inputs


def main() -> int:
    reference = {}
    for w in WORKLOADS:
        rec = run_worker(pass_inputs(w, 0, 0) | {"trace": False})
        if "crashed" in rec or rec["errors"]:
            print(f"{w}: {rec.get('crashed') or rec['errors']}", file=sys.stderr)
            return 1
        reference[w] = rec["outputs"]
    # one line per operation, so a diff shows which operation's output changed
    blocks = []
    for w, outputs in sorted(reference.items()):
        rows = [f"  {json.dumps(label)}: {json.dumps(out, sort_keys=True)}" for label, out in sorted(outputs.items())]
        blocks.append(f" {json.dumps(w)}: {{\n" + ",\n".join(rows) + "\n }")
    (HERE / "reference.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
