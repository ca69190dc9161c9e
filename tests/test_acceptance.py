"""Acceptance gate: every verified claim runs once, one line per check.

Run with `pytest -v tests/test_acceptance.py` or through the CLI as
`chardeg verify --suite all`.  All comparisons are exact.
"""

import hashlib
import json

import pytest

from chardeg.verify import CHECKS, run_checks

#: sha256 of the JSON of every check's result at seed 42, in check order;
#: it holds no timings, so any change of a deterministic output byte shows
RESULTS_SHA256_SEED_42 = "9501d7ec82613fa0313f2d70e4415344cdc8668746ef0abc236dc4544209e6c4"

_RESULTS = {}


@pytest.fixture(scope="module")
def results(harness):
    if not _RESULTS:
        for r in run_checks("all", harness=harness):
            _RESULTS[r.name] = r
    return _RESULTS


@pytest.mark.parametrize("name", [name for name, _suite, _fn in CHECKS])
def test_acceptance(results, name):
    r = results[name]
    print(f"[{r.status.upper()}] {r.suite}/{r.name} ({r.elapsed:.1f}s)")
    assert r.status == "pass", f"{name}: expected {r.expected!r}, observed {r.observed!r}"


def test_every_check_ran_once(results):
    assert sorted(results) == sorted(name for name, _s, _f in CHECKS)


def test_results_bytes_are_pinned(results):
    payload = json.dumps([results[name].to_json() for name, _s, _f in CHECKS], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == RESULTS_SHA256_SEED_42
