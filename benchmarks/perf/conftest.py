"""Perf-suite plumbing: collect measured medians and persist them.

Each perf case registers its median wall time under a stable key; at
session end the collected numbers are merged as the ``after`` section
into ``benchmarks/results/BENCH_streams.local.json``, an untracked
sibling of the committed ``BENCH_streams.json`` baseline (which a test
run never rewrites; a fresh local file starts from its ``before`` and
``after`` sections).  Under ``--benchmark-disable`` the cases still run
(CI correctness coverage) but no stats exist, so nothing is written.
"""

import json
import os

import pytest

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")
_BASELINE_PATH = os.path.join(_RESULTS_DIR, "BENCH_streams.json")
_LOCAL_PATH = os.path.join(_RESULTS_DIR, "BENCH_streams.local.json")

_collected = {}


def record(name, benchmark):
    """Stash a benchmark's median seconds if stats were collected."""
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return
    _collected[name] = stats.stats.median


@pytest.fixture
def perf_record():
    return record


def pytest_sessionfinish(session, exitstatus):
    del session, exitstatus
    if not _collected:
        return
    path = os.path.abspath(_LOCAL_PATH)
    payload = {}
    for source in (path, os.path.abspath(_BASELINE_PATH)):
        if os.path.exists(source):
            with open(source) as handle:
                payload = json.load(handle)
            break
    payload.setdefault("after", {}).update(
        {k: round(v, 6) for k, v in _collected.items()})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
