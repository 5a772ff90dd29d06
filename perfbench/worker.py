"""Workload process of the sweep benchmark; ``run.py`` starts it.

Modes:

``prepare --store DIR``
    Evaluate every warm-replay cell into that store and check the
    digests.
``run --workload W --seed N --seconds S --trace 0|1 --out FILE``
    Time whole passes over the workload's cells through the public
    ``EvalService``/``ResultStore`` API, serially (``jobs=1``), in
    process CPU time; write the measurements to ``FILE``.
``pin``
    Evaluate every cell any seed can draw and rewrite ``digests.json``
    (only after a change meant to move simulated results):
    ``PYTHONPATH=src python3 perfbench/worker.py pin``.

The environment (``PYTHONPATH``, the kernel cache, stripped ``REPRO_*``
knobs, single-threaded BLAS) is set by ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from cells import REPLAY, WARMUP, WORKLOADS, Cell, cell_id

import numpy as np

from repro import obs
from repro.core.metrics import ComparisonResult
from repro.runner import EvalService, ResultStore, comparison_to_dict
from repro.utils import native

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def record_digest(result: ComparisonResult) -> str:
    """SHA-256 of a cell's canonical record (sorted-key JSON)."""
    text = json.dumps(comparison_to_dict(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> Dict[str, str]:
    with open(DIGESTS) as handle:
        return json.load(handle)


def check_records(cells: List[Cell], results: List[Optional[ComparisonResult]],
                  pinned: Dict[str, str]) -> Dict[str, Optional[str]]:
    """Digest of each cell's record; ``None`` marks a failed cell (no
    result, or a record that does not match its pinned digest)."""
    out: Dict[str, Optional[str]] = {}
    for cell, result in zip(cells, results):
        digest = record_digest(result) if result is not None else None
        out[cell_id(cell)] = digest if digest == pinned.get(cell_id(cell)) \
            else None
    return out


def native_tier() -> Dict[str, Any]:
    """Load the kernels, counting a fallback on ``native.degraded``."""
    recorder = obs.Recorder()
    previous = obs.install(recorder)
    try:
        available = native.available()
    finally:
        obs.install(previous)
    return {"available": available,
            "degraded": recorder.counters.get("native.degraded", 0)}


def evaluate(cells: List[Cell], store_root: Path,
             cell_cpu: Optional[List[float]] = None
             ) -> List[Optional[ComparisonResult]]:
    """One batch through a fresh service on ``store_root``.

    ``cell_cpu`` receives each computed cell's CPU seconds, measured
    between the executor's per-cell progress callbacks (the cell's
    simulation plus its store put and journal line); replayed hits
    fire no callbacks.
    """
    mark = [time.process_time()]

    def progress(done: int, total: int, request: Any) -> None:
        now = time.process_time()
        if cell_cpu is not None:
            cell_cpu.append(now - mark[0])
        mark[0] = now

    service = EvalService(store=ResultStore(store_root), jobs=1,
                          progress=progress)
    requests = [service.request(npu, spec) for npu, spec in cells]
    results, _ = service.evaluate_tolerant(requests)
    return results


def run_pass(workload: str, cells: List[Cell], store_root: Path,
             pinned: Dict[str, str]) -> Dict[str, Any]:
    """Time one pass; the store is fresh unless the workload replays."""
    if workload != REPLAY:
        store_root.mkdir(parents=True)
    gc.collect()
    per_cell: List[float] = []
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        results = evaluate(cells, store_root, per_cell)
    except Exception:  # a broken pass counts all its cells failed
        traceback.print_exc()
        results = [None] * len(cells)
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    if workload != REPLAY:
        shutil.rmtree(store_root)
    digests = check_records(cells, results, pinned)
    return {"cells": len(cells), "cpu_s": cpu, "wall_s": wall,
            "cell_cpu_s": per_cell,
            "failed": sum(d is None for d in digests.values()),
            "digests": digests,
            "results": {cell_id(c): r for c, r in zip(cells, results)}}


def measure(workload: str, cells: List[Cell], rng: random.Random,
            seconds: float, scratch: Path, pinned: Dict[str, str]
            ) -> Dict[str, Any]:
    """Whole passes until ``seconds`` of wall time have gone (at least
    one), each over the seeded order of the full cell set."""
    passes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        store_root = scratch / (REPLAY if workload == REPLAY
                                else f"pass-{len(passes)}")
        if passes:      # only the last pass's results are kept
            passes[-1].pop("results")
        # The seed decides only the order; every pass covers every cell.
        passes.append(run_pass(workload, rng.sample(cells, len(cells)),
                               store_root, pinned))
    digests: Dict[str, Optional[str]] = {}
    for p in passes:
        for key, digest in p["digests"].items():
            digests[key] = digest if digests.get(key, digest) == digest else None
    cpu = sum(p["cpu_s"] for p in passes)
    count = sum(p["cells"] for p in passes)
    if workload == REPLAY:
        # A replay pass takes ~50 ms and a run makes about a hundred; a
        # neighbour's load on a shared host can double one pass, so the
        # run reports its best pass, as timeit does.  A cell's time is
        # that pass's CPU over its cell count.  The compute workloads'
        # passes take seconds and report the mean over passes.
        best = min(p["cpu_s"] for p in passes)
        rate, cell_ms = len(cells) / best, 1e3 * best / len(cells)
    else:
        rate = count / cpu
        cell_ms = 1e3 * statistics.median(t for p in passes
                                          for t in p["cell_cpu_s"])
    return {
        "passes": len(passes), "attempted": count,
        "failed": sum(p["failed"] for p in passes),
        "cpu_s": cpu, "wall_s": sum(p["wall_s"] for p in passes),
        "cells_per_cpu_s": rate,
        "cell_cpu_ms.p50": cell_ms,
        "digests": digests,
        "results": passes[-1]["results"],
    }


def summarize(m: Dict[str, Any]) -> Dict[str, Any]:
    m["cpu_share"] = m["cpu_s"] / m["wall_s"]
    m.pop("results")
    return m


def claims(results: Dict[str, ComparisonResult]) -> List[Dict[str, Any]]:
    """Reproduced values of the claims pinned as bands by
    ``tests/integration/test_paper_claims.py``, from paper-grid records."""
    mob = results.get("server:mobilenet")
    dlrm = results.get("edge:dlrm")
    if mob is None or dlrm is None:
        return []
    return [
        {"claim": "mobilenet server SGX-64b traffic overhead %",
         "value": mob.traffic_overhead_pct("sgx-64b"), "band": "20..45"},
        {"claim": "mobilenet server MGX-64b traffic overhead %",
         "value": mob.traffic_overhead_pct("mgx-64b"), "band": "10..20"},
        {"claim": "mobilenet server SeDA traffic overhead %",
         "value": mob.traffic_overhead_pct("seda"), "band": "<0.5"},
        {"claim": "dlrm edge SeDA traffic overhead %",
         "value": dlrm.traffic_overhead_pct("seda"), "band": "<0.5"},
        {"claim": "mobilenet server SeDA slowdown %",
         "value": mob.slowdown_pct("seda"), "band": "<1"},
        {"claim": "mobilenet server MGX-64b minus SeDA slowdown, points",
         "value": mob.slowdown_pct("mgx-64b") - mob.slowdown_pct("seda"),
         "band": ">12"},
    ]


def run(args: argparse.Namespace) -> Dict[str, Any]:
    tier = native_tier()
    cells = WORKLOADS[args.workload]
    if args.cells:
        cells = cells[:args.cells]
    pinned = load_digests()
    scratch = Path(tempfile.mkdtemp(prefix="worker-"))
    if args.workload == REPLAY:
        shutil.copytree(args.store, scratch / REPLAY)
    rng = random.Random(args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    out: Dict[str, Any] = {"tier": tier, "numpy": np.__version__}
    if args.workload == REPLAY:
        evaluate(cells, scratch / REPLAY)
    else:
        evaluate([WARMUP[args.workload]], scratch / "warm-up")
    untraced = measure(args.workload, cells, rng, budget, scratch, pinned)
    if args.workload == "paper-grid" and not args.cells:
        out["claims"] = claims(untraced["results"])
    out["untraced"] = summarize(untraced)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        import tracer
        spans = tracer.Tracer()
        with spans:
            traced = summarize(measure(args.workload, cells, rng, budget,
                                       scratch, pinned))
        layers = spans.metrics(traced["attempted"])
        layers["trace.coverage_pct"] = \
            100.0 * layers.pop("trace.covered_cpu_s") / traced["cpu_s"]
        layers["trace.overhead_pct"] = 100.0 * (
            out["untraced"]["cells_per_cpu_s"] / traced["cells_per_cpu_s"] - 1)
        layers["host.cpu_share"] = traced["cpu_share"]
        if traced["digests"] != out["untraced"]["digests"]:
            traced["failed"] = max(traced["failed"], 1)
        out["traced"] = traced
        out["layers"] = layers
        spans.write_chrome_trace(args.trace_out)
    shutil.rmtree(scratch)
    return out


def prepare(args: argparse.Namespace) -> Dict[str, Any]:
    cells = WORKLOADS[REPLAY][:args.cells] if args.cells \
        else WORKLOADS[REPLAY]
    if not native_tier()["available"]:
        return {"failed": len(cells)}
    results = evaluate(cells, Path(args.store))
    digests = check_records(cells, results, load_digests())
    return {"failed": sum(d is None for d in digests.values())}


def pin(args: argparse.Namespace) -> Dict[str, Any]:
    cells = WORKLOADS[REPLAY]
    results = evaluate(cells, Path(tempfile.mkdtemp(prefix="pin-")))
    digests = {cell_id(c): record_digest(r) for c, r in zip(cells, results)
               if r is not None}
    if len(digests) != len(cells):
        raise SystemExit("some cells failed; digests not written")
    with open(DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return {"pinned": len(digests)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "run", "pin"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cells", type=int, default=0,
                        help="only the first N cells (self-test)")
    parser.add_argument("--store", help="prepared warm-replay store")
    parser.add_argument("--trace-out", help="Chrome trace of the traced run")
    parser.add_argument("--out", help="where to write the result JSON")
    args = parser.parse_args()
    result = {"prepare": prepare, "run": run, "pin": pin}[args.mode](args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle)


if __name__ == "__main__":
    main()
