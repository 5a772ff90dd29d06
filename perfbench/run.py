"""CPU-timed sweep benchmark of the SeDA reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

Workloads (cell sets in ``cells.py``): ``paper-grid``, ``long-context``,
``batch-scaling`` and ``warm-replay``.  Each run

1. prepares, untimed: for warm-replay, evaluates the replayed cells into
   a store kept under ``.bench_build/perfbench``, keyed by a hash of the
   sources;
2. measures set-up: the median CPU time of several fresh interpreters
   that import ``repro``, load the kernels and compute ``code_version()``,
   after one untimed launch that builds the kernels into
   ``.bench_build/perfbench/kernels``;
3. starts ``worker.py`` in a fresh process, whose passes over the cells
   run serially through ``EvalService``/``ResultStore`` into a fresh
   temporary store; every cell is timed in process CPU time and its
   record checked against ``digests.json``;
4. with ``--trace 1``, splits the time between an untraced and a traced
   measurement (layer wrappers in ``tracer.py``) and reports per-layer
   metrics instead of end-to-end ones.

The last stdout line is the result JSON (``correct``, ``attempted``,
``failed``, ``metrics``); the lines before it carry the run metadata,
diagnostics and the reproduced paper claims.  Everything a run writes
stays under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, NoReturn

from cells import REPLAY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

#: Timed fresh-interpreter launches per run (after one untimed warm-up
#: that also writes the bytecode caches).
SETUP_LAUNCHES = 7

#: Knobs that would inject faults, turn on the program's own tracing,
#: change the kernel tier or its build; runs never inherit them.
STRIPPED_ENV = ("REPRO_FAULTS", "REPRO_TRACE", "REPRO_NO_NATIVE_KERNEL",
                "REPRO_NATIVE_CFLAGS", "REPRO_TRACE_SPILL_DIR",
                "PYTHONPYCACHEPREFIX")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "BLIS_NUM_THREADS")

PREPARE_TIMEOUT = 150
SETUP_TIMEOUT = 30
WORKER_TIMEOUT = 120


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def environment(tmp: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env.update({name: "1" for name in THREAD_ENV})
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_KERNEL_CACHE": str(WORK / "kernels"),
        "REPRO_CACHE_DIR": str(tmp / "default-store"),
        "TMPDIR": str(tmp),
    })
    return env


def source_hash() -> str:
    """Hash of everything a prepared warm-replay store depends on."""
    digest = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    files += [p for p in HERE.iterdir() if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def worker(mode: str, env: Dict[str, str], tmp: Path, timeout: float,
           *extra: str) -> Dict[str, Any]:
    out = tmp / f"{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--out", str(out),
           *extra]
    try:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=timeout,
                       stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"worker {mode} exceeded {timeout:.0f} s", 1)
    except subprocess.CalledProcessError as error:
        fail(f"worker {mode} exited with {error.returncode}", 1)
    with open(out) as handle:
        return json.load(handle)


def prepare_store(args: argparse.Namespace, env: Dict[str, str],
                  tmp: Path) -> Path:
    """Untimed, once per source tree: the store each warm-replay run
    copies and replays."""
    store = WORK / f"warm-{source_hash()}-{args.cells}"
    if not store.is_dir():
        build = tmp / "warm-build"
        info = worker("prepare", env, tmp, PREPARE_TIMEOUT,
                      "--cells", str(args.cells), "--store", str(build))
        if info["failed"]:
            fail(f"preparing the warm-replay store failed ({info['failed']} "
                 "cells)", 1)
        try:
            os.replace(build, store)
        except OSError:     # another run published it first
            pass
    return store


def setup_launch(env: Dict[str, str],
                 timeout: float = SETUP_TIMEOUT) -> Dict[str, float]:
    """One fresh interpreter; its whole CPU (user plus system) comes
    from the OS, as the growth of this process's reaped-children usage."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("set-up launch timed out", 1)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        fail(f"set-up launch exited with {proc.returncode}", 1)
    steps = json.loads(proc.stdout)
    if not steps.pop("native"):
        fail("set-up launch fell back to the numpy tier", 1)
    steps["setup_s"] = (after.ru_utime - before.ru_utime
                        + after.ru_stime - before.ru_stime)
    return steps


def measure_setup(env: Dict[str, str]) -> Dict[str, float]:
    # Untimed: builds the kernels on a checkout's first run and writes
    # the bytecode caches, so neither is counted as set-up.
    setup_launch(env, PREPARE_TIMEOUT)
    launches = [setup_launch(env) for _ in range(SETUP_LAUNCHES)]
    return {key: statistics.median(l[key] for l in launches)
            for key in launches[0]}


def git_sha() -> Any:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metric_specs(trace: int) -> List[Dict[str, Any]]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def benchmark(args: argparse.Namespace, tmp: Path) -> Dict[str, Any]:
    env = environment(tmp)
    store = prepare_store(args, env, tmp) if args.workload == REPLAY \
        else None
    setup = measure_setup(env)
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--cells", str(args.cells),
             "--trace-out", str(WORK / f"trace-{args.workload}.json")]
    if store is not None:
        extra += ["--store", str(store)]
    measured = worker("run", env, tmp, WORKER_TIMEOUT, *extra)
    tier = measured["tier"]
    untraced = measured["untraced"]
    traced = measured.get("traced")

    if args.trace:
        values = dict(measured["layers"])
        values.update({k: v for k, v in setup.items() if k != "setup_s"})
    else:
        values = {"setup_s": setup["setup_s"],
                  "cells_per_cpu_s": untraced["cells_per_cpu_s"],
                  "cell_cpu_ms.p50": untraced["cell_cpu_ms.p50"],
                  "peak_rss_mb": measured["peak_rss_mb"]}
    specs = metric_specs(args.trace)
    missing = {s["name"] for s in specs} ^ set(values)
    if missing:
        fail(f"metric set differs from BENCHMARK.json: {sorted(missing)}", 1)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}

    attempted = untraced["attempted"] + (traced["attempted"] if traced else 0)
    failed = untraced["failed"] + (traced["failed"] if traced else 0)
    if not tier["available"] or tier["degraded"]:
        fail("the workload process fell back to the numpy tier; "
             "not a valid timing", 1)

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "source_hash": source_hash(),
        "host": {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "numpy": measured["numpy"],
                 "kernel_tier": "native",
                 "native_available": tier["available"],
                 "native_degraded": tier["degraded"]},
        "passes": untraced["passes"], "cells": untraced["attempted"],
        "cpu_s": untraced["cpu_s"], "wall_s": untraced["wall_s"],
        "host.cpu_share": untraced["cpu_share"],
        "cells_per_wall_s": untraced["attempted"] / untraced["wall_s"],
    }
    return {"meta": meta, "claims": measured.get("claims", []),
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def report(outcome: Dict[str, Any]) -> None:
    meta = outcome["meta"]
    print("meta " + json.dumps(meta, sort_keys=True))
    if outcome["claims"]:
        print("paper claims, reproduced from paper-grid records "
              "(informational, not gated; the simulator is otherwise "
              "unvalidated against measured hardware):")
        for claim in outcome["claims"]:
            print(f"  {claim['claim']}: {claim['value']:.3f} "
                  f"(paper band {claim['band']})")
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "ledger.jsonl", "a") as ledger:
        ledger.write(json.dumps({**meta, **outcome["result"]},
                                sort_keys=True) + "\n")
    print(json.dumps(outcome["result"]))


def main() -> None:
    parser = argparse.ArgumentParser(
        description="CPU-timed sweep benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cells", type=int, default=0,
                        help="only the first N cells of the workload "
                             "(self-test; 0 = all)")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no src/repro under {ROOT}: nothing to benchmark")
    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        outcome = benchmark(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report(outcome)


if __name__ == "__main__":
    main()
