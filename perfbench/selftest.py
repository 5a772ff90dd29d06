"""Tiny-size self-test of the sweep benchmark.

Run from the repository root (about two minutes)::

    python3 perfbench/selftest.py

It checks that

- every workload runs one short measurement over its first two cells,
  untraced and traced, with zero failed cells;
- each run emits exactly the metrics ``BENCHMARK.json`` names, with
  their units;
- a perturbed record trips the digest gate;
- the per-layer wrappers are gone after a traced run.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"


def check_runs() -> None:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--cells", "2"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 2, result
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in spec[kind]}, units
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()), result
            print(f"ok  {workload} trace={trace}: {result['attempted']} cells")


def check_in_process() -> None:
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer
    import worker
    from cells import WORKLOADS, cell_id

    cells = WORKLOADS["paper-grid"][:2]
    pinned = worker.load_digests()
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        results = worker.evaluate(cells, Path(tmp) / "plain")
        assert all(worker.check_records(cells, results, pinned).values())

        perturbed = copy.deepcopy(results[0])
        perturbed.baseline.layers[0].dram_cycles += 1.0
        gate = worker.check_records(cells[:1], [perturbed], pinned)
        assert gate == {cell_id(cells[0]): None}, gate
        print("ok  a perturbed record fails the digest gate")

        spans = tracer.Tracer()
        originals = [(owner, attr, vars(owner)[attr])
                     for owner, attr, *_ in spans.patch_table()]
        with spans:
            assert all(vars(owner)[attr] is not original
                       for owner, attr, original in originals)
            traced = worker.evaluate(cells, Path(tmp) / "traced")
        assert all(vars(owner)[attr] is original
                   for owner, attr, original in originals)
        assert worker.check_records(cells, traced, pinned) == \
            worker.check_records(cells, results, pinned)
        assert spans.spans and spans.counts["native.calls"] > 0
        print("ok  the layer wrappers are removed after a traced run")


def main() -> None:
    check_in_process()
    check_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()
