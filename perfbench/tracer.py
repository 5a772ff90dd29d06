"""Outside-in layer trace: CPU-timed spans around each layer's public calls.

:class:`Tracer` swaps each entry of :meth:`Tracer.patch_table` for a wrapper
that records one span per call — name, CPU start and end, parent span
and cell id — into memory, and puts every original back when the
``with`` block ends.  Nothing inside the program records anything: its
global ``repro.obs`` recorder stays off, and the wrappers sit at the
attributes callers resolve (module globals for functions imported by
name, the class for methods).  :meth:`Tracer.metrics` folds the spans
into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.analytic.derive as derive_mod
import repro.runner.executor as executor_mod
import repro.runner.service as service_mod
from repro import obs
from repro.accel.simulator import AcceleratorSim
from repro.core.pipeline import Pipeline
from repro.dram.simulator import DramSim
from repro.obs import export
from repro.protection.base import ProtectionScheme
from repro.runner.journal import SweepJournal
from repro.runner.service import EvalService
from repro.runner.store import ResultStore
from repro.utils import native

CountFn = Callable[[Tuple[Any, ...], Any], Dict[str, int]]
CellFn = Callable[[Tuple[Any, ...]], Optional[str]]

#: Layer spans: the outermost of these inside a pass is "covered" CPU.
LAYERS = ("models", "accel", "pipeline", "analytic", "runner.fingerprint",
          "runner.store.get", "runner.records.decode", "runner.store.flush",
          "runner.store.put", "runner.records.encode",
          "runner.journal.append")

SCHEMES = ("baseline", "sgx-64b", "mgx-64b", "sgx-512b", "mgx-512b", "seda")


def _accel_counts(args: Tuple[Any, ...], run: Any) -> Dict[str, int]:
    return {"accel.ranges": sum(len(layer.trace) for layer in run.layers)}


def _protect_counts(args: Tuple[Any, ...], rows: Any) -> Dict[str, int]:
    return {"protection.blocks": sum(len(p.data_stream) + len(p.metadata_stream)
                                     for p in rows),
            "protection.metadata_bytes": sum(p.metadata_bytes for p in rows)}


def _dram_counts(args: Tuple[Any, ...], results: Any) -> Dict[str, int]:
    return {"dram.requests": sum(len(part) for parts in args[1]
                                 for part in parts)}


def _derive_counts(args: Tuple[Any, ...], derived: Any) -> Dict[str, int]:
    return {"analytic.calls": 1, "analytic.derived": int(derived is not None)}


def _get_counts(args: Tuple[Any, ...], record: Any) -> Dict[str, int]:
    return {"runner.store.gets": 1, "runner.store.hits": int(record is not None)}


def _one(name: str) -> CountFn:
    return lambda args, result: {name: 1}


class Tracer:
    """In-memory span recorder installed around one traced measurement."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent index or -1, cell id)``; CPU seconds.
        self.spans: List[Tuple[str, float, float, int, Optional[str]]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._cell: Optional[str] = None
        self._key_cells: Dict[str, str] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- cell attribution --

    def _fingerprint_cell(self, args: Tuple[Any, ...]) -> str:
        return f"{args[0].name}:{args[1]}"

    def _payload_cell(self, args: Tuple[Any, ...]) -> str:
        payload = args[0]
        self._cell = f"{payload['npu']['name']}:{payload['workload']}"
        return self._cell

    def _key_cell(self, args: Tuple[Any, ...]) -> Optional[str]:
        return self._key_cells.get(args[1], self._cell)

    @staticmethod
    def _record_cell(args: Tuple[Any, ...]) -> str:
        return f"{args[0]['npu_name']}:{args[0]['workload']}"

    # -- wrapping --

    def patch_table(self) -> List[Tuple[Any, str, str, Optional[CountFn],
                                        Optional[CellFn]]]:
        """``(owner, attribute, span name, counter, cell resolver)``."""
        key_cell, fp_cell = self._key_cell, self._fingerprint_cell
        table = [
            (executor_mod, "run_cell", "cell", None, self._payload_cell),
            (EvalService, "evaluate_tolerant", "runner.service", None, None),
            (executor_mod, "get_workload", "models", None, None),
            (derive_mod, "get_workload", "models", None, None),
            (AcceleratorSim, "run", "accel", _accel_counts, None),
            (Pipeline, "run", "pipeline", None, None),
            (ProtectionScheme, "protect_model", "protection", _protect_counts,
             None),
            (DramSim, "simulate_fast_batch_parts", "dram", _dram_counts, None),
            (executor_mod, "derive_cell", "analytic", _derive_counts, None),
            (derive_mod, "compare_schemes", "analytic.probe",
             _one("analytic.probe_cells"), None),
            (service_mod, "fingerprint", "runner.fingerprint", None, fp_cell),
            (executor_mod, "fingerprint", "runner.fingerprint", None, fp_cell),
            (ResultStore, "get", "runner.store.get", _get_counts, key_cell),
            (service_mod, "comparison_from_dict", "runner.records.decode",
             None, self._record_cell),
            (ResultStore, "flush_stats", "runner.store.flush", None, None),
            (ResultStore, "put", "runner.store.put", None, key_cell),
            (executor_mod, "comparison_to_dict", "runner.records.encode",
             None, None),
            (SweepJournal, "record_done", "runner.journal.append", None,
             key_cell),
        ]
        # The kernel entry points, where dram/ and protection/ resolve them.
        table += [(native, name, "native", _one("native.calls"), None)
                  for name in sorted(native.FALLBACKS)]
        return table

    def _wrap(self, original: Callable[..., Any], name: str,
              count: Optional[CountFn], cell_of: Optional[CellFn]
              ) -> Callable[..., Any]:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.process_time
        fingerprinting = name == "runner.fingerprint"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell = cell_of(args) if cell_of is not None else self._cell
            parent = stack[-1] if stack else -1
            index = len(spans)
            span_name = name
            if name == "protection":
                span_name = f"protection.{args[0].name}"
            spans.append((span_name, 0.0, 0.0, parent, cell))
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, cell)
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] += value
            if fingerprinting and cell is not None:
                self._key_cells[result] = cell
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name, count, cell_of in self.patch_table():
            if attr not in vars(owner):
                raise AttributeError(f"{owner!r} has no attribute {attr!r} "
                                     "of its own to trace")
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count, cell_of))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction --

    def metrics(self, cells: int) -> Dict[str, float]:
        """Per-layer metrics; times and counts are means per cell."""
        spans = self.spans
        total: Dict[str, float] = defaultdict(float)
        child: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: Dict[str, float] = defaultdict(float)
        covered = 0.0
        for index, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            layer = "protection" if name.startswith("protection.") else name
            total[name] += duration
            if layer != name:
                total[layer] += duration
            self_time[layer] += duration - child[index]
            if layer in LAYERS and not self._has_layer_ancestor(parent):
                covered += duration
        per_cell = 1.0 / max(cells, 1)
        counts = self.counts

        def ms(value: float) -> float:
            return value * 1e3 * per_cell

        def us(value: float) -> float:
            return value * 1e6 * per_cell

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "models.cpu_ms": ms(total["models"]),
            "accel.cpu_ms": ms(total["accel"]),
            "accel.ranges": counts["accel.ranges"] * per_cell,
            "protection.cpu_ms": ms(total["protection"]),
            "protection.blocks": counts["protection.blocks"] * per_cell,
            "protection.metadata_bytes":
                counts["protection.metadata_bytes"] * per_cell,
            "protection.ns_per_block": ratio(total["protection"] * 1e9,
                                             counts["protection.blocks"]),
            "dram.cpu_ms": ms(total["dram"]),
            "dram.requests": counts["dram.requests"] * per_cell,
            "dram.ns_per_request": ratio(total["dram"] * 1e9,
                                         counts["dram.requests"]),
            "pipeline.self_cpu_ms": ms(self_time["pipeline"]),
            "native.calls": counts["native.calls"] * per_cell,
            "native.cpu_ms": ms(total["native"]),
            "analytic.cpu_ms": ms(total["analytic"]),
            "analytic.self_cpu_ms": ms(self_time["analytic"]),
            "analytic.probe_cells": counts["analytic.probe_cells"] * per_cell,
            "analytic.derived_ratio": ratio(counts["analytic.derived"],
                                            counts["analytic.calls"]),
            "runner.fingerprint_us": us(total["runner.fingerprint"]),
            "runner.store.get_us": us(total["runner.store.get"]),
            "runner.records.decode_us": us(total["runner.records.decode"]),
            "runner.store.flush_ms": ms(total["runner.store.flush"]),
            "runner.store.hit_ratio": ratio(counts["runner.store.hits"],
                                            counts["runner.store.gets"]),
            "runner.service.self_ms": ms(self_time["runner.service"]),
            "runner.store.put_us": us(total["runner.store.put"]),
            "runner.records.encode_us": us(total["runner.records.encode"]),
            "runner.journal.append_us": us(total["runner.journal.append"]),
            "trace.covered_cpu_s": covered,
        }
        for scheme in SCHEMES:
            out[f"protection.{scheme}.cpu_ms"] = ms(total[f"protection.{scheme}"])
        return out

    def _has_layer_ancestor(self, index: int) -> bool:
        while index >= 0:
            name, _, _, parent, _ = self.spans[index]
            if name in LAYERS or name.startswith("protection."):
                return True
            index = parent
        return False

    def write_chrome_trace(self, path: str) -> None:
        """Spans and counts as a Chrome trace that ``repro report`` reads.

        The recorder is this benchmark's own; it is never installed, so
        the program's global recorder stays off.
        """
        recorder = obs.Recorder()
        pid = os.getpid()
        for index, (name, start, end, parent, cell) in enumerate(self.spans):
            npu, _, workload = (cell or "?:?").partition(":")
            recorder.spans.append({
                "name": name, "ts": start, "dur": end - start, "pid": pid,
                "tid": 0, "args": {"id": index, "parent": parent,
                                   "npu": npu, "workload": workload,
                                   "clock": "process_cpu"}})
        recorder.counters.update(self.counts)
        export.write_chrome_trace(recorder, path)
