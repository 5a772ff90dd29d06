"""Grid cells of each benchmark workload.

A cell is one ``(npu, workload spec)`` pair: every protection scheme
plus the baseline on one workload, exactly what ``repro sweep``
evaluates per grid point.  Every pass of a workload covers its whole
cell set; the seed only decides the order (see ``worker.measure``),
so every seed draws the same cells and ``digests.json`` pins them all.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Cell = Tuple[str, str]

NPUS = ("server", "edge")

#: The 13 Section IV-A workloads (``repro.models.zoo.WORKLOADS``),
#: spelled out so the benchmark's cell set cannot drift with the zoo.
PAPER_WORKLOADS = (
    "lenet", "alexnet", "mobilenet", "resnet18", "googlenet", "dlrm",
    "alphagozero", "deepspeech2", "fasterrcnn", "ncf", "sentimental",
    "transformer_fwd", "yolo_tiny",
)

LONG_CONTEXT = ("vit_b16", "bert_base", "gpt2@s512", "gpt2@s2048",
                "gpt2@s4096")

# Spans the measured derive-vs-simulate crossover (derivation loses at
# small batches, wins at large ones).  Left out to fit a shared 7.7 GB
# machine: edge fasterrcnn@b4 (falls back, 4.3 GB) and transformer
# ``@bN`` probes (1.3-2.3 GB).
BATCHED = ("resnet18@b4", "mobilenet@b8", "googlenet@b8", "resnet18@b32",
           "yolo_tiny@b32", "dlrm@b16")


def _grid(specs: Tuple[str, ...]) -> List[Cell]:
    return [(npu, spec) for npu in NPUS for spec in specs]


PAPER_GRID = _grid(PAPER_WORKLOADS)
LONG_CONTEXT_GRID = _grid(LONG_CONTEXT)
# transformer_fwd@b8 on edge is declined by ``derivable()``, so one
# cell always falls back to full simulation.
BATCH_SCALING_GRID = _grid(BATCHED) + [("edge", "transformer_fwd@b8")]

WORKLOADS: Dict[str, List[Cell]] = {
    "paper-grid": PAPER_GRID,
    "long-context": LONG_CONTEXT_GRID,
    "batch-scaling": BATCH_SCALING_GRID,
    # The union, replayed from a store prepared before timing.
    "warm-replay": PAPER_GRID + LONG_CONTEXT_GRID + BATCH_SCALING_GRID,
}

#: Workloads whose passes evaluate cells; warm-replay only reads.
REPLAY = "warm-replay"

#: Evaluated once, untimed, before the first timed pass: the cell with
#: the largest arrays, so the allocator's thresholds and the lazily
#: built state settle before timing (an unwarmed first cell costs up to
#: 30% more CPU, and which cell comes first depends on the seed).
#: Warm-replay warms up with one untimed pass instead.
WARMUP: Dict[str, Cell] = {
    "paper-grid": ("edge", "fasterrcnn"),
    "long-context": ("edge", "gpt2@s4096"),
    "batch-scaling": ("edge", "googlenet@b8"),
}


def cell_id(cell: Cell) -> str:
    return f"{cell[0]}:{cell[1]}"
