"""Trace-driven DRAM timing model (Ramulator substrate).

Models a multi-channel DDR memory at the granularity the evaluation
needs: per-channel data-bus occupancy plus row-buffer hit/miss behaviour
per bank. Two engines share one address mapping and timing model:

- :class:`repro.dram.simulator.DramSim.simulate` — event-driven reference
  model (bank ready times, bus serialization, completion times);
- :class:`repro.dram.simulator.DramSim.simulate_fast` — vectorized
  numpy busy-time model (validated against the reference model in
  tests).

Full workload sweeps serve each model's layers through
:meth:`repro.dram.simulator.DramSim.simulate_fast_batch_parts`: two
native kernels (memoized per-stream bank geometry plus a metadata
insertion scan), with ``simulate_fast`` as the oracle for any entry the
kernels cannot serve.
"""

from repro.dram.timing import DramConfig, DramTiming
from repro.dram.mapping import AddressMapping
from repro.dram.simulator import DramSim, DramResult

__all__ = [
    "DramConfig",
    "DramTiming",
    "AddressMapping",
    "DramSim",
    "DramResult",
]
