"""Trace-driven DRAM simulation.

Both engines consume a :class:`repro.accel.trace.BlockStream` (64-byte
block accesses with issue cycles) and report how long the memory system
is busy serving it, in accelerator cycles.

The **reference model** (:meth:`DramSim.simulate`) walks requests in issue
order, tracking per-bank open rows and ready times plus per-channel data
bus occupancy; it reports both busy time and completion time.

The **fast model** (:meth:`DramSim.simulate_fast`) computes the same
busy-time quantity with numpy: per channel, data-bus occupancy is
``requests * burst``, and row-buffer conflicts (counted exactly, in issue
order, per bank) add an activation penalty discounted by bank-level
overlap. Tests validate it against the reference model on a range of
synthetic and real traces.

The **batched fast model** (:meth:`DramSim.simulate_fast_batch_parts`)
serves a whole model's layers through two native kernels — a memoized
per-stream bank geometry and a metadata insertion scan — and hands any
entry the kernels cannot serve to :meth:`DramSim.simulate_fast`, its
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.accel.trace import BlockStream
from repro.dram.mapping import AddressMapping, _shift_of
from repro.dram.timing import DramConfig
from repro.utils import native
from repro.utils.sorting import stable_order

#: Fixed cycle span for composite (bank, cycle) sort keys, so a stream's
#: sorted geometry can be memoized and scanned against other streams.
_KEY_SPAN = 1 << 41


@dataclass
class DramResult:
    """Outcome of serving one block stream."""

    requests: int
    row_hits: int
    row_misses: int
    busy_cycles: float           # max per-channel busy time (the bottleneck)
    completion_cycle: Optional[float]  # reference model only
    per_channel_requests: List[int]
    per_channel_busy: List[float]
    #: Row-conflict counts per channel — the integer inputs the analytic
    #: ``@bN`` derivation extrapolates before recomputing busy time.
    per_channel_row_misses: Optional[List[int]] = None

    @property
    def row_hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.row_hits / self.requests

    @property
    def total_bytes(self) -> int:
        return self.requests * 64


class DramSim:
    """DRAM timing simulator for one configuration and NPU clock."""

    def __init__(self, config: DramConfig, freq_ghz: float):
        if freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        self.config = config
        self.freq_ghz = freq_ghz
        self.mapping = AddressMapping(config)
        self._burst_cyc = config.to_cycles(config.burst_ns, freq_ghz)
        self._miss_cyc = config.to_cycles(
            config.timing.row_miss_penalty_ns, freq_ghz)
        shifts = (_shift_of(config.block_bytes), _shift_of(config.channels),
                  _shift_of(config.blocks_per_row),
                  _shift_of(config.banks_per_channel))
        #: Power-of-two mapping shifts for the fused native geometry
        #: kernel; None disables it (exotic non-power-of-two configs).
        self._geom_shifts = shifts if min(shifts) >= 0 else None

    @staticmethod
    def _conflict_mask(sorted_bank: np.ndarray,
                       sorted_row: np.ndarray) -> np.ndarray:
        """Row-conflict flags over bank-sorted arrays.

        Within each bank the input preserves issue order, so the first
        access of a bank and every row change between neighbours is a
        conflict — identical to walking the stream with per-bank
        open-row registers. Shared by the reference and fast models so
        their conflict semantics live in one place; the batched model's
        kernels transcribe the same rule.
        """
        n = len(sorted_bank)
        new_bank = np.empty(n, dtype=bool)
        new_bank[0] = True
        np.not_equal(sorted_bank[1:], sorted_bank[:-1], out=new_bank[1:])
        row_change = np.empty(n, dtype=bool)
        row_change[0] = True
        np.not_equal(sorted_row[1:], sorted_row[:-1], out=row_change[1:])
        return new_bank | row_change

    def _issue_order_misses(self, channels: np.ndarray, banks: np.ndarray,
                            rows: np.ndarray):
        """Exact row-conflict flags in issue order, vectorized.

        Returns ``(miss_mask_issue_order, miss_counts_per_channel)``.
        """
        cfg = self.config
        n = len(channels)
        global_bank = channels * cfg.banks_per_channel + banks
        order = stable_order(global_bank,
                              max(1, int(global_bank.max()).bit_length()))
        sorted_bank = global_bank[order]
        miss_sorted = self._conflict_mask(sorted_bank, rows[order])
        miss_channel = sorted_bank[miss_sorted] // cfg.banks_per_channel
        miss_counts = np.bincount(miss_channel, minlength=cfg.channels)
        miss_mask = np.empty(n, dtype=bool)
        miss_mask[order] = miss_sorted
        return miss_mask, miss_counts

    # -- reference event-driven model --

    def simulate(self, stream: BlockStream) -> DramResult:
        """Event-driven service of ``stream`` in issue order.

        Row hit/miss classification, per-channel busy time, and every
        per-request quantity the completion recurrence consumes are
        computed vectorized (per-bank segmentation via packed value
        sorts); only the irreducible scalar carry — the bus/bank
        ready-time coupling in :meth:`_channel_completion` — remains
        sequential, and it runs natively when a kernel is available.
        """
        cfg = self.config
        n = len(stream)
        if n == 0:
            return DramResult(0, 0, 0, 0.0, 0.0,
                              [0] * cfg.channels, [0.0] * cfg.channels,
                              [0] * cfg.channels)
        cyc_bits = max(1, int(stream.cycles.max()).bit_length())
        order = stable_order(stream.cycles, cyc_bits)
        cycles = stream.cycles[order]
        channels, banks, rows = self.mapping.decompose(stream.addrs[order])

        miss_mask, miss_counts = self._issue_order_misses(channels, banks,
                                                          rows)
        misses = int(miss_counts.sum())
        counts = np.bincount(channels, minlength=cfg.channels)
        # The data bus is held only for the burst; the activate phase of
        # a miss overlaps with other banks' transfers — with B banks,
        # 1/B of each penalty surfaces as channel busy time.
        busy = (counts * self._burst_cyc
                + miss_counts * (self._miss_cyc / cfg.banks_per_channel))

        burst = self._burst_cyc
        miss_service = self._miss_cyc + burst
        completion = 0.0
        channel_order = stable_order(
            channels, max(1, int(channels.max()).bit_length()))
        boundaries = np.searchsorted(channels[channel_order],
                                     np.arange(cfg.channels + 1))
        for ch in range(cfg.channels):
            idx = channel_order[boundaries[ch]:boundaries[ch + 1]]
            if not len(idx):
                continue
            service = np.where(miss_mask[idx], miss_service, burst)
            completion = max(completion, self._channel_completion(
                cycles[idx].astype(np.float64), banks[idx], service, burst))

        return DramResult(
            requests=n,
            row_hits=n - misses,
            row_misses=misses,
            busy_cycles=float(busy.max()),
            completion_cycle=completion,
            per_channel_requests=counts.tolist(),
            per_channel_busy=busy.tolist(),
            per_channel_row_misses=miss_counts.tolist(),
        )

    def _channel_completion(self, arrivals: np.ndarray, banks: np.ndarray,
                            service: np.ndarray, burst: float) -> float:
        """Completion time of one channel's request sequence.

        The carry is the least fixpoint of

            ready[i] = max(arrival[i], ready[i-1] + burst,
                           ready[prev_same_bank(i)] + service[prev])

        Arrivals, bank ids and per-request service times are prepared
        vectorized; only this recurrence remains sequential (bank-chain
        critical paths defeat batched relaxation on row-interleaved
        mappings), and it runs in the native kernel when one is
        available — float64-identical to the Python carry below.
        """
        nbanks = self.config.banks_per_channel
        done = native.dram_completion(arrivals, banks, service, burst,
                                      nbanks)
        if done is not None:
            return done
        bank_ready = [0.0] * nbanks
        bus_free = 0.0
        completion = 0.0
        # Reference scalar carry (the bus/bank recurrence is inherently
        # sequential); the native kernel above is the fast tier and the
        # equivalence suite pins both bit-identical.
        # repro: allow(hot-path-hygiene)
        for arrival, bank, sv in zip(arrivals.tolist(), banks.tolist(),
                                     service.tolist()):
            ready = arrival
            if bank_ready[bank] > ready:
                ready = bank_ready[bank]
            if bus_free > ready:
                ready = bus_free
            finish = ready + sv
            bus_free = ready + burst
            bank_ready[bank] = finish
            if finish > completion:
                completion = finish
        return completion

    # -- vectorized fast model --

    @staticmethod
    def _bank_miss_counts(global_bank: np.ndarray, cycles: np.ndarray,
                          rows: np.ndarray, banks_per_channel: int,
                          minlength: int) -> np.ndarray:
        """Row-conflict counts per channel.

        Issue order within a bank is ``(cycle, arrival position)``;
        sorting once by the composite ``(bank, cycle)`` key — stable, so
        arrival position breaks ties — yields exactly the per-bank
        sequences the event model walks, and a row change between
        neighbours of the same bank is a conflict.
        """
        cyc_bits = max(1, int(cycles.max()).bit_length())
        gb_bits = max(1, int(global_bank.max()).bit_length())
        if gb_bits + cyc_bits <= 62:
            order = stable_order((global_bank << cyc_bits) | cycles,
                                  gb_bits + cyc_bits)
        else:  # composite key would overflow; two stable passes instead
            order = np.lexsort((cycles, global_bank))
        sorted_bank = global_bank[order]
        miss_mask = DramSim._conflict_mask(sorted_bank, rows[order])
        return np.bincount(sorted_bank[miss_mask] // banks_per_channel,
                           minlength=minlength)

    def simulate_fast(self, stream: BlockStream) -> DramResult:
        """Busy-time estimate of serving ``stream`` (numpy, no event loop)."""
        cfg = self.config
        n = len(stream)
        if n == 0:
            return DramResult(0, 0, 0, 0.0, None,
                              [0] * cfg.channels, [0.0] * cfg.channels,
                              [0] * cfg.channels)
        channels, banks, rows = self.mapping.decompose(stream.addrs)
        global_bank = channels * cfg.banks_per_channel + banks
        miss_counts = self._bank_miss_counts(
            global_bank, stream.cycles, rows, cfg.banks_per_channel,
            cfg.channels)
        return self._fast_result(np.bincount(channels, minlength=cfg.channels),
                                 miss_counts)

    def _fast_result(self, counts: np.ndarray,
                     miss_counts: np.ndarray) -> DramResult:
        """Fast-model busy-time accounting from per-channel request and
        row-conflict counts (shared by the per-stream and batched
        models, so both compute float-identical busy times)."""
        # Activation penalties overlap with other banks' bursts; with B
        # banks, roughly (B-1)/B of each penalty hides under concurrent
        # transfers.
        overlap = 1.0 / self.config.banks_per_channel
        busy = counts * self._burst_cyc + miss_counts * self._miss_cyc * overlap
        requests = int(counts.sum())
        misses = int(miss_counts.sum())
        return DramResult(
            requests=requests,
            row_hits=requests - misses,
            row_misses=misses,
            busy_cycles=float(busy.max()),
            completion_cycle=None,
            per_channel_requests=counts.tolist(),
            per_channel_busy=busy.tolist(),
            per_channel_row_misses=miss_counts.tolist(),
        )

    def simulate_fast_batch(self, streams: List[BlockStream]) -> List[DramResult]:
        """Fast-model service of many independent streams in one pass.

        Each stream is served by a cold memory system, exactly like
        calling :meth:`simulate_fast` per stream.
        """
        return self.simulate_fast_batch_parts([(s,) for s in streams])

    def _sorted_geom(self, stream: BlockStream):
        """Per-stream ``(gb, rows, keys, requests, conflicts)``, memoized.

        ``gb``/``rows``/``keys`` are the stream's global banks, rows and
        composite ``bank * _KEY_SPAN + cycle`` keys in (bank, cycle,
        arrival) order — the per-bank issue sequences the event model
        walks; ``requests``/``conflicts`` are its per-channel counts.
        The fixed cycle span keeps the result independent of which
        batch the stream appears in, so a layer's data stream, shared
        by every scheme in a sweep cell, is scanned once.  Relies on
        streams being immutable once built.  Returns ``None`` when the
        native kernel is unavailable, the mapping is not a power of
        two, or cycles fall outside ``[0, _KEY_SPAN)``.
        """
        cfg = self.config
        key = (cfg.channels, cfg.banks_per_channel, cfg.row_bytes,
               cfg.block_bytes)
        cached = getattr(stream, "_dram_geom", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        if self._geom_shifts is None or not native.available():
            return None
        addrs, cycles = stream.addrs, stream.cycles
        if not bool(np.all(cycles[1:] >= cycles[:-1])):
            if int(cycles.min()) < 0:
                return None
            order = stable_order(cycles)
            addrs, cycles = addrs[order], cycles[order]
        if int(cycles[0]) < 0 or int(cycles[-1]) >= _KEY_SPAN:
            return None  # composite keys would collide
        geom = native.geom_counts(addrs, cycles, self._geom_shifts,
                                  _KEY_SPAN, cfg.channels)
        if geom is not None:
            stream._dram_geom = (key, geom)
        return geom

    def _entry_counts(self, parts: Sequence[BlockStream]):
        """Per-channel ``(requests, conflicts)`` of the concatenation of
        one or two non-empty parts, or ``None`` when the kernels cannot
        serve the entry.

        The first part's memoized counts stand; the second part's
        accesses land inside the first's bank sequences, and
        :func:`repro.utils.native.insertion_scan` adds their requests
        plus every conflict flag the insertion changes.
        """
        if len(parts) > 2:
            return None
        geoms = [self._sorted_geom(p) for p in parts]
        if any(g is None for g in geoms):
            return None
        gb_a, rows_a, key_a, requests, conflicts = geoms[0]
        if len(geoms) == 1:
            return requests, conflicts
        gb_b, rows_b, key_b, _, _ = geoms[1]
        requests, conflicts = requests.copy(), conflicts.copy()
        if not native.insertion_scan(key_a, gb_a, rows_a, key_b, gb_b,
                                     rows_b, self.config.banks_per_channel,
                                     requests, conflicts):
            return None
        return requests, conflicts

    def simulate_fast_batch_parts(
            self, part_lists: List[Sequence[BlockStream]]) -> List[DramResult]:
        """Fast-model service of many independent streams in one pass.

        Each entry of ``part_lists`` is a sequence of stream parts
        treated as one concatenated stream (the pipeline passes each
        layer's data and metadata streams without materializing the
        combined stream). Results are identical to per-stream
        :meth:`simulate_fast` calls — same ordering, same accounting,
        float-identical.  A ``(data, metadata)`` entry costs one memoized
        geometry pass per part plus one insertion scan
        (:meth:`_entry_counts`); any entry the native kernels cannot
        serve — no compiler, a non-power-of-two mapping, cycles beyond
        the key span, more than two parts — is served by
        :meth:`simulate_fast` on the concatenation instead.
        """
        results: List[DramResult] = []
        for part_list in part_lists:
            parts = [p for p in part_list if len(p)]
            got = self._entry_counts(parts) if parts else None
            results.append(self.simulate_fast(BlockStream.concat(parts))
                           if got is None else self._fast_result(*got))
        return results
