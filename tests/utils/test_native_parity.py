"""Tier parity of the native kernel entry points.

Every public kernel in :mod:`repro.utils.native` must keep a registered
pure-Python/numpy fallback (the ``FALLBACKS`` manifest) and match it
exactly.  The broad equivalence suites live next to the models
(``tests/protection/test_drive_tiers.py``, ``tests/dram``); this file
pins the manifest itself and drives ``dram_completion`` /
``insertion_scan`` head-to-head against their slow tiers
(``DramSim._channel_completion`` and ``DramSim.simulate_fast``).
"""

import importlib

import numpy as np
import pytest

from repro.accel.trace import BlockStream
from repro.dram.simulator import DramSim
from repro.dram.timing import SERVER_DRAM
from repro.utils import native


def _stream(addrs, cycles=None, writes=None):
    n = len(addrs)
    return BlockStream(
        np.asarray(cycles if cycles is not None else np.zeros(n), np.int64),
        np.asarray(addrs, np.uint64),
        np.asarray(writes if writes is not None else np.zeros(n, bool), bool),
        np.zeros(n, np.int32),
    )


class TestFallbacksManifest:
    def test_every_entry_point_is_registered(self):
        for entry in ("fused_drive", "insertion_scan", "geom_counts",
                      "dram_completion"):
            assert entry in native.FALLBACKS
            assert callable(getattr(native, entry))

    def test_every_fallback_resolves(self):
        for entry, targets in native.FALLBACKS.items():
            assert targets, f"{entry} has no fallback tier"
            for target in targets:
                module_name, qualname = target.split(":")
                obj = importlib.import_module(module_name)
                for part in qualname.split("."):
                    obj = getattr(obj, part)
                assert callable(obj), f"{entry} fallback {target}"

    def test_manifest_has_no_stale_entries(self):
        for entry in native.FALLBACKS:
            assert callable(getattr(native, entry, None)), \
                f"FALLBACKS registers missing kernel {entry!r}"


class TestDramCompletionParity:
    def _case(self, seed, nbanks):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 600))
        arrivals = np.sort(rng.uniform(0, 3_000, n))
        banks = rng.integers(0, nbanks, n)
        service = rng.uniform(1.0, 40.0, n)
        return arrivals, banks, service

    @pytest.mark.parametrize("seed", [1, 5, 23])
    def test_kernel_matches_python_carry(self, seed, monkeypatch):
        if not native.available():
            pytest.skip("no native kernel in this environment")
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        nbanks = sim.config.banks_per_channel
        arrivals, banks, service = self._case(seed, nbanks)
        burst = 4.0
        got = native.dram_completion(arrivals, banks, service, burst,
                                     nbanks)
        assert got is not None
        monkeypatch.setattr(native, "dram_completion",
                            lambda *a, **k: None)
        want = sim._channel_completion(arrivals, banks, service, burst)
        # The kernel is a float64-identical transcription of the carry.
        assert got == want


class TestInsertionScanParity:
    def _part_lists(self, seed, cycle_span=4_000, addr_span=1 << 22):
        rng = np.random.default_rng(seed)
        part_lists = []
        for _ in range(5):
            n = int(rng.integers(1, 900))
            m = int(rng.integers(1, 300))
            data = _stream(
                rng.integers(0, addr_span, n).astype(np.uint64) * 64,
                cycles=np.sort(rng.integers(0, cycle_span, n)),
                writes=rng.integers(0, 2, n).astype(bool))
            meta = _stream(
                rng.integers(0, addr_span, m).astype(np.uint64) * 64,
                cycles=rng.integers(0, cycle_span, m),
                writes=rng.integers(0, 2, m).astype(bool))
            part_lists.append([data, meta])
        return part_lists

    @pytest.mark.parametrize("seed", [2, 13])
    def test_kernel_matches_simulate_fast(self, seed, monkeypatch):
        if not native.available():
            pytest.skip("no native kernel in this environment")
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        scans = []
        real_scan = native.insertion_scan

        def counted(*args):
            scans.append(True)
            return real_scan(*args)
        monkeypatch.setattr(native, "insertion_scan", counted)
        part_lists = self._part_lists(seed)
        got = sim.simulate_fast_batch_parts(part_lists)
        assert len(scans) == len(part_lists)
        for parts, g in zip(part_lists, got):
            assert g == sim.simulate_fast(BlockStream.concat(parts))

    def test_kernel_orders_ties_data_first(self):
        """Dense cycles and a small footprint put many data and metadata
        accesses on the same (bank, cycle) key; the concatenation the
        oracle sorts serves the data access first."""
        if not native.available():
            pytest.skip("no native kernel in this environment")
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        part_lists = self._part_lists(5, cycle_span=64, addr_span=1 << 14)
        got = sim.simulate_fast_batch_parts(part_lists)
        for parts, g in zip(part_lists, got):
            assert g == sim.simulate_fast(BlockStream.concat(parts))

    def test_failed_scan_hands_entry_to_oracle(self, monkeypatch):
        monkeypatch.setattr(native, "insertion_scan", lambda *a: False)
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        part_lists = self._part_lists(7)
        got = sim.simulate_fast_batch_parts(part_lists)
        for parts, g in zip(part_lists, got):
            assert g == sim.simulate_fast(BlockStream.concat(parts))
