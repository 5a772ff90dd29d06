"""DRAM timing: reference event model vs vectorized fast model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.trace import BlockStream
from repro.dram.simulator import DramSim
from repro.dram.timing import DramConfig, SERVER_DRAM


def _stream(addrs, cycles=None, writes=None):
    n = len(addrs)
    return BlockStream(
        np.asarray(cycles if cycles is not None else np.zeros(n), np.int64),
        np.asarray(addrs, np.uint64),
        np.asarray(writes if writes is not None else np.zeros(n, bool), bool),
        np.zeros(n, np.int32),
    )


@pytest.fixture
def sim():
    return DramSim(SERVER_DRAM, freq_ghz=1.0)


class TestEmptyAndTrivial:
    def test_empty_stream(self, sim):
        result = sim.simulate(_stream([]))
        assert result.requests == 0
        assert result.busy_cycles == 0.0
        fast = sim.simulate_fast(_stream([]))
        assert fast.requests == 0

    def test_single_request(self, sim):
        result = sim.simulate(_stream([0]))
        assert result.requests == 1
        assert result.row_misses == 1  # cold row buffer
        assert result.completion_cycle > 0


class TestRowBufferBehaviour:
    def test_sequential_mostly_hits(self, sim):
        addrs = np.arange(4096, dtype=np.uint64) * 64
        result = sim.simulate_fast(_stream(addrs))
        assert result.row_hit_rate > 0.9

    def test_random_mostly_misses(self, sim):
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 1 << 22, 4096).astype(np.uint64) * 64
        result = sim.simulate_fast(_stream(addrs))
        assert result.row_hit_rate < 0.2

    def test_interleaved_streams_thrash(self, sim):
        """Alternating far-apart regions in the same banks adds misses."""
        a = np.arange(1024, dtype=np.uint64) * 64
        b = a + (1 << 30)
        interleaved = np.empty(2048, dtype=np.uint64)
        interleaved[0::2] = a
        interleaved[1::2] = b
        seq = sim.simulate_fast(_stream(np.concatenate([a, b])))
        mix = sim.simulate_fast(_stream(interleaved))
        assert mix.row_misses > seq.row_misses

    def test_repeated_same_block_hits(self, sim):
        addrs = np.zeros(100, dtype=np.uint64)
        result = sim.simulate_fast(_stream(addrs))
        assert result.row_misses == 1


class TestFastVsReference:
    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_miss_counts_agree(self, blocks):
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        addrs = np.asarray(blocks, dtype=np.uint64) * 64
        ref = sim.simulate(_stream(addrs))
        fast = sim.simulate_fast(_stream(addrs))
        assert ref.row_misses == fast.row_misses
        assert ref.row_hits == fast.row_hits

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_busy_times_agree(self, blocks):
        """Both engines account identical per-channel busy time."""
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        addrs = np.asarray(blocks, dtype=np.uint64) * 64
        ref = sim.simulate(_stream(addrs))
        fast = sim.simulate_fast(_stream(addrs))
        assert ref.busy_cycles == pytest.approx(fast.busy_cycles, rel=1e-9)

    def test_completion_bounds_busy(self, sim):
        addrs = np.arange(2000, dtype=np.uint64) * 64
        ref = sim.simulate(_stream(addrs))
        assert ref.completion_cycle >= ref.busy_cycles

    def test_randomized_mixed_traffic_agreement(self, sim):
        """Random addresses, cycles and writes: the fast model matches
        the reference's hit/miss classification exactly and its busy
        accounting to float tolerance."""
        rng = np.random.default_rng(1234)
        for _ in range(10):
            n = int(rng.integers(1, 2000))
            addrs = rng.integers(0, 1 << 26, n).astype(np.uint64) * 64
            cycles = rng.integers(0, 10_000, n)
            writes = rng.integers(0, 2, n).astype(bool)
            stream = _stream(addrs, cycles=cycles, writes=writes)
            ref = sim.simulate(stream)
            fast = sim.simulate_fast(stream)
            assert ref.row_misses == fast.row_misses
            assert ref.row_hits == fast.row_hits
            assert ref.per_channel_requests == fast.per_channel_requests
            assert ref.busy_cycles == pytest.approx(fast.busy_cycles,
                                                    rel=1e-9)


class TestBatchedFastModel:
    def test_batch_matches_per_stream(self, sim):
        rng = np.random.default_rng(7)
        streams = []
        for _ in range(8):
            n = int(rng.integers(0, 1500))
            addrs = rng.integers(0, 1 << 24, n).astype(np.uint64) * 64
            cycles = rng.integers(0, 5_000, n)
            writes = rng.integers(0, 2, n).astype(bool)
            streams.append(_stream(addrs, cycles=cycles, writes=writes))
        batch = sim.simulate_fast_batch(streams)
        for stream, got in zip(streams, batch):
            want = sim.simulate_fast(stream)
            assert got.requests == want.requests
            assert got.row_misses == want.row_misses
            assert got.busy_cycles == want.busy_cycles
            assert got.per_channel_busy == want.per_channel_busy

    def test_batch_parts_match_concatenation(self, sim):
        rng = np.random.default_rng(9)
        part_lists, combined = [], []
        for _ in range(5):
            parts = []
            for _ in range(2):
                n = int(rng.integers(0, 800))
                addrs = rng.integers(0, 1 << 22, n).astype(np.uint64) * 64
                cycles = rng.integers(0, 4_000, n)
                parts.append(_stream(addrs, cycles=cycles))
            part_lists.append(parts)
            combined.append(BlockStream.concat(parts))
        got = sim.simulate_fast_batch_parts(part_lists)
        want = sim.simulate_fast_batch(combined)
        for g, w in zip(got, want):
            assert g.row_misses == w.row_misses
            assert g.busy_cycles == w.busy_cycles

    def test_batch_empty_streams(self, sim):
        results = sim.simulate_fast_batch([_stream([]), _stream([0, 64])])
        assert results[0].requests == 0
        assert results[1].requests == 2


class TestNativeBatchTiers:
    """The batched model's native kernels (memoized geometry pass plus
    insertion scan) must match the ``simulate_fast`` oracle bit for bit,
    and every entry the kernels cannot serve must be handed to it."""

    def _part_lists(self, seed):
        rng = np.random.default_rng(seed)
        part_lists = []
        for _ in range(6):
            n = int(rng.integers(1, 1200))
            m = int(rng.integers(0, 400))
            # Cycle-sorted data part plus an unsorted metadata part,
            # like the pipeline's (data, metadata) entries.
            data = _stream(rng.integers(0, 1 << 22, n).astype(np.uint64) * 64,
                           cycles=np.sort(rng.integers(0, 4_000, n)),
                           writes=rng.integers(0, 2, n).astype(bool))
            parts = [data]
            if m:
                parts.append(_stream(
                    rng.integers(0, 1 << 22, m).astype(np.uint64) * 64,
                    cycles=rng.integers(0, 4_000, m),
                    writes=rng.integers(0, 2, m).astype(bool)))
            part_lists.append(parts)
        return part_lists

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_native_matches_numpy(self, seed):
        from repro.utils import native
        if not native.available():
            pytest.skip("no native kernel in this environment")
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        part_lists = self._part_lists(seed)
        got = sim.simulate_fast_batch_parts(part_lists)
        for parts, g in zip(part_lists, got):
            # Served by the kernels: each part's geometry is memoized.
            assert all(hasattr(p, "_dram_geom") for p in parts)
            assert g == sim.simulate_fast(BlockStream.concat(parts))

    def test_native_matches_reference_model(self):
        """End to end against the event-driven model: the batched model
        classifies hits/misses exactly."""
        sim = DramSim(SERVER_DRAM, freq_ghz=1.0)
        part_lists = self._part_lists(17)
        batch = sim.simulate_fast_batch_parts(part_lists)
        for parts, got in zip(part_lists, batch):
            ref = sim.simulate(BlockStream.concat(parts))
            assert got.row_misses == ref.row_misses
            assert got.per_channel_requests == ref.per_channel_requests

    @staticmethod
    def _edge_entry(case):
        rng = np.random.default_rng(41)
        config = SERVER_DRAM
        parts = []
        for size in (700, 250, 120):
            # A small footprint: rows recur within each bank, so every
            # ordering slip changes the conflict count.
            parts.append(_stream(
                rng.integers(0, 1 << 14, size).astype(np.uint64) * 64,
                cycles=np.sort(rng.integers(0, 3_000, size)),
                writes=rng.integers(0, 2, size).astype(bool)))
        if case == "unsorted-data":
            # Few distinct cycles: many same-bank ties whose arrival
            # order the geometry's cycle sort must keep.
            parts[0] = _stream(parts[0].addrs,
                               cycles=rng.integers(0, 40, len(parts[0])),
                               writes=parts[0].writes)
        elif case == "huge-cycles":
            parts[0] = _stream(parts[0].addrs,
                               cycles=parts[0].cycles + (1 << 41),
                               writes=parts[0].writes)
        elif case == "three-channels":
            config = DramConfig(total_bandwidth_gbps=20.0, channels=3)
        return config, (parts if case == "three-parts" else parts[:2])

    @pytest.mark.parametrize("case", ["unsorted-data", "three-parts",
                                      "huge-cycles", "three-channels"])
    def test_edge_entry_matches_oracle(self, case):
        """Unsorted data, >2 parts, cycles past the key span and
        non-power-of-two mappings all equal the oracle, and the
        reference model's row-miss count."""
        config, parts = self._edge_entry(case)
        sim = DramSim(config, freq_ghz=1.0)
        combined = BlockStream.concat(parts)
        got, = sim.simulate_fast_batch_parts([parts])
        assert got == sim.simulate_fast(combined)
        assert got.row_misses == sim.simulate(combined).row_misses


class TestBandwidthScaling:
    def test_busy_scales_with_bandwidth(self):
        addrs = np.arange(4096, dtype=np.uint64) * 64
        fast_cfg = DramConfig(total_bandwidth_gbps=40.0)
        slow_cfg = DramConfig(total_bandwidth_gbps=10.0)
        fast = DramSim(fast_cfg, 1.0).simulate_fast(_stream(addrs))
        slow = DramSim(slow_cfg, 1.0).simulate_fast(_stream(addrs))
        assert slow.busy_cycles > 3.5 * fast.busy_cycles

    def test_frequency_scaling(self):
        addrs = np.arange(1024, dtype=np.uint64) * 64
        base = DramSim(SERVER_DRAM, 1.0).simulate_fast(_stream(addrs))
        double = DramSim(SERVER_DRAM, 2.0).simulate_fast(_stream(addrs))
        # Same wall-clock service = twice the cycles at twice the clock.
        assert double.busy_cycles == pytest.approx(2 * base.busy_cycles)

    def test_ideal_bandwidth_bound(self, sim):
        """Busy time never beats the pure-bandwidth lower bound."""
        addrs = np.arange(8192, dtype=np.uint64) * 64
        result = sim.simulate_fast(_stream(addrs))
        ideal = 8192 * 64 / 20.0  # ns at 20 GB/s == cycles at 1 GHz
        assert result.busy_cycles >= ideal / SERVER_DRAM.channels * 0.99

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            DramSim(SERVER_DRAM, 0)
