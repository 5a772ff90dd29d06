"""Equivalence of the metadata-cache drive tiers.

The compiled drive kernel (:func:`repro.utils.native.fused_drive`) and
the models' scalar oracles (``MacTableModel._process_scalar``,
``VnTreeModel._process_scalar``) must be *bit-identical* — same
hit/miss classification, same eviction victims and dirty bits, same
emitted miss/writeback streams, same final contents — on adversarial
tag streams: capacity-1 caches, all-hit working sets, all-conflict
sweeps, interleaved dirty/clean runs, warm starts, and flushes
mid-stream.  The MAC oracle is also pinned to this file's independent
``oracle_drive``, so the file checks something even where no kernel can
be built (``REPRO_NO_NATIVE_KERNEL=1``).
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.accel.trace import AccessKind, Trace, TraceRange
from repro.integrity.caches import MetadataCache
from repro.protection.layout import LINE_BYTES, MetadataLayout
from repro.protection.metadata_model import (
    CacheTrafficResult,
    MacTableModel,
    VnTreeModel,
    _apply_drive_output,
    process_mac_vn,
)
from repro.utils import native


def oracle_drive(tags, writes, capacity, init=()):
    """Reference LRU drive over plain scalars (the OrderedDict model)."""
    lines = OrderedDict(init)
    hits, evictions = [], []
    for i, (tag, write) in enumerate(zip(tags, writes)):
        if tag in lines:
            hits.append(True)
            lines.move_to_end(tag)
            if write:
                lines[tag] = True
        else:
            hits.append(False)
            if len(lines) >= capacity:
                victim, dirty = lines.popitem(last=False)
                evictions.append((i, victim, bool(dirty)))
            lines[tag] = bool(write)
    return hits, evictions, list(lines.items())


def expected_mac_drive(tags, writes, cycles, capacity, init=()):
    """Stats, events and final contents of ``oracle_drive`` in the MAC
    discipline: a miss emits the fetch, then any dirty writeback."""
    hits, evictions, state = oracle_drive(tags, writes, capacity, init)
    victims = {pos: (tag, dirty) for pos, tag, dirty in evictions}
    events = []
    for i, (tag, hit) in enumerate(zip(tags, hits)):
        if not hit:
            events.append((cycles[i], tag * LINE_BYTES, 0))
        victim = victims.get(i)
        if victim is not None and victim[1]:
            events.append((cycles[i], victim[0] * LINE_BYTES, 1))
    stats = (sum(hits), len(hits) - sum(hits), len(evictions),
             sum(dirty for _, _, dirty in evictions))
    return stats, events, state


def _summary(cache, out):
    s = cache.stats
    return ((s.hits, s.misses, s.evictions, s.dirty_evictions),
            list(zip(out.stream_cycles, out.stream_addrs,
                     out.stream_writes)),
            list(cache.raw_lines.items()))


def _drive_tier(model, idx, writes, cycles, init, kernel):
    """One drive of ``model`` from the warm state ``init`` (tag, dirty
    pairs) through the kernel or the model's scalar oracle."""
    model.cache.raw_lines.update(init)
    out = CacheTrafficResult()
    is_mac = isinstance(model, MacTableModel)
    if kernel:
        side = "mac" if is_mac else "vn"
        got = native.fused_drive(idx, writes, cycles, LINE_BYTES,
                                 **{side: model._kernel_spec()})
        _apply_drive_output(model.cache, out, got[0 if is_mac else 1])
    else:
        model._process_scalar(idx, writes, cycles, out)
    return _summary(model.cache, out)


def assert_tiers_match_oracle(idx, writes, capacity, init=()):
    """MAC oracle == ``oracle_drive``; kernel == oracle for MAC and VN."""
    layout = MetadataLayout(64)
    idx = np.asarray(idx, np.int64)
    writes = np.asarray(writes, bool)
    cycles = 3 * np.arange(len(idx), dtype=np.int64) + 7

    def fresh(model_cls):
        return model_cls(layout, MetadataCache(capacity * LINE_BYTES))

    base = fresh(MacTableModel)._tag_base
    warm = [(base + int(t), d) for t, d in init]
    want = expected_mac_drive((base + idx).tolist(), writes.tolist(),
                              cycles.tolist(), capacity, warm)
    got = _drive_tier(fresh(MacTableModel), idx, writes, cycles, warm,
                      kernel=False)
    assert got == want
    if not native.available():
        return
    got = _drive_tier(fresh(MacTableModel), idx, writes, cycles, warm,
                      kernel=True)
    assert got == want
    vn_base = fresh(VnTreeModel)._vn_base_tag
    vn_warm = [(vn_base + int(t), d) for t, d in init]
    assert _drive_tier(fresh(VnTreeModel), idx, writes, cycles, vn_warm,
                       kernel=True) == \
        _drive_tier(fresh(VnTreeModel), idx, writes, cycles, vn_warm,
                    kernel=False)


class TestKernelVsOracle:
    def test_randomized_streams(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            n = int(rng.integers(0, 400))
            ntags = int(rng.integers(1, 60))
            capacity = int(rng.integers(1, 40))
            tags = rng.integers(0, ntags, n)
            writes = rng.integers(0, 2, n).astype(bool)
            k = int(rng.integers(0, capacity + 1))
            pool = rng.permutation(ntags + 30)[:k]
            init = [(int(t), bool(rng.integers(0, 2))) for t in pool]
            assert_tiers_match_oracle(tags, writes, capacity, init)

    @pytest.mark.parametrize("capacity", [1, 2, 7, 64])
    def test_adversarial_patterns(self, capacity):
        rng = np.random.default_rng(capacity)
        n = 300
        patterns = {
            "all_same": np.zeros(n, np.int64),
            "all_distinct": np.arange(n),
            "all_hits": np.arange(n) % max(1, capacity - 1) if capacity > 1
            else np.zeros(n, np.int64),
            "all_conflict_sweep": np.arange(n) % (capacity + 1),
            "pingpong": (np.arange(n) // 2) % (capacity + 2),
        }
        for tags in patterns.values():
            for writes in (np.zeros(n, bool), np.ones(n, bool),
                           rng.integers(0, 2, n).astype(bool)):
                assert_tiers_match_oracle(tags, writes, capacity)

    def test_interleaved_dirty_clean(self):
        # Alternating dirty/clean touches of two working sets that
        # alternately fit and thrash.
        tags = np.concatenate([np.tile(np.arange(4), 8),
                               np.arange(64), np.tile(np.arange(4), 8)])
        writes = (np.arange(len(tags)) % 3 == 0)
        for capacity in (1, 4, 8, 32):
            assert_tiers_match_oracle(tags, writes, capacity)


def _random_stream(seed, n=80):
    rng = np.random.default_rng(seed)
    trace = Trace([
        TraceRange(int(rng.integers(0, 5_000)), int(rng.integers(0, 1 << 18)),
                   int(rng.integers(1, 3_000)), bool(rng.integers(0, 2)),
                   AccessKind.IFMAP, int(rng.integers(0, 3)),
                   int(rng.integers(0, 200)))
        for _ in range(n)
    ])
    return trace.sorted_blocks()


def _drive_models(layout, stream, mac_bytes, vn_bytes, flush_between):
    """One fused drive (+ optional mid-stream flush + second drive)."""
    mac = MacTableModel(layout, MetadataCache(mac_bytes))
    vn = VnTreeModel(layout, MetadataCache(vn_bytes))
    mac_out, vn_out = CacheTrafficResult(), CacheTrafficResult()
    process_mac_vn(mac, vn, stream, mac_out, vn_out)
    if flush_between:
        mac.flush(99_999, mac_out)
        vn.flush(99_999, vn_out)
    process_mac_vn(mac, vn, stream, mac_out, vn_out)
    return mac, vn, mac_out, vn_out


def _snapshot(mac, vn, mac_out, vn_out):
    stats = []
    for cache in (mac.cache, vn.cache):
        s = cache.stats
        stats.append((s.hits, s.misses, s.evictions, s.dirty_evictions,
                      s.flushed_lines, s.flush_writebacks))
    return (
        stats,
        [list(o.stream_cycles) for o in (mac_out, vn_out)],
        [list(o.stream_addrs) for o in (mac_out, vn_out)],
        [list(o.stream_writes) for o in (mac_out, vn_out)],
        [o.misses for o in (mac_out, vn_out)],
        list(mac.cache.raw_lines.items()),
        list(vn.cache.raw_lines.items()),
    )


def _no_kernel(patch):
    patch.setattr(native, "fused_drive", lambda *a, **k: None)


@pytest.fixture
def kernel():
    if not native.available():
        pytest.skip("no native kernel in this environment")


@pytest.mark.usefixtures("kernel")
class TestTierEquivalence:
    """Kernel and scalar oracle produce identical model traffic."""

    @pytest.mark.parametrize("flush_between", [False, True])
    def test_fused_drive_tiers_agree(self, monkeypatch, flush_between):
        layout = MetadataLayout(64)
        for seed in range(8):
            stream = _random_stream(seed)
            kernel = _snapshot(*_drive_models(
                layout, stream, 512, 1024, flush_between))
            with monkeypatch.context() as patch:
                _no_kernel(patch)
                oracle = _snapshot(*_drive_models(
                    layout, stream, 512, 1024, flush_between))
            assert kernel == oracle

    def test_single_cache_models_tiers_agree(self, monkeypatch):
        layout = MetadataLayout(512)   # coarse units + tree still exact
        for seed in (11, 12):
            stream = _random_stream(seed)
            results = {}
            for tier in ("kernel", "oracle"):
                with monkeypatch.context() as patch:
                    if tier == "oracle":
                        _no_kernel(patch)
                    mac = MacTableModel(layout, MetadataCache(512))
                    vn = VnTreeModel(layout, MetadataCache(2048))
                    mo, vo = CacheTrafficResult(), CacheTrafficResult()
                    mac.process(stream, mo)
                    vn.process(stream, vo)
                    results[tier] = (_summary(mac.cache, mo),
                                     _summary(vn.cache, vo))
            assert results["kernel"] == results["oracle"]

    def test_vn_tier_handoff_is_exact(self, monkeypatch):
        """A kernel drive followed by an oracle drive (the kernel's
        final state handed over as arrays) equals two oracle drives."""
        layout = MetadataLayout(64)
        stream = _random_stream(21)

        def run(first_kernel):
            vn = VnTreeModel(layout, MetadataCache(1024))
            out = CacheTrafficResult()
            with monkeypatch.context() as patch:
                if not first_kernel:
                    _no_kernel(patch)
                vn.process(stream, out)
            with monkeypatch.context() as patch:
                _no_kernel(patch)
                vn.process(stream, out)
            return _summary(vn.cache, out), out.misses

        assert run(first_kernel=True) == run(first_kernel=False)
