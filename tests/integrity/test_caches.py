"""Metadata cache wrapper (VN cache / MAC cache)."""

import pytest

from repro.integrity.caches import (
    MAC_CACHE_BYTES,
    MetadataCache,
    VN_CACHE_BYTES,
)


class TestConfiguration:
    def test_paper_sizes(self):
        assert VN_CACHE_BYTES == 16 << 10
        assert MAC_CACHE_BYTES == 8 << 10

    def test_line_capacity(self):
        cache = MetadataCache(VN_CACHE_BYTES)
        assert cache.capacity_lines == 256

    def test_too_small(self):
        with pytest.raises(ValueError):
            MetadataCache(32)


class TestLineAddressing:
    def test_same_line_hits(self):
        cache = MetadataCache(1024)
        cache.access(0)
        hit, _ = cache.access(63)   # same 64 B line
        assert hit

    def test_different_line_misses(self):
        cache = MetadataCache(1024)
        cache.access(0)
        hit, _ = cache.access(64)
        assert not hit

    def test_writeback_is_address(self):
        cache = MetadataCache(64)  # one line
        cache.access(0, write=True)
        _, writeback = cache.access(64)
        assert writeback == 0

    def test_flush_addresses(self):
        cache = MetadataCache(256)
        cache.access(0, write=True)
        cache.access(128, write=True)
        cache.access(64, write=False)
        assert sorted(cache.flush()) == [0, 128]

    def test_streaming_miss_rate(self):
        """A pure streaming pattern misses once per line."""
        cache = MetadataCache(8 << 10)
        for addr in range(0, 64 * 4096, 8):
            cache.access(addr)
        stats = cache.stats
        assert stats.misses == 4096
        assert stats.hit_rate == pytest.approx(7 / 8)
