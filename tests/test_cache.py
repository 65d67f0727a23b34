"""Unit and property tests for the set-associative cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.cache import Cache


def small_cache(assoc=2, n_sets=4, line=128):
    return Cache(size=assoc * n_sets * line, assoc=assoc, line_size=line)


class TestGeometry:
    def test_set_count(self):
        cache = Cache(size=32 * 1024, assoc=8, line_size=128)
        assert cache.n_sets == 32

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            Cache(size=1024, assoc=2, line_size=100)

    def test_size_must_divide(self):
        with pytest.raises(ValueError):
            Cache(size=1000, assoc=2, line_size=128)

    def test_repr_mentions_geometry(self):
        assert "8-way" in repr(Cache(size=32 * 1024, assoc=8, line_size=128))


class TestBehaviour:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0) is False
        assert cache.access(0) is True

    def test_same_line_different_bytes_hit(self):
        cache = small_cache()
        cache.access(0)
        assert cache.access(127) is True
        assert cache.access(128) is False

    def test_lru_eviction(self):
        cache = small_cache(assoc=2, n_sets=1)
        a, b, c = 0, 128, 256  # all map to the single set
        cache.access(a)
        cache.access(b)
        cache.access(c)  # evicts a (LRU)
        assert cache.access(b) is True
        assert cache.access(a) is False

    def test_access_refreshes_recency(self):
        cache = small_cache(assoc=2, n_sets=1)
        a, b, c = 0, 128, 256
        cache.access(a)
        cache.access(b)
        cache.access(a)  # refresh a; b is now LRU
        cache.access(c)  # evicts b
        assert cache.access(a) is True
        assert cache.access(b) is False

    def test_sets_are_independent(self):
        cache = small_cache(assoc=1, n_sets=2, line=128)
        cache.access(0)  # set 0
        cache.access(128)  # set 1
        assert cache.access(0) is True
        assert cache.access(128) is True

    def test_write_no_allocate(self):
        cache = small_cache()
        assert cache.access(0, is_write=True) is False
        assert cache.access(0) is False  # store did not install

    def test_write_hits_refresh(self):
        cache = small_cache(assoc=2, n_sets=1)
        a, b, c = 0, 128, 256
        cache.access(a)
        cache.access(b)
        cache.access(a, is_write=True)  # refresh a via store hit
        cache.access(c)  # evicts b
        assert cache.access(a) is True

    def test_write_allocate_mode(self):
        cache = Cache(size=1024, assoc=2, line_size=128,
                      allocate_on_write=True)
        cache.access(0, is_write=True)
        assert cache.access(0) is True

    def test_probe_does_not_mutate(self):
        cache = small_cache(assoc=2, n_sets=1)
        a, b, c = 0, 128, 256
        cache.access(a)
        cache.access(b)
        assert cache.probe(a) is True
        assert cache.probe(c) is False
        accesses = cache.n_accesses
        cache.probe(a)
        assert cache.n_accesses == accesses

    def test_flush(self):
        cache = small_cache()
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False

    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)
        assert Cache(1024, 2, 128).miss_rate == 0.0


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2 ** 20), min_size=1,
                    max_size=200))
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = small_cache(assoc=2, n_sets=4)
        for addr in addrs:
            cache.access(addr * 64)
        total = sum(len(s) for s in cache._sets)
        assert total <= cache.assoc * cache.n_sets
        assert all(len(s) <= cache.assoc for s in cache._sets)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=300))
    def test_working_set_within_capacity_never_misses_twice(self, addrs):
        # 64 lines of capacity, fully-associative equivalent per set is not
        # guaranteed, so use a single-set fully-associative cache.
        cache = Cache(size=64 * 128, assoc=64, line_size=128)
        misses = 0
        for addr in addrs:
            if not cache.access(addr * 128):
                misses += 1
        assert misses == len(set(addrs))

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 20), min_size=1,
                    max_size=200))
    def test_counters_consistent(self, addrs):
        cache = small_cache()
        for addr in addrs:
            cache.access(addr)
        assert cache.n_accesses == len(addrs)
        assert 0 <= cache.n_misses <= cache.n_accesses


class TestEvictionReport:
    @given(st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                    max_size=60),
           st.booleans())
    def test_access_reports_evicted_victims(self, accesses, write_allocate):
        """``evicted`` receives exactly the lines an access makes
        non-resident, and passing it changes nothing else."""
        reporting = Cache(4 * 2 * 128, 2, 128,
                          allocate_on_write=write_allocate)
        plain = Cache(4 * 2 * 128, 2, 128, allocate_on_write=write_allocate)
        for block, is_write in accesses:
            line = block * 128
            before = {b * 128 for b in range(41) if plain.probe(b * 128)}
            evicted = []
            assert reporting.access(line, is_write, evicted=evicted) == (
                plain.access(line, is_write))
            after = {b * 128 for b in range(41) if plain.probe(b * 128)}
            assert evicted == sorted(before - after)
            assert reporting._sets == plain._sets
            assert (reporting.n_accesses, reporting.n_misses) == (
                plain.n_accesses, plain.n_misses)
