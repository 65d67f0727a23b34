"""Unit tests for the MSHR file and the DRAM bandwidth queue."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.dram import DRAMQueue
from repro.memory.mshr import MSHRError, MSHRFile


class TestMSHR:
    def test_allocate_and_release(self):
        mshr = MSHRFile(2)
        mshr.allocate(0x100, completion=50.0)
        assert len(mshr) == 1
        assert mshr.lookup(0x100) == 50.0
        assert mshr.release_completed(49.0) == []
        assert mshr.release_completed(50.0) == [0x100]
        assert len(mshr) == 0
        assert mshr.free_entries == 2

    def test_merge_returns_original_completion(self):
        mshr = MSHRFile(2)
        mshr.allocate(0x100, completion=50.0)
        merged = mshr.allocate(0x100, completion=99.0)
        assert merged == 50.0
        assert len(mshr) == 1
        assert mshr.n_merges == 1

    def test_full_file_raises(self):
        mshr = MSHRFile(1)
        mshr.allocate(0x100, 10.0)
        with pytest.raises(MSHRError):
            mshr.allocate(0x200, 10.0)
        assert mshr.stalled_allocation_attempts == 1

    def test_next_completion(self):
        mshr = MSHRFile(4)
        assert mshr.next_completion() is None
        mshr.allocate(1, 30.0)
        mshr.allocate(2, 10.0)
        assert mshr.next_completion() == 10.0

    def test_kth_completion(self):
        mshr = MSHRFile(4)
        mshr.allocate(1, 30.0)
        mshr.allocate(2, 10.0)
        mshr.allocate(3, 20.0)
        assert mshr.kth_completion(1) == 10.0
        assert mshr.kth_completion(2) == 20.0
        assert mshr.kth_completion(3) == 30.0
        assert mshr.kth_completion(4) is None
        assert mshr.kth_completion(0) == 10.0

    def test_release_exactly_at_earliest_completion(self):
        mshr = MSHRFile(4)
        mshr.allocate(1, 30.0)
        mshr.allocate(2, 10.0)
        mshr.allocate(3, 20.0)
        assert mshr.release_completed(9.5) == []
        assert mshr.release_completed(10.0) == [2]
        assert mshr.lookup(2) is None
        assert mshr.next_completion() == 20.0
        assert mshr.release_completed(20.0) == [3]
        assert mshr.next_completion() == 30.0

    def test_release_on_empty_file(self):
        mshr = MSHRFile(2)
        assert mshr.release_completed(1e9) == []
        mshr.allocate(1, 5.0)
        assert mshr.release_completed(5.0) == [1]
        assert mshr.next_completion() is None
        assert mshr.release_completed(1e9) == []
        assert mshr.free_entries == 2

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 60)),
                    max_size=60))
    def test_release_matches_full_scan(self, ops):
        """The early-out release frees exactly what a scan would."""
        mshr = MSHRFile(4)
        reference = {}
        now = 0.0
        for line, delta in ops:
            if delta % 3 == 0:
                now += delta / 3.0
                due = [k for k, t in reference.items() if t <= now]
                for k in due:
                    del reference[k]
                assert sorted(mshr.release_completed(now)) == sorted(due)
            elif mshr.lookup(line) is not None or mshr.free_entries:
                completion = now + delta
                reference.setdefault(line, completion)
                mshr.allocate(line, completion)
            inflight = {k: mshr.lookup(k) for k in mshr.inflight_lines()}
            assert inflight == reference
            assert mshr.free_entries == 4 - len(reference)
            assert mshr.next_completion() == (
                min(reference.values()) if reference else None
            )

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MSHRFile(0)

    @given(st.lists(st.tuples(st.integers(0, 10), st.floats(1, 100)),
                    min_size=1, max_size=50))
    def test_occupancy_bounded(self, ops):
        mshr = MSHRFile(4)
        for line, completion in ops:
            if mshr.lookup(line) is None and not mshr.free_entries:
                mshr.release_completed(completion)
                if not mshr.free_entries:
                    continue
            mshr.allocate(line, completion)
            assert len(mshr) <= 4


class TestDRAMQueue:
    def test_idle_queue_no_wait(self):
        queue = DRAMQueue(2.0)
        assert queue.enqueue(10.0) == 12.0
        assert queue.total_queue_delay == 0.0

    def test_back_to_back_serialise(self):
        queue = DRAMQueue(2.0)
        queue.enqueue(0.0)
        assert queue.enqueue(0.0) == 4.0
        assert queue.enqueue(0.0) == 6.0
        assert queue.total_queue_delay == 2.0 + 4.0

    def test_gap_lets_queue_drain(self):
        queue = DRAMQueue(2.0)
        queue.enqueue(0.0)
        assert queue.enqueue(100.0) == 102.0

    def test_fcfs_ordering(self):
        queue = DRAMQueue(1.0)
        first = queue.enqueue(0.0)
        second = queue.enqueue(0.5)
        assert second > first

    def test_utilization(self):
        queue = DRAMQueue(2.0)
        queue.enqueue(0.0)
        queue.enqueue(0.0)
        assert queue.utilization(8.0) == pytest.approx(0.5)
        assert queue.utilization(0.0) == 0.0

    def test_mean_queue_delay(self):
        queue = DRAMQueue(2.0)
        assert queue.mean_queue_delay == 0.0
        queue.enqueue(0.0)
        queue.enqueue(0.0)
        assert queue.mean_queue_delay == pytest.approx(1.0)

    def test_invalid_service_time(self):
        with pytest.raises(ValueError):
            DRAMQueue(0.0)

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1,
                    max_size=100))
    def test_completions_monotone_and_spaced(self, arrivals):
        queue = DRAMQueue(1.5)
        completions = [queue.enqueue(a) for a in sorted(arrivals)]
        for earlier, later in zip(completions, completions[1:]):
            assert later >= earlier + 1.5
        for arrival, completion in zip(sorted(arrivals), completions):
            assert completion >= arrival + 1.5
