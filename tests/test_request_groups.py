"""The timing oracle's request-group walks against a per-line reference.

A memory instruction hands its coalesced lines to each level at once:
``Cache.read_group`` (loads), ``Cache.write_group`` (stores) and
``DRAMSystem.enqueue_group`` (store traffic).  Each must leave the level
exactly as one per-line call per request would: the same set contents
in the same LRU order, the same counters and victims, and DRAM float
sums equal to the last bit.  Groups repeat lines on purpose: a group
may hit a line it installed itself, or evict it again.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache
from repro.memory.dram import DRAMSystem

LINE = 128

#: Line addresses from a small pool, so groups repeat lines and tiny
#: caches evict.
lines = st.integers(0, 11).map(lambda i: i * LINE)


@st.composite
def cache_walks(draw):
    """A cache geometry and a sequence of (is_write, group) accesses."""
    n_sets = draw(st.integers(1, 4))
    assoc = draw(st.integers(1, 4))
    allocate_on_write = draw(st.booleans())
    groups = draw(st.lists(
        st.tuples(st.booleans(), st.lists(lines, max_size=8)),
        min_size=1, max_size=12,
    ))
    return n_sets, assoc, allocate_on_write, groups


def make_cache(n_sets, assoc, allocate_on_write):
    return Cache(n_sets * assoc * LINE, assoc, LINE,
                 allocate_on_write=allocate_on_write)


def cache_state(cache):
    """Every set's lines in LRU order, plus the counters."""
    return ([list(ways) for ways in cache._sets],
            cache.n_accesses, cache.n_misses)


@settings(deadline=None, max_examples=200)
@given(cache_walks())
def test_cache_groups_match_per_line_access(walk):
    n_sets, assoc, allocate_on_write, groups = walk
    grouped = make_cache(n_sets, assoc, allocate_on_write)
    reference = make_cache(n_sets, assoc, allocate_on_write)
    for is_write, group in groups:
        if is_write:
            grouped.write_group(group)
            for line in group:
                reference.access(line, True)
        else:
            victims = []
            hits = grouped.read_group(group, victims)
            expected_victims = []
            expected_hits = [
                reference.access(line, evicted=expected_victims)
                for line in group
            ]
            assert hits == expected_hits
            assert victims == expected_victims
        assert cache_state(grouped) == cache_state(reference)


def channel_state(dram):
    """Each channel's counters; floats as hex, so equal means bit-equal."""
    return [
        (channel.n_requests, channel.total_queue_delay.hex(),
         channel.busy_cycles.hex(), channel.free_at.hex())
        for channel in dram.channels
    ]


@st.composite
def dram_walks(draw):
    """A DRAM system and a sequence of (arrival, lines, grouped) enqueues.

    Service times and arrival gaps are fractional, so the queue's float
    sums round; ungrouped steps stand for a load's single-line enqueues
    interleaved with store groups.
    """
    n_channels = draw(st.integers(1, 3))
    service = draw(st.sampled_from([0.7, 1.0, 2.0 / 3.0, 3.3, 12.9]))
    steps = []
    arrival = 0.0
    for _ in range(draw(st.integers(1, 12))):
        arrival += draw(st.sampled_from([0.0, 0.1, 1.0, 7.25, 40.0]))
        steps.append((arrival, draw(st.lists(lines, max_size=8)),
                      draw(st.booleans())))
    return n_channels, service, steps


@settings(deadline=None, max_examples=200)
@given(dram_walks())
def test_dram_group_matches_per_line_enqueue(walk):
    n_channels, service, steps = walk
    grouped = DRAMSystem(service, n_channels, LINE)
    reference = DRAMSystem(service, n_channels, LINE)
    for arrival, group, as_group in steps:
        if as_group:
            grouped.enqueue_group(arrival, group)
        else:
            for line in group:
                grouped.enqueue(arrival, line)
        for line in group:
            reference.enqueue(arrival, line)
        assert channel_state(grouped) == channel_state(reference)
    assert grouped.n_requests == reference.n_requests
