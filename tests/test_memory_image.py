"""Unit tests for the deterministic synthetic memory image."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.memory_image import MemoryImage


class TestDefaultHash:
    def test_deterministic(self):
        image = MemoryImage()
        addrs = np.array([0, 4, 1024, 2 ** 30], dtype=np.int64)
        assert np.array_equal(image.read(addrs), image.read(addrs))

    def test_values_in_unit_interval(self):
        image = MemoryImage()
        addrs = np.arange(0, 4096, 4, dtype=np.int64)
        values = image.read(addrs)
        assert (values >= 0).all() and (values < 1).all()

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 40), min_size=1,
                    max_size=32))
    def test_two_instances_agree(self, addrs):
        a = MemoryImage().read(np.asarray(addrs, dtype=np.int64))
        b = MemoryImage().read(np.asarray(addrs, dtype=np.int64))
        assert np.array_equal(a, b)


class TestRegions:
    def test_constant_region(self):
        image = MemoryImage()
        image.add_constant_region(0x1000, 0x100, 7.5)
        values = image.read(np.array([0x1000, 0x10ff, 0x1100], dtype=np.int64))
        assert values[0] == 7.5 and values[1] == 7.5
        assert values[2] != 7.5 or True  # outside: hash value

    def test_linear_region(self):
        image = MemoryImage()
        image.add_linear_region(0x2000, 0x100, scale=2.0, offset=1.0)
        values = image.read(np.array([0x2000, 0x2004], dtype=np.int64))
        assert values[0] == 1.0
        assert values[1] == 9.0

    def test_uniform_int_region_bounds(self):
        image = MemoryImage()
        image.add_uniform_int_region(0, 4096, 3, 11)
        values = image.read(np.arange(0, 4096, 4, dtype=np.int64))
        assert (values >= 3).all() and (values < 11).all()
        assert values == pytest.approx(np.floor(values))

    def test_uniform_int_salt_changes_values(self):
        a, b = MemoryImage(), MemoryImage()
        a.add_uniform_int_region(0, 4096, 0, 1000, salt=1)
        b.add_uniform_int_region(0, 4096, 0, 1000, salt=2)
        addrs = np.arange(0, 4096, 4, dtype=np.int64)
        assert not np.array_equal(a.read(addrs), b.read(addrs))

    def test_later_regions_shadow_earlier(self):
        image = MemoryImage()
        image.add_constant_region(0, 256, 1.0)
        image.add_constant_region(0, 128, 2.0)
        values = image.read(np.array([0, 128], dtype=np.int64))
        assert list(values) == [2.0, 1.0]

    def test_invalid_region_size(self):
        with pytest.raises(ValueError):
            MemoryImage().add_region(0, 0, lambda a: a)

    def test_invalid_uniform_bounds(self):
        with pytest.raises(ValueError):
            MemoryImage().add_uniform_int_region(0, 16, 5, 5)


class TestStores:
    def test_write_then_read(self):
        image = MemoryImage()
        addrs = np.array([100, 200], dtype=np.int64)
        image.write(addrs, np.array([1.5, 2.5]), np.array([True, True]))
        values = image.read(addrs)
        assert list(values) == [1.5, 2.5]

    def test_masked_write(self):
        image = MemoryImage()
        addrs = np.array([100, 200], dtype=np.int64)
        before = image.read(addrs).copy()
        image.write(addrs, np.array([9.0, 9.0]), np.array([True, False]))
        after = image.read(addrs)
        assert after[0] == 9.0
        assert after[1] == before[1]

    def test_tracking_disabled(self):
        image = MemoryImage(track_stores=False)
        addrs = np.array([100], dtype=np.int64)
        before = image.read(addrs).copy()
        image.write(addrs, np.array([9.0]), np.array([True]))
        assert np.array_equal(image.read(addrs), before)
        assert image.n_overlaid == 0

    def test_overlay_shadows_regions(self):
        image = MemoryImage()
        image.add_constant_region(0, 256, 1.0)
        image.write(np.array([4], dtype=np.int64), np.array([3.0]),
                    np.array([True]))
        values = image.read(np.array([0, 4], dtype=np.int64))
        assert list(values) == [1.0, 3.0]


#: Few distinct addresses, so writes overwrite and repeat within a store.
ADDRS = st.integers(min_value=0, max_value=15).map(lambda i: 0x1000 + 4 * i)


@st.composite
def lane_blocks(draw):
    """Addresses, values and an active mask over ``(rows, width)`` lanes,
    the shapes both emulators read and store with."""
    rows = draw(st.integers(min_value=1, max_value=3))
    width = draw(st.integers(min_value=1, max_value=6))
    n = rows * width
    addrs = draw(st.lists(ADDRS, min_size=n, max_size=n))
    values = draw(st.lists(st.floats(allow_nan=False), min_size=n,
                           max_size=n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return tuple(
        np.array(column, dtype=dtype).reshape(rows, width)
        for column, dtype in ((addrs, np.int64), (values, np.float64),
                              (mask, bool))
    )


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), lane_blocks()),
        st.tuples(st.just("read"), lane_blocks()),
    ),
    max_size=12,
)


class TestOverlayMatchesDict:
    """The sorted-array store overlay behaves as the address → value
    dict it replaced: the last write of an address wins, also among
    the lanes of one store; masked lanes write nothing; a disabled
    overlay stays empty."""

    @given(STEPS, st.booleans(), st.booleans())
    def test_interleaved_reads_and_writes(self, steps, track, region):
        image = MemoryImage(track_stores=track)
        plain = MemoryImage(track_stores=False)  # no overlay: the base
        if region:
            for im in (image, plain):
                im.add_linear_region(0x1000, 32, scale=0.5, offset=1.0)
        reference = {}
        for kind, payload in steps:
            if kind == "write":
                addrs, values, mask = payload
                image.write(addrs, values, mask)
                if track:
                    for addr, value, on in zip(addrs.ravel().tolist(),
                                               values.ravel().tolist(),
                                               mask.ravel().tolist()):
                        if on:
                            reference[addr] = value
            else:
                addrs = payload[0]
                want = [
                    reference.get(addr, base)
                    for addr, base in zip(addrs.ravel().tolist(),
                                          plain.read(addrs).ravel().tolist())
                ]
                got = image.read(addrs)
                assert got.shape == addrs.shape
                assert got.tobytes() == np.array(want).tobytes()
            assert image.n_overlaid == len(reference)
