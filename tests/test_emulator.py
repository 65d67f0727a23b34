"""Unit tests for the functional SIMT emulator (the input collector)."""

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.isa import KernelBuilder
from repro.trace import EmulatorError, MemoryImage, OpCode, emulate
from repro.trace.trace_types import NO_DEP


def emulate_one(build_fn, n_threads=32, block_size=32, memory=None):
    b = KernelBuilder("k")
    build_fn(b)
    b.exit()
    kernel = b.build(n_threads=n_threads, block_size=block_size)
    return emulate(kernel, GPUConfig(), memory=memory)


class TestTraceShape:
    def test_one_warp_per_32_threads(self):
        trace = emulate_one(lambda b: b.mov(1.0), n_threads=128, block_size=64)
        assert trace.n_warps == 4
        assert trace.n_blocks == 2
        assert [w.block_id for w in trace.warps] == [0, 0, 1, 1]

    def test_every_instruction_recorded(self):
        trace = emulate_one(lambda b: (b.mov(1.0), b.mov(2.0)))
        warp = trace.warps[0]
        assert len(warp) == 3  # two movs + exit
        assert warp.ops[-1] == OpCode.EXIT

    def test_partial_last_warp(self):
        b = KernelBuilder("k")
        b.tid()
        b.exit()
        kernel = b.build(n_threads=48, block_size=48)
        trace = emulate(kernel, GPUConfig())
        assert trace.n_warps == 2
        assert trace.warps[1].active[0] == 16


class TestDependencies:
    def test_chain_dependencies(self):
        def build(b):
            a = b.mov(1.0)
            c = b.fmul(a, 2.0)
            b.fadd(c, 1.0)

        warp = emulate_one(build).warps[0]
        assert warp.deps[1][0] == 0
        assert warp.deps[2][0] == 1

    def test_no_dep_on_immediates_and_specials(self):
        warp = emulate_one(lambda b: b.iadd(b.tid(), 5)).warps[0]
        assert warp.deps[0][0] == NO_DEP  # mov %tid
        assert warp.deps[1][0] == 0  # iadd depends on the mov

    def test_store_depends_on_address_and_value(self):
        def build(b):
            addr = b.iadd(b.tid(), 0x1000)  # 0: tid, 1: iadd
            value = b.fadd(2.0, 3.0)  # 2
            b.st(addr, value)  # 3

        warp = emulate_one(build).warps[0]
        deps = set(warp.deps[3].tolist()) - {NO_DEP}
        assert deps == {1, 2}

    def test_last_writer_wins(self):
        def build(b):
            acc = b.mov(0.0)  # 0
            b.fadd(acc, 1.0, dst=acc)  # 1
            b.fadd(acc, 1.0, dst=acc)  # 2

        warp = emulate_one(build).warps[0]
        assert warp.deps[2][0] == 1

    def test_duplicate_producers_deduplicated(self):
        def build(b):
            a = b.mov(3.0)
            b.fmul(a, a)

        warp = emulate_one(build).warps[0]
        deps = [d for d in warp.deps[1] if d != NO_DEP]
        assert deps == [0]


class TestMemoryInstructions:
    def test_coalesced_load_one_request(self):
        def build(b):
            b.ld(b.iadd(b.imul(b.tid(), 4), 0x10000))

        warp = emulate_one(build).warps[0]
        load = np.flatnonzero(warp.ops == OpCode.LOAD)[0]
        assert warp.n_requests(load) == 1

    def test_divergent_load_32_requests(self):
        def build(b):
            b.ld(b.imul(b.tid(), 512))

        warp = emulate_one(build).warps[0]
        load = np.flatnonzero(warp.ops == OpCode.LOAD)[0]
        assert warp.n_requests(load) == 32

    def test_masked_load_requests_only_active_lanes(self):
        def build(b):
            pred = b.setp_lt(b.lane(), 4)
            with b.if_(pred):
                b.ld(b.imul(b.tid(), 512))

        warp = emulate_one(build).warps[0]
        load = np.flatnonzero(warp.ops == OpCode.LOAD)[0]
        assert warp.n_requests(load) == 4
        assert warp.active[load] == 4

    def test_loaded_values_come_from_image(self):
        image = MemoryImage()
        image.add_constant_region(0, 1 << 20, 5.0)

        def build(b):
            x = b.ld(b.imul(b.tid(), 4))
            b.st(b.imul(b.tid(), 4), b.fmul(x, 2.0), offset=1 << 21)

        trace = emulate_one(build, memory=image)
        assert trace.warps[0].n_insts > 0  # executed fine

    def test_store_then_load_roundtrip(self):
        image = MemoryImage(track_stores=True)

        def build(b):
            addr = b.imul(b.tid(), 4)
            b.st(addr, 42.0)
            loaded = b.ld(addr)
            # Store the reloaded value somewhere else; if RAW through
            # memory works this equals 42.
            b.st(addr, loaded, offset=1 << 21)

        emulate_one(build, memory=image)
        values = image.read(np.array([(1 << 21)], dtype=np.int64))
        assert values[0] == 42.0


class TestControlFlow:
    def test_if_masks_body(self):
        def build(b):
            pred = b.setp_lt(b.lane(), 8)
            with b.if_(pred):
                b.fadd(1.0, 2.0)

        warp = emulate_one(build).warps[0]
        body = np.flatnonzero(warp.ops == OpCode.FALU)[0]
        assert warp.active[body] == 8

    def test_divergent_loop_trip_counts(self):
        def build(b):
            lane = b.lane()
            count = b.mov(0)
            head = b.loop_begin()
            b.iadd(count, 1, dst=count)
            pred = b.setp_lt(count, lane)
            b.loop_end(head, pred)

        warp = emulate_one(build).warps[0]
        # Loop body executes max(1, lane) times for the longest lane (31),
        # and the active count shrinks by one each iteration after lane k
        # retires.
        body_actives = warp.active[warp.ops == OpCode.IALU]
        assert body_actives[0] == 32
        assert body_actives[-1] == 1

    def test_uniform_branch_no_divergence(self):
        def build(b):
            pred = b.setp_lt(b.lane(), 100)  # all true
            with b.if_(pred):
                b.fadd(1.0, 2.0)

        warp = emulate_one(build).warps[0]
        assert (warp.active == 32).all()

    def test_reconvergence_restores_mask(self):
        def build(b):
            pred = b.setp_lt(b.lane(), 3)
            with b.if_(pred):
                b.fadd(1.0, 2.0)
            b.fmul(2.0, 2.0)  # after reconvergence

        warp = emulate_one(build).warps[0]
        falu = np.flatnonzero(warp.ops == OpCode.FALU)
        assert warp.active[falu[0]] == 3
        assert warp.active[falu[1]] == 32

    def test_runaway_loop_detected(self):
        def build(b):
            pred = b.setp_lt(b.mov(0), 1)  # always true
            head = b.loop_begin()
            b.iadd(1, 1)
            b.loop_end(head, pred)

        b = KernelBuilder("runaway")
        build(b)
        b.exit()
        kernel = b.build(32, 32)
        with pytest.raises(EmulatorError):
            emulate(kernel, GPUConfig(), max_warp_insts=1000)


class TestUnusableAddresses:
    """An active lane whose address base is not finite, or whose address
    is negative, fails the emulation under either backend: it must not
    touch the mirrored positive address or an arbitrary one."""

    @pytest.mark.parametrize("scalar", ["1", "0"])
    @pytest.mark.parametrize(
        "base, offset, what",
        [
            (-64.0, 0, "negative base"),
            (8.0, -64, "negative after the offset"),
            (float("nan"), 0, "NaN"),
            (float("inf"), 0, "infinite"),
        ],
    )
    @pytest.mark.parametrize("op", ["ld", "st", "lds", "sts"])
    def test_raises_naming_warp_pc_and_lane(
        self, monkeypatch, scalar, base, offset, what, op
    ):
        monkeypatch.setenv("REPRO_SCALAR", scalar)
        b = KernelBuilder("bad_address")
        # Only lane 5 of warp 1 computes the bad base.
        bad = b.setp_eq(b.tid(), 37)
        addr = b.fadd(b.fmul(b.mov(1.0), 0.0), 128.0)
        with b.if_(bad):
            b.mov(base, dst=addr)
        pc = b.pc
        if op in ("ld", "lds"):
            getattr(b, op)(addr, offset=offset)
        else:
            getattr(b, op)(addr, 1.0, offset=offset)
        b.exit()
        kernel = b.build(n_threads=64, block_size=64)
        with pytest.raises(EmulatorError, match="warp 1, pc %d, lane 5" % pc):
            emulate(kernel, GPUConfig())

    @pytest.mark.parametrize("scalar", ["1", "0"])
    def test_inactive_lanes_may_hold_anything(self, monkeypatch, scalar):
        monkeypatch.setenv("REPRO_SCALAR", scalar)
        b = KernelBuilder("masked_bad_address")
        addr = b.imul(b.tid(), 4)
        with b.if_(b.setp_eq(b.tid(), 37)):
            b.mov(-64.0, dst=addr)
        with b.if_(b.setp_ne(b.tid(), 37)):
            b.ld(addr)
        b.exit()
        kernel = b.build(n_threads=64, block_size=64)
        assert emulate(kernel, GPUConfig()).total_insts > 0


class TestArithmetic:
    def test_division_by_zero_safe(self):
        def build(b):
            b.idiv(b.tid(), 0)
            b.imod(b.tid(), 0)
            b.frcp(b.mov(0.0))
            b.flog(b.mov(0.0))
            b.frsqrt(b.mov(0.0))
            b.fexp(b.mov(1e9))

        trace = emulate_one(build)
        assert trace.warps[0].n_insts > 0  # no crash, all values finite
