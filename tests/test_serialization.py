"""Tests for trace persistence and the DRAM channel extension."""

import os

import numpy as np
import pytest

from repro.config import ConfigError, GPUConfig
from repro.memory.dram import DRAMSystem
from repro.pipeline.stages import trace_digest
from repro.timing import TimingSimulator
from repro.trace import emulate, load_trace, save_trace
from repro.trace.serialization import COLUMN_DTYPES, TraceFormatError

from tests.conftest import build_divergent_load, build_saxpy


class TestTraceSerialization:
    def roundtrip(self, kernel, tmp_path):
        config = GPUConfig.small()
        trace = emulate(kernel, config)
        path = os.path.join(tmp_path, "trace.npz")
        save_trace(trace, path)
        return trace, load_trace(path)

    def test_roundtrip_preserves_everything(self, tmp_path):
        original, loaded = self.roundtrip(build_saxpy(), tmp_path)
        assert loaded.kernel_name == original.kernel_name
        assert loaded.warp_size == original.warp_size
        assert loaded.line_size == original.line_size
        assert loaded.n_blocks == original.n_blocks
        assert loaded.n_warps == original.n_warps
        for a, b in zip(original.warps, loaded.warps):
            assert a.warp_id == b.warp_id and a.block_id == b.block_id
            assert np.array_equal(a.pcs, b.pcs)
            assert np.array_equal(a.ops, b.ops)
            assert np.array_equal(a.deps, b.deps)
            assert np.array_equal(a.active, b.active)
            assert np.array_equal(a.req_offsets, b.req_offsets)
            assert np.array_equal(a.req_lines, b.req_lines)

    def test_loaded_trace_simulates_identically(self, tmp_path):
        config = GPUConfig.small(n_cores=2, warps_per_core=4)
        original, loaded = self.roundtrip(
            build_divergent_load(n_threads=256, block_size=64), tmp_path
        )
        a = TimingSimulator(config).run(original)
        b = TimingSimulator(config).run(loaded)
        assert a.total_cycles == b.total_cycles
        assert a.total_insts == b.total_insts

    def test_rejects_non_trace_archive(self, tmp_path):
        path = os.path.join(tmp_path, "other.npz")
        np.savez(path, data=np.arange(4))
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_rejects_wrong_version(self, tmp_path):
        import json

        path = os.path.join(tmp_path, "old.npz")
        header = json.dumps({"format_version": 999}).encode()
        np.savez(path, header=np.frombuffer(header, dtype=np.uint8))
        with pytest.raises(TraceFormatError):
            load_trace(path)


def roundtrip_saxpy(tmp_path, mutate=None):
    """Save saxpy's trace, let ``mutate`` edit the archive's arrays,
    and load it back."""
    trace = emulate(build_saxpy(), GPUConfig.small())
    path = os.path.join(tmp_path, "trace.npz")
    save_trace(trace, path)
    if mutate is not None:
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        mutate(arrays)
        np.savez(path, **arrays)
    return trace, load_trace(path)


class TestDtypeStability:
    """Archives must round-trip the canonical column dtypes exactly —
    the content-addressed store hashes raw column bytes, so any drift
    silently forks the artifact cache."""

    def roundtrip(self, tmp_path, mutate=None):
        return roundtrip_saxpy(tmp_path, mutate)

    def test_roundtrip_preserves_dtypes_and_shapes(self, tmp_path):
        original, loaded = self.roundtrip(tmp_path)
        for a, b in zip(original.warps, loaded.warps):
            for name, spec in COLUMN_DTYPES.items():
                column = getattr(b, name)
                assert column.dtype == spec, name
                assert column.shape == getattr(a, name).shape, name

    def test_digest_survives_roundtrip(self, tmp_path):
        original, loaded = self.roundtrip(tmp_path)
        assert trace_digest(loaded) == trace_digest(original)

    def test_foreign_widths_are_normalized(self, tmp_path):
        # A hand-built archive using platform-default ints (e.g. pcs as
        # int64) must load as the canonical columns — same digest.
        def widen(arrays):
            arrays["w0_pcs"] = arrays["w0_pcs"].astype(np.int64)
            arrays["w0_active"] = arrays["w0_active"].astype(np.int32)

        original, loaded = self.roundtrip(tmp_path, mutate=widen)
        assert loaded.warps[0].pcs.dtype == np.dtype(np.int32)
        assert loaded.warps[0].active.dtype == np.dtype(np.int16)
        assert trace_digest(loaded) == trace_digest(original)

    def test_rejects_values_that_do_not_fit(self, tmp_path):
        def overflow(arrays):
            pcs = arrays["w0_pcs"].astype(np.int64)
            pcs[0] = 2**40  # does not survive the cast to int32
            arrays["w0_pcs"] = pcs

        with pytest.raises(TraceFormatError):
            self.roundtrip(tmp_path, mutate=overflow)

    def test_rejects_missing_column(self, tmp_path):
        def drop(arrays):
            del arrays["w0_deps"]

        with pytest.raises(TraceFormatError):
            self.roundtrip(tmp_path, mutate=drop)


def shift_offsets(arrays):
    """Every offset one higher and one more line: only the start is off."""
    arrays["w0_req_offsets"] = arrays["w0_req_offsets"] + 1
    lines = arrays["w0_req_lines"]
    arrays["w0_req_lines"] = np.append(lines, lines[-1])


def raise_an_offset(arrays):
    """Start and end intact, but the offsets fall after entry 1."""
    offsets = arrays["w0_req_offsets"].copy()
    offsets[1] = offsets[-1] + 1
    arrays["w0_req_offsets"] = offsets


def add_a_line(arrays):
    """One line no offset covers: the offsets end short of the lines."""
    lines = arrays["w0_req_lines"]
    arrays["w0_req_lines"] = np.append(lines, lines[-1])


class TestLinkValidation:
    """Producer indices and request offsets the model cannot use are
    rejected where an archive is loaded, not deep inside a stage."""

    @pytest.mark.parametrize(
        "producer",
        [lambda n: n - 1, lambda n: n, lambda n: 1, lambda n: -2],
        ids=["later", "past-the-end", "itself", "negative"],
    )
    def test_rejects_a_producer_that_is_not_earlier(self, tmp_path,
                                                    producer):
        def mutate(arrays):
            # Instruction 1 of warp 0 of saxpy (10 instructions).
            deps = arrays["w0_deps"].copy()
            deps[1, 0] = producer(len(arrays["w0_pcs"]))
            arrays["w0_deps"] = deps

        with pytest.raises(TraceFormatError, match="depends on"):
            roundtrip_saxpy(tmp_path, mutate)

    @pytest.mark.parametrize(
        "mutate",
        [shift_offsets, raise_an_offset, add_a_line],
        ids=["not-from-zero", "decreasing", "not-to-the-end"],
    )
    def test_rejects_offsets_that_do_not_cover_the_lines(self, tmp_path,
                                                         mutate):
        with pytest.raises(TraceFormatError, match="req_offsets"):
            roundtrip_saxpy(tmp_path, mutate)


class TestDRAMChannels:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GPUConfig(n_dram_channels=0)

    def test_single_channel_matches_plain_queue(self):
        from repro.memory.dram import DRAMQueue

        system = DRAMSystem(2.0, 1, 128)
        queue = DRAMQueue(2.0)
        for arrival, line in [(0.0, 0), (0.0, 128), (5.0, 4096)]:
            assert system.enqueue(arrival, line) == queue.enqueue(arrival)

    def test_interleaving_splits_by_line(self):
        system = DRAMSystem(1.0, 4, 128)
        assert system.channel_of(0) == 0
        assert system.channel_of(128) == 1
        assert system.channel_of(512) == 0
        # Requests to different channels do not queue behind each other.
        a = system.enqueue(0.0, 0)
        b = system.enqueue(0.0, 128)
        assert a == b  # both start immediately on their own channel

    def test_per_channel_service_slower(self):
        # Same aggregate bandwidth: each of 4 channels is 4x slower.
        one = DRAMSystem(1.0, 1, 128)
        four = DRAMSystem(1.0, 4, 128)
        assert four.enqueue(0.0, 0) == pytest.approx(4 * one.enqueue(0.0, 0))

    def test_aggregate_stats(self):
        system = DRAMSystem(1.0, 2, 128)
        system.enqueue(0.0, 0)
        system.enqueue(0.0, 128)
        assert system.n_requests == 2
        assert system.mean_queue_delay == 0.0
        assert 0.0 < system.utilization(10.0) <= 1.0

    def test_oracle_runs_with_channels(self):
        config = GPUConfig.small(n_cores=1, warps_per_core=4).with_(
            n_dram_channels=4
        )
        trace = emulate(build_divergent_load(128, 64), config)
        stats = TimingSimulator(config).run(trace)
        assert stats.total_insts == trace.total_insts

    def test_model_wait_scales_with_channels(self):
        from repro.core.contention import dram_queuing_delay

        one = GPUConfig.small()
        four = GPUConfig.small().with_(n_dram_channels=4)
        # Sub-saturation: same utilisation, slower servers -> longer wait.
        wait_one = dram_queuing_delay(50.0, 1000.0, one)
        wait_four = dram_queuing_delay(50.0, 1000.0, four)
        assert wait_four == pytest.approx(4 * wait_one)
