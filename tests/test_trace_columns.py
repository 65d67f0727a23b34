"""The columnar trace: launch-wide columns, per-warp views on demand.

A :class:`KernelTrace` stores a launch once, as warp-major columns with
per-warp offsets.  Its :class:`WarpTrace` objects are views into those
columns, made on first access for the consumers that walk one warp at a
time.  The model stages and the timing oracle read the columns, so a
cold prediction or evaluation builds no view at all, and a stored trace
pickles as its columns alone.  The
interval profiles are columnar the same way: clustering reads their
columns and builds the representative's :class:`IntervalProfile` view
only.
"""

import pickle

import numpy as np
import pytest

from repro.config import GPUConfig
from repro.core.interval import IntervalProfile
from repro.pipeline import Pipeline
from repro.trace.emulator import emulate
from repro.trace.trace_types import KernelTrace, WarpTrace
from repro.workloads import Scale
from repro.workloads.suite import SUITE

from tests.test_interval import pickled_objects

CONFIG = GPUConfig.small(n_cores=2, warps_per_core=8)

#: Per-warp columns a view slices out of the launch columns.
SLICED = ("pcs", "ops", "deps", "active", "conflict")


def suite_trace(name, scale):
    kernel, memory = SUITE[name].build(scale)
    return emulate(kernel, CONFIG, memory=memory)


class TestTraceArtifact:
    def test_pickles_as_a_fixed_number_of_arrays(self):
        small = suite_trace("vectoradd", Scale.tiny())
        large = suite_trace("sgemm_tile", Scale.small())
        assert large.n_warps > small.n_warps
        assert large.total_insts > 10 * small.total_insts
        for trace in (small, large):
            trace.warps[0]  # a cached view must not travel with it
            counts = pickled_objects(trace)
            # 7 instruction and request columns, warp offsets, warp ids
            # and block ids; nothing per warp.
            assert counts[np.ndarray] == len(KernelTrace.COLUMNS) == 10
            assert WarpTrace not in counts
            copy = pickle.loads(pickle.dumps(trace))
            for name in KernelTrace.COLUMNS:
                a, b = getattr(trace, name), getattr(copy, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_views_slice_the_launch_columns(self):
        trace = suite_trace("bfs_kernel1", Scale.tiny())
        offsets = trace.warp_offsets
        for index, warp in enumerate(trace.warps):
            assert warp is trace.warps[index]  # one view per warp
            assert warp.warp_id == trace.warp_ids[index]
            assert warp.block_id == trace.block_ids[index]
            start, stop = offsets[index:index + 2].tolist()
            for name in SLICED:
                assert np.array_equal(
                    getattr(warp, name), getattr(trace, name)[start:stop]
                )
            # Request offsets are rebased to the warp's own lines.
            launch = trace.req_offsets[start:stop + 1]
            assert warp.req_offsets[0] == 0
            assert np.array_equal(warp.req_offsets, launch - launch[0])
            assert np.array_equal(
                warp.req_lines, trace.req_lines[launch[0]:launch[-1]]
            )
        assert sum(len(w) for w in trace.warps) == trace.total_insts
        assert sum(len(w.req_lines) for w in trace.warps) == (
            trace.total_requests
        )


class TestViewWorkGuard:
    """Views are for per-warp consumers only: a cold prediction, a cold
    oracle run and a cold evaluation read the columns and construct no
    WarpTrace (zero tolerance)."""

    @pytest.mark.parametrize("kernel", ["sgemm_tile", "bfs_kernel1"])
    def test_cold_predict_builds_no_warp_trace(self, monkeypatch, kernel):
        built = []
        init = WarpTrace.__init__

        def counted(warp, *args, **kwargs):
            built.append(1)
            init(warp, *args, **kwargs)

        monkeypatch.setattr(WarpTrace, "__init__", counted)
        pipeline = Pipeline(CONFIG, scale=Scale.tiny())
        assert pipeline.predict(kernel).cpi > 0
        assert pipeline.counters["trace"] == 1
        assert len(built) == 0

    @pytest.mark.parametrize("kernel", ["vectoradd", "sgemm_tile",
                                        "bfs_kernel1"])
    @pytest.mark.parametrize("call", ["simulate", "evaluate"])
    def test_cold_oracle_builds_no_warp_trace(self, monkeypatch, call,
                                              kernel):
        built = []
        init = WarpTrace.__init__

        def counted(warp, *args, **kwargs):
            built.append(1)
            init(warp, *args, **kwargs)

        monkeypatch.setattr(WarpTrace, "__init__", counted)
        pipeline = Pipeline(CONFIG, scale=Scale.tiny())
        result = getattr(pipeline, call)(kernel)
        cpi = result.cpi if call == "simulate" else result.oracle_cpi
        assert cpi > 0
        assert pipeline.counters["trace"] == 1
        assert pipeline.counters["oracle"] == 1
        assert len(built) == 0

    @pytest.mark.parametrize("kernel", ["sgemm_tile", "bfs_kernel1"])
    def test_cold_clustering_builds_only_the_representative_view(
        self, monkeypatch, kernel
    ):
        built = []
        init = IntervalProfile.__init__

        def counted(profile, *args, **kwargs):
            built.append(1)
            init(profile, *args, **kwargs)

        monkeypatch.setattr(IntervalProfile, "__init__", counted)
        pipeline = Pipeline(CONFIG, scale=Scale.tiny())
        assert pipeline.predict(kernel).cpi > 0
        assert pipeline.counters["clustering"] == 1
        assert pipeline.trace(kernel).n_warps > 1
        assert len(built) == 1
