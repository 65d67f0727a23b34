"""Golden equivalence of the scalar and vectorized hot-path backends.

The vectorized emulator / interval builder / cache replay are only
admissible because they are *bitwise* interchangeable with the scalar
reference loops: same trace columns, same interval profiles, same
cache-sim counters, same CPI stacks — and therefore the same
content-addressed store fingerprints.  This module pins that contract
over the entire workload suite; pickle-bytes equality is the strongest
practical form (the artifact store pickles artifacts wholesale, so
pickle equality *is* store-fingerprint equality).
"""

import os
import pickle
from contextlib import contextmanager

import numpy as np
import pytest

from repro.backend import SCALAR, SCALAR_ENV, VECTORIZED, current_backend
from repro.config import GPUConfig
from repro.core.interval import build_interval_profiles
from repro.core.latency import build_latency_table
from repro.memory.cache_simulator import simulate_caches
from repro.pipeline import Pipeline
from repro.pipeline.stages import trace_digest
from repro.trace.emulator import emulate
from repro.trace.trace_types import KernelTrace
from repro.workloads.generators import Scale
from repro.workloads.suite import SUITE, kernel_names

CONFIG = GPUConfig.small(n_cores=2, warps_per_core=8)
#: The other arch: interleaved reconvergence, two issue slots per core.
SUBCORE = CONFIG.with_(arch="subcore", n_schedulers=2)

#: Trace columns that must match bitwise, dtype and shape included.
COLUMNS = (
    "pcs", "ops", "deps", "active", "req_offsets", "req_lines", "conflict",
)


@contextmanager
def backend(scalar):
    """Force the scalar (or vectorized) backend within the block."""
    saved = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1" if scalar else "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(SCALAR_ENV, None)
        else:
            os.environ[SCALAR_ENV] = saved


def _artifacts(name, scalar):
    """trace → cache sim → latency table → profiles under one backend."""
    kernel, memory = SUITE[name].build(Scale.tiny())
    with backend(scalar):
        assert current_backend() == (SCALAR if scalar else VECTORIZED)
        trace = emulate(kernel, CONFIG, memory=memory)
        cache = simulate_caches(trace, CONFIG)
        table = build_latency_table(trace, cache, CONFIG)
        profiles = build_interval_profiles(
            trace, table, CONFIG.issue_rate
        )
    return trace, cache, profiles


class TestSuiteEquivalence:
    @pytest.mark.parametrize("name", kernel_names())
    def test_artifacts_bitwise_identical(self, name):
        strace, scache, sprofiles = _artifacts(name, scalar=True)
        vtrace, vcache, vprofiles = _artifacts(name, scalar=False)

        # Trace columns: bitwise values, exact dtypes, exact shapes.
        assert len(vtrace.warps) == len(strace.warps)
        for sw, vw in zip(strace.warps, vtrace.warps):
            assert vw.warp_id == sw.warp_id
            assert vw.block_id == sw.block_id
            for column in COLUMNS:
                a, b = getattr(sw, column), getattr(vw, column)
                assert b.dtype == a.dtype, (name, column)
                assert b.shape == a.shape, (name, column)
                assert np.array_equal(b, a), (name, column)
        # Launch-wide columns: the same bytes, dtypes and shapes.
        for column in KernelTrace.COLUMNS:
            a, b = getattr(strace, column), getattr(vtrace, column)
            assert b.dtype == a.dtype, (name, column)
            assert b.shape == a.shape, (name, column)
            assert np.array_equal(b, a), (name, column)
        # Views slice the columns rather than copying them.
        for trace in (strace, vtrace):
            for warp in trace.warps:
                for column in ("pcs", "ops", "deps", "req_lines"):
                    view = getattr(warp, column)
                    assert not len(view) or np.shares_memory(
                        view, getattr(trace, column)
                    ), (name, column)
        # Same content hash → same store fingerprints downstream.
        assert trace_digest(vtrace) == trace_digest(strace)

        # Cache-sim counters and interval profiles: pickle equality is
        # store-fingerprint equality (the store pickles wholesale).
        assert pickle.dumps(vcache) == pickle.dumps(scache)
        assert pickle.dumps(vprofiles) == pickle.dumps(sprofiles)


def _predictions_identical(name, config):
    """The whole trace → … → predict chain, under both backends."""
    stacks = {}
    for scalar in (True, False):
        with backend(scalar):
            pipeline = Pipeline(config, scale=Scale.tiny())
            stacks[scalar] = pipeline.predict(name)
    assert stacks[False].arch == config.arch
    assert pickle.dumps(stacks[False]) == pickle.dumps(stacks[True])


class TestCpiStackEquivalence:
    """``REPRO_SCALAR`` selects an implementation, never an answer —
    under either arch."""

    @pytest.mark.parametrize("name", kernel_names())
    def test_predictions_identical(self, name):
        _predictions_identical(name, CONFIG)

    @pytest.mark.parametrize("name", kernel_names())
    def test_subcore_predictions_identical(self, name):
        _predictions_identical(name, SUBCORE)


class TestBackendSelection:
    def test_env_selects_scalar(self):
        with backend(True):
            assert current_backend() == SCALAR
        with backend(False):
            assert current_backend() == VECTORIZED

    def test_empty_and_zero_mean_false(self, monkeypatch):
        for value in ("", "0", "false", "no"):
            monkeypatch.setenv(SCALAR_ENV, value)
            assert current_backend() == VECTORIZED
        monkeypatch.delenv(SCALAR_ENV)
        assert current_backend() == VECTORIZED
