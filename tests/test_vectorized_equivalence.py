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
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.interval_vec as interval_vec
from repro.backend import SCALAR, SCALAR_ENV, VECTORIZED, current_backend
from repro.config import GPUConfig
from repro.core.interval import build_interval_profiles, issue_stalls
from repro.core.latency import build_latency_table
from repro.isa import KernelBuilder
from repro.memory.cache_simulator import simulate_caches
from repro.pipeline import Pipeline
from repro.pipeline.stages import trace_digest
from repro.trace.emulator import emulate
from repro.trace.emulator_vec import _Launch
from repro.trace.trace_types import MAX_DEPS, KernelTrace
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
        profiles = build_interval_profiles(trace, table)
    return trace, cache, profiles


def assert_same_columns(want: KernelTrace, got: KernelTrace, what):
    for column in KernelTrace.COLUMNS:
        a, b = getattr(want, column), getattr(got, column)
        assert b.dtype == a.dtype, (what, column)
        assert b.shape == a.shape, (what, column)
        assert np.array_equal(b, a), (what, column)


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
        assert_same_columns(strace, vtrace, name)
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


# ---------------------------------------------------------------------------
# Warp classes: the vectorized backends do per-warp work once per class
# ---------------------------------------------------------------------------

#: Suite kernels whose 192 warps fall into several warp classes at
#: ``Scale.small`` (48, 19, 15 and 14), and one whose warps form one.
MULTI_CLASS = ("mandelbrot", "bfs_parboil", "spmv_jds", "bfs_kernel1")
SINGLE_CLASS = "vectoradd"


def both_traces(build):
    """``build()``'s kernel and memory emulated by each backend, scalar
    first (each backend gets a fresh memory image)."""
    traces = []
    for scalar in (True, False):
        kernel, memory = build()
        with backend(scalar):
            traces.append(emulate(kernel, CONFIG, memory=memory))
    return traces


@pytest.fixture
def grouped_runs(monkeypatch):
    """Counts of the vectorized emulator entering grouped mode."""
    runs = []
    real = _Launch.run_grouped

    def counted(launch):
        runs.append(1)
        return real(launch)

    monkeypatch.setattr(_Launch, "run_grouped", counted)
    return runs


class TestWarpClassEquivalence:
    @pytest.mark.parametrize("name", MULTI_CLASS + (SINGLE_CLASS,))
    def test_small_scale_bitwise_identical(self, name):
        strace, vtrace = both_traces(
            lambda: SUITE[name].build(Scale.small())
        )
        assert vtrace.n_warps == 192
        assert_same_columns(strace, vtrace, name)
        table = build_latency_table(
            vtrace, simulate_caches(vtrace, CONFIG), CONFIG
        )
        profiles = []
        for scalar in (True, False):
            with backend(scalar):
                profiles.append(
                    build_interval_profiles(vtrace, table)
                )
        assert pickle.dumps(profiles[1]) == pickle.dumps(profiles[0])


def _kernel(body, n_threads):
    """A one-block hand-built kernel: ``body(b, tid)`` and an exit, with
    memory traffic and a scratchpad round trip first, so every
    instruction kind runs."""

    def build():
        b = KernelBuilder("hand")
        tid = b.tid()
        addr = b.imul(tid, 4)
        value = b.ld(addr, offset=4096)
        b.st(addr, b.fadd(value, 1.0), offset=8192)
        b.sts(addr, value)
        b.lds(b.imul(b.lane(), 8))
        body(b, tid)
        b.exit()
        return b.build(n_threads=n_threads, block_size=n_threads), None

    return build


def _warp_split(b, tid):
    # Whole warps go each way: warps 0-1 run the block, 2-3 skip it.
    with b.if_(b.setp_lt(b.warpid(), 2)):
        b.fmul(b.fadd(b.mov(1.0), 2.0), 3.0)
    b.fadd(1.0, 1.0)


def _lane_split(b, tid):
    with b.if_(b.setp_lt(b.lane(), 16)):
        b.fmul(b.fadd(b.mov(1.0), 2.0), 3.0)
    b.fadd(1.0, 1.0)


def _tid_loop(b, tid):
    # Trip count 1 + tid // 40: lanes of one warp leave the loop apart.
    limit = b.idiv(tid, 40)
    count = b.mov(0)
    head = b.loop_begin()
    b.iadd(count, 1, dst=count)
    b.loop_end(head, b.setp_le(count, limit))


def _barriers(b, tid):
    b.bar()
    b.fmul(b.mov(2.0), 3.0)
    b.bar()


class TestUniformModeExits:
    """The vectorized emulator leaves uniform mode at the first branch
    that splits warps or lanes; traces match the scalar loop on both
    sides of that step."""

    @pytest.mark.parametrize(
        "body, n_threads",
        [
            (_warp_split, 128),
            (_lane_split, 128),
            (_tid_loop, 80),  # the last warp holds 16 threads
        ],
        ids=["warps-split", "lanes-split", "partial-last-warp"],
    )
    def test_split_matches_scalar(self, body, n_threads, grouped_runs):
        strace, vtrace = both_traces(_kernel(body, n_threads))
        assert grouped_runs == [1]
        assert_same_columns(strace, vtrace, body.__name__)

    def test_warp_split_splits_no_warp(self, grouped_runs):
        _, vtrace = both_traces(_kernel(_warp_split, 128))
        assert grouped_runs == [1]
        assert (vtrace.active == 32).all()

    @pytest.mark.parametrize("n_threads", [128, 80])
    def test_barrier_and_exit_inside_the_mode(self, n_threads, grouped_runs):
        strace, vtrace = both_traces(_kernel(_barriers, n_threads))
        assert grouped_runs == []
        assert_same_columns(strace, vtrace, "barriers")
        assert vtrace.warps[-1].active[0] == (32 if n_threads == 128 else 16)


class TestWarpClassWork:
    """Zero-tolerance work guards: per-warp work runs once per class."""

    @pytest.mark.parametrize(
        "name, classes", [("sgemm_tile", 1), ("mandelbrot", 48)]
    )
    def test_recurrence_runs_once_per_warp_class(
        self, name, classes, monkeypatch
    ):
        runs = []

        def counted(*args):
            runs.append(1)
            return issue_stalls(*args)

        monkeypatch.setattr(interval_vec, "issue_stalls", counted)
        kernel, memory = SUITE[name].build(Scale.small())
        trace = emulate(kernel, CONFIG, memory=memory)
        table = build_latency_table(
            trace, simulate_caches(trace, CONFIG), CONFIG
        )
        build_interval_profiles(trace, table)
        assert trace.n_warps == 192
        assert len(runs) == classes

    @pytest.mark.parametrize(
        "name, grouped", [("sgemm_tile", []), ("mandelbrot", [1])]
    )
    def test_single_class_kernel_never_groups(
        self, name, grouped, grouped_runs
    ):
        kernel, memory = SUITE[name].build(Scale.small())
        emulate(kernel, CONFIG, memory=memory)
        assert grouped_runs == grouped


def padded_march(deps, lat):
    """The padded ``(warps, max_len, MAX_DEPS)`` Eq. 4 march that
    ``interval_vec._issue_clocks`` ran, one numpy step per position,
    before the builder ran the recurrence once per warp class; kept as
    the reference :func:`issue_stalls` must match."""
    n_warps, max_len = lat.shape
    issue = np.zeros((n_warps, max_len), dtype=np.float64)
    stall = np.zeros((n_warps, max_len), dtype=np.float64)
    cause = np.full((n_warps, max_len), -1, dtype=np.int32)
    rows = np.arange(n_warps)
    prev = np.full(n_warps, -1.0, dtype=np.float64)
    for k in range(max_len):
        earliest = prev + 1.0
        ready = earliest.copy()
        best = np.full(n_warps, -1, dtype=np.int32)
        for j in range(MAX_DEPS):
            dep = deps[:, k, j]
            valid = dep >= 0
            if not valid.any():
                continue
            clipped = np.where(valid, dep, 0)
            done = issue[rows, clipped] + lat[rows, clipped]
            update = valid & (done > ready)
            ready = np.where(update, done, ready)
            best = np.where(update, dep, best)
        issue[:, k] = ready
        stall[:, k] = ready - earliest
        cause[:, k] = best
        prev = ready
    return stall, cause


@st.composite
def producer_dags(draw):
    """One warp's producer rows (earlier instructions only, padded with
    -1) and latencies from a few values, so completion times tie."""
    n = draw(st.integers(1, 40))
    deps = np.full((n, MAX_DEPS), -1, dtype=np.int32)
    for k in range(1, n):
        producers = draw(st.lists(st.integers(0, k - 1), max_size=MAX_DEPS))
        deps[k, :len(producers)] = producers
    lat = draw(st.lists(
        st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]), min_size=n, max_size=n
    ))
    return deps, np.array(lat)


@settings(deadline=None, max_examples=200)
@given(st.lists(producer_dags(), min_size=1, max_size=4))
def test_recurrence_matches_the_padded_march(warps):
    max_len = max(len(lat) for _, lat in warps)
    deps = np.full((len(warps), max_len, MAX_DEPS), -1, dtype=np.int32)
    lat = np.zeros((len(warps), max_len))
    for w, (warp_deps, warp_lat) in enumerate(warps):
        deps[w, :len(warp_lat)] = warp_deps
        lat[w, :len(warp_lat)] = warp_lat
    want_stall, want_cause = padded_march(deps, lat)
    for w, (warp_deps, warp_lat) in enumerate(warps):
        n = len(warp_lat)
        stall, cause = issue_stalls(warp_deps.tolist(), warp_lat.tolist())
        assert np.array(stall).tobytes() == want_stall[w, :n].tobytes()
        assert cause == want_cause[w, :n].tolist()
