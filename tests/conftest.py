"""Shared fixtures: small machine configs and hand-built kernels."""

from __future__ import annotations

import pytest

from repro.config import GPUConfig
from repro.isa import KernelBuilder
from repro.trace import emulate
from repro.workloads import Scale


@pytest.fixture
def config():
    """A small 2-core machine, 8 warps/core — fast to simulate."""
    return GPUConfig.small(n_cores=2, warps_per_core=8)


@pytest.fixture
def one_core_config():
    """Single-core machine for exact-cycle assertions."""
    return GPUConfig.small(n_cores=1, warps_per_core=8)


@pytest.fixture
def tiny_scale():
    return Scale.tiny()


@pytest.fixture(scope="session")
def paper_pipeline():
    """The paper regime: 2 cores at 32 warps/core, ``Scale.small``."""
    from repro.pipeline import Pipeline

    return Pipeline(GPUConfig(n_cores=2), scale=Scale.small())


def build_saxpy(n_threads=128, block_size=64):
    """saxpy: two coalesced loads, an FMA, a coalesced store."""
    b = KernelBuilder("saxpy")
    tid = b.tid()
    offset = b.imul(tid, 4)
    x = b.ld(b.iadd(offset, 0x10000))
    y = b.ld(b.iadd(offset, 0x20000))
    b.st(b.iadd(offset, 0x30000), b.ffma(x, 2.0, y))
    b.exit()
    return b.build(n_threads=n_threads, block_size=block_size)


def build_divergent_load(n_threads=128, block_size=64, stride=512):
    """One fully divergent load per thread (stride >= line size)."""
    b = KernelBuilder("divload")
    tid = b.tid()
    addr = b.iadd(b.imul(tid, stride), 0x100000)
    value = b.ld(addr)
    b.st(addr, b.fadd(value, 1.0), offset=0x4000000)
    b.exit()
    return b.build(n_threads=n_threads, block_size=block_size)


def build_fp_chain(length=8, n_threads=64, block_size=64):
    """A dependent FP chain: every instruction stalls on the previous."""
    b = KernelBuilder("fpchain")
    acc = b.mov(1.0)
    for _ in range(length):
        acc = b.fmul(acc, 1.5, dst=acc)
    b.exit()
    return b.build(n_threads=n_threads, block_size=block_size)


@pytest.fixture
def saxpy_trace(config):
    return emulate(build_saxpy(), config)
