"""Tests for residency-wave construction in the cache simulator and
block-granular residency in the oracle."""


from repro.config import GPUConfig
from repro.isa import KernelBuilder
from repro.memory.cache_simulator import _resident_waves, simulate_caches
from repro.trace import emulate


def kernel_with_blocks(n_blocks, block_size=64):
    b = KernelBuilder("blocks")
    b.ld(b.iadd(b.imul(b.tid(), 4), 0x100000))
    b.exit()
    return b.build(n_threads=n_blocks * block_size, block_size=block_size)


class TestResidentWaves:
    def waves_for(self, n_blocks, n_cores, warps_per_core):
        config = GPUConfig.small(n_cores=n_cores,
                                 warps_per_core=warps_per_core)
        trace = emulate(kernel_with_blocks(n_blocks), config)
        return _resident_waves(trace, config), trace

    def test_single_wave_when_everything_fits(self):
        waves, trace = self.waves_for(n_blocks=4, n_cores=2, warps_per_core=8)
        # 2 blocks x 2 warps per core: fits in 8 slots -> one wave each.
        assert [len(core_waves) for core_waves in waves] == [1, 1]

    def test_waves_split_at_capacity(self):
        waves, trace = self.waves_for(n_blocks=8, n_cores=2, warps_per_core=4)
        # 4 blocks (8 warps) per core, 4 slots -> 2 waves of 2 blocks.
        for core_waves in waves:
            assert len(core_waves) == 2
            assert all(len(wave) == 4 for wave in core_waves)

    def test_every_warp_appears_exactly_once(self):
        waves, trace = self.waves_for(n_blocks=6, n_cores=2, warps_per_core=4)
        seen = [w for core_waves in waves for wave in core_waves for w in wave]
        assert sorted(seen) == list(range(trace.n_warps))

    def test_block_never_split_across_waves(self):
        waves, trace = self.waves_for(n_blocks=8, n_cores=2, warps_per_core=4)
        for core_waves in waves:
            for wave in core_waves:
                blocks = {trace.warps[w].block_id for w in wave}
                for other_wave in core_waves:
                    if other_wave is wave:
                        continue
                    assert blocks.isdisjoint(
                        {trace.warps[w].block_id for w in other_wave}
                    )

    def test_oversized_block_still_placed(self):
        # A block larger than the residency limit must still get a wave.
        config = GPUConfig.small(n_cores=1, warps_per_core=2)
        trace = emulate(kernel_with_blocks(1, block_size=128), config)
        waves = _resident_waves(trace, config)
        assert sum(len(w) for w in waves[0]) == trace.n_warps


class TestResidencyAffectsMissRates:
    def test_fewer_resident_warps_shorter_reuse_distances(self):
        """A gather over an L1-sized table: with few resident warps the
        replay stays L1-friendly; interleaving the whole launch thrashes."""
        b = KernelBuilder("gather")
        tid = b.tid()
        # Pseudo-random gather over a 24 KB table (fits the 32 KB L1 only
        # if the interleaved working set stays small).
        index = b.imod(b.imul(tid, 2654435761 % 6001), 6144)
        for i in range(4):
            b.ld(b.iadd(b.imul(index, 4), 0x100000), offset=i * 8)
        b.exit()
        kernel = b.build(n_threads=64 * 64, block_size=64)
        config = GPUConfig.small(n_cores=1, warps_per_core=8)
        trace = emulate(kernel, config)
        resident = simulate_caches(trace, config)
        whole_launch = simulate_caches(
            trace, GPUConfig.small(n_cores=1, warps_per_core=10_000)
        )
        assert resident.l1_miss_rate <= whole_launch.l1_miss_rate
