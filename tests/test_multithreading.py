"""Unit tests for the multithreading model (Sec. IV-A, Fig. 2/8)."""

import pytest

from repro.baselines.naive import naive_interval_cpi
from repro.core.interval import Interval, IntervalProfile
from repro.core.multithreading import (
    model_multithreading,
    nonoverlapped_gto,
    nonoverlapped_rr,
)


def profile_of(intervals):
    return IntervalProfile.from_intervals(0, intervals)


class TestPaperFigure2:
    """Interval 1 of Fig. 2: 1 instruction + 10 stall cycles, 3 warps."""

    def test_naive_matches_paper(self):
        profile = profile_of([Interval(n_insts=1, stall_cycles=10.0)])
        # Paper: core IPC = 3/11 -> CPI per core-instruction = 11/3,
        # above the issue-bandwidth cap of 1.0.
        assert naive_interval_cpi(profile, 3) == pytest.approx(11 / 3)

    def test_rr_single_instruction_interval_has_no_waiting_slots(self):
        interval = Interval(n_insts=1, stall_cycles=10.0)
        assert nonoverlapped_rr(interval, issue_prob=1 / 11, n_warps=3) == 0.0

    def test_rr_equals_naive_when_no_waiting_slots(self):
        profile = profile_of([Interval(n_insts=1, stall_cycles=10.0)])
        result = model_multithreading(profile, 3, "rr")
        assert result.cpi == pytest.approx(11 / 3)


class TestPaperFigure8:
    """Fig. 8: one interval of 3 instructions + 6 stall cycles, 4 warps."""

    def interval(self):
        return Interval(n_insts=3, stall_cycles=6.0)

    def test_rr_nonoverlap_eq10_eq11(self):
        """Eq. 11 counts 2 where Fig. 8(a), which draws aligned warps,
        counts 6 (DESIGN.md)."""
        profile = profile_of([self.interval()])
        p = profile.issue_prob  # 3/9
        expected = p * (4 - 1) * (3 - 1)  # Eq. 11 with 2 waiting slots
        assert nonoverlapped_rr(self.interval(), p, 4) == pytest.approx(expected)
        assert nonoverlapped_rr(self.interval(), p, 4) == 2.0

    def test_rr_model_sums_eq11_per_interval(self):
        """Eq. 8 sums Eq. 11's 2 per interval over the profile."""
        profile = profile_of([self.interval()] * 3)
        result = model_multithreading(profile, 4, "rr")
        assert result.per_interval_nonoverlapped.tolist() == [2.0, 2.0, 2.0]
        assert result.total_nonoverlapped == 6.0

    def test_gto_nonoverlap_eq12_16(self):
        profile = profile_of([self.interval()])
        p = profile.issue_prob  # 1/3
        avg = profile.avg_interval_insts  # 3
        # issue_prob_in_stall = min(1/3 * 6, 1) = 1
        # issued_in_stall = 3 * (1 * 3) = 9; nonoverlap = max(9 - 6, 0) = 3.
        assert nonoverlapped_gto(
            self.interval(), p, 4, avg
        ) == pytest.approx(3.0)

    def test_gto_matches_figure_count(self):
        # The figure shows W3's 3 instructions not overlapping: 3.
        profile = profile_of([self.interval()])
        result = model_multithreading(profile, 4, "gto")
        assert result.total_nonoverlapped == pytest.approx(3.0)


class TestModelBehaviour:
    def test_single_warp_no_nonoverlap(self):
        profile = profile_of([Interval(n_insts=4, stall_cycles=20.0)])
        for policy in ("rr", "gto"):
            result = model_multithreading(profile, 1, policy)
            assert result.total_nonoverlapped == 0.0
            assert result.cpi == pytest.approx(profile.single_warp_cpi)

    def test_cpi_never_below_issue_bandwidth(self):
        profile = profile_of([Interval(n_insts=10, stall_cycles=5.0)])
        result = model_multithreading(profile, 64, "rr")
        assert result.cpi >= 1.0

    def test_more_warps_never_slower_per_core_inst(self):
        profile = profile_of(
            [Interval(n_insts=2, stall_cycles=30.0)] * 4
        )
        cpis = [
            model_multithreading(profile, n, "rr").cpi for n in (1, 2, 4, 8)
        ]
        assert cpis == sorted(cpis, reverse=True)

    def test_rr_at_least_naive(self):
        # Non-overlapped instructions only add cycles, and both CPIs are
        # floored at 1.0.
        profile = profile_of(
            [Interval(n_insts=5, stall_cycles=10.0)] * 3
        )
        for n in (2, 4, 8):
            rr = model_multithreading(profile, n, "rr").cpi
            assert rr >= naive_interval_cpi(profile, n) - 1e-12

    def test_gto_zero_stall_interval(self):
        interval = Interval(n_insts=5, stall_cycles=0.0)
        assert nonoverlapped_gto(interval, 0.5, 4, 5.0) == 0.0

    def test_stretch_factor(self):
        profile = profile_of([Interval(n_insts=1, stall_cycles=10.0)])
        result = model_multithreading(profile, 3, "rr")
        assert result.stretch == pytest.approx(result.cpi / 11.0)

    def test_invalid_args(self):
        profile = profile_of([Interval(n_insts=1, stall_cycles=1.0)])
        with pytest.raises(ValueError):
            model_multithreading(profile, 0, "rr")
        with pytest.raises(ValueError):
            model_multithreading(profile, 2, "lrr")
        with pytest.raises(ValueError):
            naive_interval_cpi(profile, 0)

    def test_naive_is_capped_at_issue_bandwidth(self):
        # Eq. 1 gives 20 / 640 at 64 warps; one instruction a cycle
        # caps it at 1.0.  Above the cap it is Eq. 1 as printed.
        profile = profile_of([Interval(n_insts=10, stall_cycles=10.0)])
        assert naive_interval_cpi(profile, 64) == 1.0
        assert naive_interval_cpi(profile, 1) == 2.0
