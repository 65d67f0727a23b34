"""Unit tests for the multithreading model (Sec. IV-A, Fig. 2/8)."""

import pytest

from repro.core.interval import Interval, IntervalProfile
from repro.core.multithreading import (
    model_multithreading,
    naive_multithreading_cpi,
    nonoverlapped_gto,
    nonoverlapped_rr,
    nonoverlapped_rr_lockstep,
)


def profile_of(intervals):
    return IntervalProfile.from_intervals(0, intervals)


class TestPaperFigure2:
    """Interval 1 of Fig. 2: 1 instruction + 10 stall cycles, 3 warps."""

    def test_naive_matches_paper(self):
        profile = profile_of([Interval(n_insts=1, stall_cycles=10.0)])
        # Paper: core IPC = 3/11 -> CPI per core-instruction = 11/3.
        assert naive_multithreading_cpi(profile, 3) == pytest.approx(11 / 3)

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
        profile = profile_of([self.interval()])
        p = profile.issue_prob  # 3/9
        expected = p * (4 - 1) * (3 - 1)  # Eq. 11 with 2 waiting slots
        assert nonoverlapped_rr(self.interval(), p, 4) == pytest.approx(expected)

    def test_rr_lockstep_matches_figure_8a_count(self):
        """The figure itself counts 6 non-overlapped instructions for the
        aligned case — the lockstep form reproduces it exactly."""
        assert nonoverlapped_rr_lockstep(self.interval(), 4) == pytest.approx(
            6.0
        )

    def test_rr_lockstep_matches_figure_2_ipc(self):
        """Fig. 2's interval 1 (1 inst + 10 stalls, 3 warps): IPC 3/11."""
        profile = profile_of([Interval(n_insts=1, stall_cycles=10.0)])
        result = model_multithreading(profile, 3, "rr", rr_mode="lockstep")
        assert result.cpi == pytest.approx(11 / 3)

    def test_blended_between_extremes(self):
        profile = profile_of([self.interval()] * 3)
        lock = model_multithreading(profile, 4, "rr", rr_mode="lockstep").cpi
        prob = model_multithreading(
            profile, 4, "rr", rr_mode="probabilistic"
        ).cpi
        blend = model_multithreading(profile, 4, "rr", rr_mode="blended").cpi
        low, high = min(lock, prob), max(lock, prob)
        assert low - 1e-12 <= blend <= high + 1e-12

    def test_blended_alignment_extremes(self):
        profile = profile_of([self.interval()] * 2)
        lock = model_multithreading(profile, 4, "rr", rr_mode="lockstep").cpi
        prob = model_multithreading(
            profile, 4, "rr", rr_mode="probabilistic"
        ).cpi
        aligned = model_multithreading(
            profile, 4, "rr", rr_mode="blended", alignment=1.0
        ).cpi
        staggered = model_multithreading(
            profile, 4, "rr", rr_mode="blended", alignment=0.0
        ).cpi
        assert aligned == pytest.approx(lock)
        assert staggered == pytest.approx(prob)

    def test_invalid_rr_mode(self):
        profile = profile_of([self.interval()])
        with pytest.raises(ValueError):
            model_multithreading(profile, 4, "rr", rr_mode="chaotic")

    def test_gto_nonoverlap_eq12_16(self):
        profile = profile_of([self.interval()])
        p = profile.issue_prob  # 1/3
        avg = profile.avg_interval_insts  # 3
        # issue_prob_in_stall = min(1/3 * 6, 1) = 1
        # issued_in_stall = 3 * (1 * 3) = 9; nonoverlap = max(9 - 6, 0) = 3.
        assert nonoverlapped_gto(
            self.interval(), p, 4, avg, 1.0
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
        # Non-overlapped instructions only add cycles.
        profile = profile_of(
            [Interval(n_insts=5, stall_cycles=10.0)] * 3
        )
        for n in (2, 4, 8):
            rr = model_multithreading(profile, n, "rr").cpi
            assert rr >= naive_multithreading_cpi(profile, n) - 1e-12

    def test_gto_zero_stall_interval(self):
        interval = Interval(n_insts=5, stall_cycles=0.0)
        assert nonoverlapped_gto(interval, 0.5, 4, 5.0, 1.0) == 0.0

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
            naive_multithreading_cpi(profile, 0)

    def test_naive_cap_optional(self):
        from repro.baselines.naive import naive_interval_cpi

        profile = profile_of([Interval(n_insts=10, stall_cycles=10.0)])
        capped = naive_interval_cpi(profile, 64)
        uncapped = naive_interval_cpi(profile, 64, cap_at_issue_rate=False)
        assert capped == 1.0
        assert uncapped == pytest.approx(20.0 / 640.0)
