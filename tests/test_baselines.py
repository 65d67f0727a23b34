"""Unit tests for the Naive_Interval and Markov_Chain baselines."""

import pytest

from repro.baselines.markov import markov_chain_cpi, markov_warp_activation
from repro.baselines.naive import naive_interval_cpi
from repro.core.interval import Interval, IntervalProfile


def profile_of(intervals):
    return IntervalProfile.from_intervals(0, intervals)


class TestNaive:
    def test_eq1_inverse_scaling(self):
        profile = profile_of([Interval(n_insts=2, stall_cycles=38.0)])
        # single-warp CPI = 40/2 = 20; 4 warps -> 5.
        assert naive_interval_cpi(profile, 4) == pytest.approx(5.0)

    def test_cap_at_issue_rate(self):
        profile = profile_of([Interval(n_insts=2, stall_cycles=38.0)])
        assert naive_interval_cpi(profile, 1000) == 1.0

    def test_empty_profile(self):
        assert naive_interval_cpi(IntervalProfile(warp_id=0), 4) == 0.0

    def test_rejects_bad_warps(self):
        with pytest.raises(ValueError):
            naive_interval_cpi(profile_of([Interval(1, 1.0)]), 0)


class TestMarkov:
    def test_activation_probability(self):
        # p*M = 1 -> warp active half the time.
        assert markov_warp_activation(0.1, 10.0) == pytest.approx(0.5)
        assert markov_warp_activation(0.0, 10.0) == 1.0

    def test_never_stalling_warp_is_issue_bound(self):
        profile = profile_of([Interval(n_insts=50, stall_cycles=0.0)])
        assert markov_chain_cpi(profile, 8) == 1.0

    def test_single_warp_matches_formula(self):
        profile = profile_of([Interval(n_insts=10, stall_cycles=90.0)])
        # p = 1/10, M = 90: activation = 1/(1+9) = 0.1 -> IPC 0.1, CPI 10.
        assert markov_chain_cpi(profile, 1) == pytest.approx(10.0)

    def test_many_warps_approach_issue_bound(self):
        profile = profile_of([Interval(n_insts=10, stall_cycles=90.0)])
        cpis = [markov_chain_cpi(profile, n) for n in (1, 2, 8, 64)]
        assert cpis == sorted(cpis, reverse=True)
        assert cpis[-1] == pytest.approx(1.0, rel=2e-3)

    def test_cpi_always_at_least_one(self):
        profile = profile_of([Interval(n_insts=10, stall_cycles=5.0)])
        for n in (1, 4, 32, 256):
            assert markov_chain_cpi(profile, n) >= 1.0

    def test_trailing_stall_free_interval_not_counted(self):
        # One stalling interval plus the trailing one: p uses only the
        # stalling interval.
        profile = profile_of(
            [Interval(n_insts=5, stall_cycles=45.0),
             Interval(n_insts=5, stall_cycles=0.0)]
        )
        # p = 1/10, M = 45 -> a = 1/(1+4.5); CPI(1 warp) = 5.5.
        assert markov_chain_cpi(profile, 1) == pytest.approx(5.5)

    def test_rejects_bad_warps(self):
        with pytest.raises(ValueError):
            markov_chain_cpi(profile_of([Interval(1, 1.0)]), 0)

    def test_empty_profile(self):
        assert markov_chain_cpi(IntervalProfile(warp_id=0), 4) == 0.0
