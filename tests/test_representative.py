"""Unit tests for representative-warp selection (Sec. III-C)."""

import pytest

from repro.core.interval import Interval, IntervalProfile
from repro.core.representative import feature_vectors, select_representative


def profile(warp_id, n_insts, stall):
    return IntervalProfile.from_intervals(
        warp_id, [Interval(n_insts=n_insts, stall_cycles=stall)]
    )


class TestFeatureVectors:
    def test_eq6_normalisation(self):
        profiles = [profile(0, 10, 10), profile(1, 10, 30)]
        features = feature_vectors(profiles)
        # perf: 0.5 and 0.25, mean 0.375; insts equal -> second column 1.
        assert features[0, 0] == pytest.approx(0.5 / 0.375)
        assert features[1, 0] == pytest.approx(0.25 / 0.375)
        assert features[:, 1] == pytest.approx([1.0, 1.0])

    def test_instruction_count_is_second_dimension(self):
        profiles = [profile(0, 10, 10), profile(1, 30, 30)]
        features = feature_vectors(profiles)
        assert features[0, 1] == pytest.approx(0.5)
        assert features[1, 1] == pytest.approx(1.5)


class TestSelection:
    def test_max_and_min(self):
        profiles = [profile(0, 10, 0), profile(1, 10, 90)]
        assert select_representative(profiles, "max").index == 0
        assert select_representative(profiles, "min").index == 1

    def test_first(self):
        profiles = [profile(0, 10, 0), profile(1, 10, 90)]
        assert select_representative(profiles, "first").index == 0

    def test_clustering_picks_majority(self):
        # Seven similar warps and one outlier: the representative must be
        # one of the majority.
        profiles = [profile(i, 10, 10) for i in range(7)]
        profiles.append(profile(7, 10, 400))
        selection = select_representative(profiles, "clustering")
        assert selection.index != 7
        assert selection.clustering is not None
        assert selection.warp_id == selection.profile.warp_id

    def test_clustering_single_warp(self):
        selection = select_representative([profile(0, 10, 10)])
        assert selection.index == 0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            select_representative([profile(0, 1, 1)], "median")

    def test_empty(self):
        with pytest.raises(ValueError):
            select_representative([])

    def test_homogeneous_warps_any_choice_fine(self):
        profiles = [profile(i, 20, 5) for i in range(8)]
        selection = select_representative(profiles)
        assert 0 <= selection.index < 8
