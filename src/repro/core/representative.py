"""Representative-warp selection (Sec. III-C of the paper).

Control-divergent kernels produce warps with very different interval
profiles; feeding a random warp to the multi-warp model can badly skew
the prediction.  GPUMech clusters all warps with k-means (k=2: a majority
cluster and an outlier cluster) over the feature vector of Eq. 6 —

    [ warp_perf / avg_warp_perf,  n_insts / avg_n_insts ]

— and picks the warp closest to the centre of the *largest* cluster.

The MAX and MIN strategies of Fig. 7 (pick the warp with the highest or
lowest single-warp IPC) are provided for the comparison experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.cpi_stack import CPIStack
from repro.core.interval import IntervalProfile, IntervalProfiles
from repro.core.kmeans import KMeansResult, kmeans


@dataclass
class RepresentativeSelection:
    """Outcome of representative-warp selection.

    The ``clustering`` stage artifact also carries everything else a
    prediction reads from upstream, so a prediction reads this artifact
    alone: the representative's
    :func:`~repro.core.cpi_stack.single_warp_stack` (it depends only on
    the profile and the latency table, so every prediction of the kernel
    scales this one stack), the latency table's average miss latency,
    and the kernel's name and launch geometry, from which
    :func:`~repro.core.model.resident_warps_per_core` derives the
    resident warps.  The stage sets the last four after selection; they
    have no defaults, so reading one from a selection that lacks it
    raises instead of predicting for a default launch.
    """

    index: int  # index into the profile list
    profile: IntervalProfile
    strategy: str
    features: np.ndarray  # (n_warps, 2) normalised feature vectors
    clustering: KMeansResult = None
    single_warp_stack: Optional[CPIStack] = None
    kernel_name: str = field(init=False)
    n_blocks: int = field(init=False)
    warps_per_block: int = field(init=False)
    avg_miss_latency: float = field(init=False)

    @property
    def warp_id(self) -> int:
        """Launch-wide id of the selected warp."""
        return self.profile.warp_id


def feature_vectors(profiles: Sequence[IntervalProfile]) -> np.ndarray:
    """Eq. 6: per-warp (performance, instruction count), mean-normalised.

    Both features come from the launch-wide interval columns (a plain
    list of profiles is packed into one :class:`IntervalProfiles`
    first), so no per-warp view is built.  Each value is bitwise the
    profile's own :attr:`~IntervalProfile.warp_perf` and
    :attr:`~IntervalProfile.n_insts`: instruction counts are integer
    sums, and each warp's stalls are added left to right, as
    :func:`~repro.core.interval.ordered_sum` adds them, by a row-wise
    ``np.add.accumulate`` over the stall column padded with zeros.
    """
    if not isinstance(profiles, IntervalProfiles):
        profiles = IntervalProfiles.from_profiles(profiles)
    columns, offsets = profiles.columns, profiles.offsets
    counts = np.diff(offsets)
    running = np.zeros(len(columns.n_insts) + 1, dtype=np.int64)
    np.cumsum(columns.n_insts, out=running[1:])
    n_insts = running[offsets[1:]] - running[offsets[:-1]]
    width = int(counts.max(initial=0))
    padded = np.zeros((len(counts), width))
    padded[np.arange(width) < counts[:, None]] = columns.stall_cycles
    # Trailing zeros leave a row's running sum as it was; the final
    # + 0.0 is ordered_sum's (it only turns -0.0 into +0.0).
    stalls = (
        np.add.accumulate(padded, axis=1)[:, -1] + 0.0 if width
        else np.zeros(len(counts))
    )
    cycles = n_insts + stalls
    perf = np.divide(
        n_insts, cycles, out=np.zeros(len(counts)), where=cycles != 0
    )
    insts = n_insts.astype(np.float64)
    avg_perf = perf.mean() if perf.mean() else 1.0
    avg_insts = insts.mean() if insts.mean() else 1.0
    return np.column_stack([perf / avg_perf, insts / avg_insts])


def select_representative(
    profiles: Sequence[IntervalProfile],
    strategy: str = "clustering",
) -> RepresentativeSelection:
    """Select the representative warp.

    ``strategy`` is one of ``"clustering"`` (the paper's method),
    ``"max"``, ``"min"`` (Fig. 7 comparators) or ``"first"`` (warp 0, a
    naive baseline).
    """
    if not profiles:
        raise ValueError("no warp profiles to select from")
    features = feature_vectors(profiles)

    if strategy == "max":
        index = int(np.argmax(features[:, 0]))
        return RepresentativeSelection(index, profiles[index], strategy, features)
    if strategy == "min":
        index = int(np.argmin(features[:, 0]))
        return RepresentativeSelection(index, profiles[index], strategy, features)
    if strategy == "first":
        return RepresentativeSelection(0, profiles[0], strategy, features)
    if strategy != "clustering":
        raise ValueError("unknown selection strategy %r" % strategy)

    if len(profiles) == 1:
        return RepresentativeSelection(
            0, profiles[0], strategy, features, clustering=None
        )
    result = kmeans(features, k=2)
    largest = result.largest_cluster
    members = np.flatnonzero(result.labels == largest)
    center = result.centers[largest]
    distances = ((features[members] - center) ** 2).sum(axis=1)
    index = int(members[int(np.argmin(distances))])
    return RepresentativeSelection(
        index, profiles[index], strategy, features, clustering=result
    )
