"""Temporal posting-pattern features.

Post timestamps are binned (in UTC) into hour-of-day or day-of-week
histograms; the boolean activity masks of the two accounts plus their
Jaccard similarity form the classifier input.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum

from .errors import MixedUserError, ModeMismatchError, SamePlatformError
from .profile_features import PairFeatureVector, Platform


class HistogramMode(str, Enum):
    HOUR_OF_DAY = "hod"
    DAY_OF_WEEK = "dow"

    @property
    def n_bins(self) -> int:
        return 24 if self is HistogramMode.HOUR_OF_DAY else 7


@dataclass(frozen=True, slots=True)
class PostEvent:
    """One timestamped piece of user-generated content."""

    platform: Platform
    user_id: str
    timestamp: datetime

    def __post_init__(self):
        if self.timestamp.tzinfo is None:
            raise ValueError("PostEvent timestamps must be timezone-aware")


@dataclass
class ActivityHistogram:
    mode: HistogramMode
    counts: list[int]

    def __post_init__(self):
        if len(self.counts) != self.mode.n_bins:
            raise ValueError(
                f"{self.mode.value} histogram needs {self.mode.n_bins} bins, "
                f"got {len(self.counts)}"
            )


@dataclass
class ActivityMask:
    mode: HistogramMode
    active: list[bool]


def build_histogram(events: list[PostEvent], mode: HistogramMode) -> ActivityHistogram:
    """Count events per UTC hour (24 bins) or ISO weekday (7 bins, Monday=0)."""
    accounts = {(e.platform, e.user_id) for e in events}
    if len(accounts) > 1:
        raise MixedUserError(f"events span {len(accounts)} accounts: {sorted(accounts)}")
    counts = [0] * mode.n_bins
    for e in events:
        utc = e.timestamp.astimezone(timezone.utc)
        if mode is HistogramMode.HOUR_OF_DAY:
            counts[utc.hour] += 1
        else:
            counts[utc.weekday()] += 1
    return ActivityHistogram(mode=mode, counts=counts)


def to_mask(histogram: ActivityHistogram) -> ActivityMask:
    """True wherever the account posted at least once in that bin."""
    return ActivityMask(
        mode=histogram.mode, active=[c > 0 for c in histogram.counts]
    )


def boolean_jaccard(x: ActivityMask, y: ActivityMask) -> float:
    """|x AND y| / |x OR y| over the active bins; two silent accounts
    share no evidence, so empty-vs-empty scores 0.0."""
    if x.mode is not y.mode:
        raise ModeMismatchError(f"{x.mode.value} vs {y.mode.value}")
    inter = sum(1 for xa, ya in zip(x.active, y.active) if xa and ya)
    union = sum(1 for xa, ya in zip(x.active, y.active) if xa or ya)
    if union == 0:
        return 0.0
    return inter / union


def extract_temporal_features(
    a_events: list[PostEvent],
    b_events: list[PostEvent],
    mode: HistogramMode,
    label: bool | None = None,
) -> PairFeatureVector:
    """Both accounts' activity masks (as 0/1 values) followed by their
    Jaccard similarity: 24+24+1 values for hour-of-day, 7+7+1 for
    day-of-week."""
    if a_events and b_events and a_events[0].platform == b_events[0].platform:
        raise SamePlatformError(
            f"both event streams are from {a_events[0].platform.value}"
        )
    mask_a = to_mask(build_histogram(a_events, mode))
    mask_b = to_mask(build_histogram(b_events, mode))
    values = (
        [1.0 if v else 0.0 for v in mask_a.active]
        + [1.0 if v else 0.0 for v in mask_b.active]
        + [boolean_jaccard(mask_a, mask_b)]
    )
    schema = (
        [f"a_{mode.value}_{i:02d}" for i in range(mode.n_bins)]
        + [f"b_{mode.value}_{i:02d}" for i in range(mode.n_bins)]
        + ["mask_jaccard"]
    )
    return PairFeatureVector(values=values, schema=schema, label=label)
