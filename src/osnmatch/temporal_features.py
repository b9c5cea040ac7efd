"""Temporal posting-pattern features.

Post timestamps are binned (in UTC) into hour-of-day or day-of-week
histograms; the boolean activity masks of the two accounts plus their
Jaccard similarity form the classifier input.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import MixedUserError, ModeMismatchError
from .profile_features import FeatureMatrix, Platform, per_account

if TYPE_CHECKING:
    from .dataset import Corpus


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


def build_histogram(events: list[PostEvent], mode: HistogramMode) -> np.ndarray:
    """Count events per UTC hour (24 bins) or ISO weekday (7 bins, Monday=0)."""
    accounts = {(e.platform, e.user_id) for e in events}
    if len(accounts) > 1:
        raise MixedUserError(f"events span {len(accounts)} accounts: {sorted(accounts)}")
    utc = [e.timestamp.astimezone(timezone.utc) for e in events]
    if mode is HistogramMode.HOUR_OF_DAY:
        bins = [t.hour for t in utc]
    else:
        bins = [t.weekday() for t in utc]
    return np.bincount(np.array(bins, dtype=np.int64), minlength=mode.n_bins)


def boolean_jaccard(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x AND y| / |x OR y| over the last axis (the bins) of two boolean
    activity masks; two silent accounts share no evidence, so
    empty-vs-empty scores 0.0."""
    if x.shape != y.shape:
        raise ModeMismatchError(f"masks of shape {x.shape} vs {y.shape}")
    inter = (x & y).sum(axis=-1)
    union = (x | y).sum(axis=-1)
    return np.divide(inter, union, out=np.zeros(union.shape), where=union > 0)


def extract_temporal_features(
    corpus: Corpus, pairs: Sequence[tuple], mode: HistogramMode
) -> FeatureMatrix:
    """Per (twitter_id, flickr_id, ...) pair, both accounts' activity masks
    (as 0/1 values) followed by their Jaccard similarity: 24+24+1 columns
    for hour-of-day, 7+7+1 for day-of-week. Each account's mask is built
    once."""

    def masks(platform: Platform, ids: list[str]) -> np.ndarray:
        return per_account(
            ids, mode.n_bins,
            lambda uid: build_histogram(corpus.posts_for(platform, uid), mode) > 0,
            dtype=bool,
        )

    mask_a = masks(Platform.TWITTER, [p[0] for p in pairs])
    mask_b = masks(Platform.FLICKR, [p[1] for p in pairs])
    x = np.hstack([mask_a, mask_b, boolean_jaccard(mask_a, mask_b)[:, None]])
    schema = (
        [f"a_{mode.value}_{i:02d}" for i in range(mode.n_bins)]
        + [f"b_{mode.value}_{i:02d}" for i in range(mode.n_bins)]
        + ["mask_jaccard"]
    )
    return FeatureMatrix(x, schema)
