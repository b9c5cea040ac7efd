"""Temporal posting-pattern features.

Each account's posts arrive as one int64 array of UTC epoch seconds (see
``dataset.Corpus.posts``) and are binned, with integer arithmetic, into
hour-of-day or day-of-week histograms; the boolean activity masks of the
two accounts plus their Jaccard similarity form the classifier input.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ModeMismatchError
from .profile_features import FeatureMatrix, Platform, per_account

if TYPE_CHECKING:
    from .dataset import Corpus


class HistogramMode(str, Enum):
    HOUR_OF_DAY = "hod"
    DAY_OF_WEEK = "dow"

    @property
    def n_bins(self) -> int:
        return 24 if self is HistogramMode.HOUR_OF_DAY else 7


def build_histogram(seconds: np.ndarray, mode: HistogramMode) -> np.ndarray:
    """Count one account's posts, given as int64 UTC epoch seconds, per UTC
    hour (24 bins) or ISO weekday (7 bins, Monday=0; 1970-01-01 was a
    Thursday)."""
    if mode is HistogramMode.HOUR_OF_DAY:
        bins = seconds // 3600 % 24
    else:
        bins = (seconds // 86400 + 3) % 7
    return np.bincount(bins, minlength=mode.n_bins)


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
