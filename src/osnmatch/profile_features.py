"""The feature matrix, the per-account rows of every family, and the ps features.

A candidate pair is one account on each platform. Its profile features
are the score of each textual profile field under one chosen measure, or
under every measure, plus the ratio of lifetime post counts. A field
present on only one side scores 0.0, absent on both sides 1.0, and
present on both its ``normalized_similarity``. Every feature family turns
a batch of pairs into one ``FeatureMatrix``, and builds its per-account
rows through ``per_side``: the one place that maps a pair's sides to
their platforms, and that computes each distinct account once.

The ``ps`` matrix is built one (measure, field) column at a time, not one
pair at a time: ``featurize_pairs`` looks up each account's profile and
folds its fields once, applies the field rule to a whole field at once,
and makes one ``normalized_similarity`` call per column on the pairs that
still need a raw value, so Editex and Smith-Waterman run as one DP over
all of them. The columns come out in ``ps_schema`` order. A single pair
goes through the same column code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import PS_TEXT_FIELDS, Corpus, Platform, UserProfile
from .errors import SamePlatformError
from .strsim import Measure, fold, normalized_similarity


@dataclass
class FeatureMatrix:
    """Features of a batch of candidate pairs: row i of ``x`` belongs to
    pair i, column j is named by ``schema[j]``, and every value lies in
    [0, 1]."""

    x: np.ndarray
    schema: list[str]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2 or self.x.shape[1] != len(self.schema):
            raise ValueError(
                f"{self.x.shape} matrix for {len(self.schema)} schema entries"
            )
        outside = ~((self.x >= 0.0) & (self.x <= 1.0))  # NaN compares False
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ValueError(f"feature {self.schema[j]} out of [0, 1]: {self.x[i, j]}")

    def __len__(self) -> int:
        return self.x.shape[0]


def per_side(
    pairs: Sequence[tuple[str, str]], width: int, compute: Callable, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """(twitter_rows, flickr_rows) of (twitter_id, flickr_id) pairs:
    row i of each is ``compute(platform, uid)`` of that side's account of
    pair i. ``compute`` runs once per distinct account on each side, and
    its result is repeated for every pair the account is in."""
    sides = []
    for side, platform in enumerate((Platform.TWITTER, Platform.FLICKR)):
        first: dict = {}
        for pair in pairs:
            first.setdefault(pair[side], len(first))
        table = np.empty((len(first), width), dtype=dtype)
        for row, uid in enumerate(first):
            table[row] = compute(platform, uid)
        sides.append(table[[first[pair[side]] for pair in pairs]])
    return sides[0], sides[1]


PS_SCHEMA = [
    "user_name_score",
    "real_name_score",
    "post_ratio",
    "description_score",
    "location_score",
]
PS_SCHEMA_NO_NAMES = PS_SCHEMA[2:]


def post_count_ratio(count_a: int, count_b: int) -> float:
    """min/max of the two lifetime post counts; two inactive accounts
    are indistinguishable on this axis, so 0/0 maps to 1.0."""
    if count_a == 0 and count_b == 0:
        return 1.0
    return min(count_a, count_b) / max(count_a, count_b)


def _scored_fields(include_names: bool) -> tuple[str, ...]:
    return PS_TEXT_FIELDS if include_names else PS_TEXT_FIELDS[2:]


def _account_row(profile: UserProfile, fields: tuple[str, ...]) -> list:
    """The account's text fields, folded as every measure folds them, then
    its post count."""
    return [*(fold(getattr(profile, name)) for name in fields), profile.post_count]


def _ps_columns(a: np.ndarray, b: np.ndarray, measure: Measure | None) -> np.ndarray:
    """The ``ps_schema(measure, ...)`` columns of the pairs whose accounts'
    ``_account_row``s are the rows of ``a`` and ``b``."""
    measures = tuple(Measure) if measure is None else (measure,)
    n, k = a.shape[0], a.shape[1] - 1
    x = np.empty((n, len(measures) * k))
    for f in range(k):
        fa, fb = a[:, f].tolist(), b[:, f].tolist()
        # on folded text, a field equal on both sides (both empty included)
        # scores 1.0, one side empty 0.0, and only the rest need the measure
        base = [1.0 if s == t else 0.0 for s, t in zip(fa, fb)]
        rows = [i for i, (s, t) in enumerate(zip(fa, fb)) if s != t and s and t]
        sa, sb = [fa[i] for i in rows], [fb[i] for i in rows]
        for j, m in enumerate(measures):
            x[:, j * k + f] = base
            if rows:
                x[rows, j * k + f] = normalized_similarity(m, sa, sb)
    ratio = [post_count_ratio(p, q) for p, q in zip(a[:, k].tolist(), b[:, k].tolist())]
    # post_ratio is last under every measure, and under one it follows the
    # name fields (those before description and location), as in PS_SCHEMA
    return np.insert(x, x.shape[1] if measure is None else k - 2, ratio, axis=1)


def extract_ps_features_all_measures(
    a: UserProfile, b: UserProfile, include_names: bool = True,
    measure: Measure | None = None,
) -> list[float]:
    """The ``ps_schema(measure, include_names)`` features of a
    cross-platform pair: under ``measure``, or under every measure when it
    is None."""
    if a.platform == b.platform:
        raise SamePlatformError(
            f"both accounts are on {a.platform.value}: {a.user_id!r}, {b.user_id!r}"
        )
    fields = _scored_fields(include_names)
    rows = [np.array([_account_row(p, fields)], dtype=object) for p in (a, b)]
    return _ps_columns(*rows, measure)[0].tolist()


def ps_schema(measure: Measure | None, include_names: bool = True) -> list[str]:
    """Column names of the ``ps`` matrix: every measure's field scores
    (measure-major), then ``post_ratio``, when ``measure`` is None, else
    the paper's ``PS_SCHEMA``, or ``PS_SCHEMA_NO_NAMES`` without names."""
    if measure is not None:
        return list(PS_SCHEMA if include_names else PS_SCHEMA_NO_NAMES)
    fields = _scored_fields(include_names)
    return [f"{name}_score_{m.value}" for m in Measure for name in fields] + ["post_ratio"]


def featurize_pairs(
    corpus: Corpus,
    pairs: Sequence[tuple[str, str]],
    measure: Measure | None,
    include_names: bool = True,
) -> FeatureMatrix:
    """Profile-similarity matrix of (twitter_id, flickr_id) pairs, in
    order, under one measure, or under every measure when ``measure`` is None."""
    fields = _scored_fields(include_names)
    accounts = per_side(
        pairs, len(fields) + 1,
        lambda platform, uid: _account_row(corpus.profile(platform, uid), fields),
        dtype=object,
    )
    return FeatureMatrix(_ps_columns(*accounts, measure), ps_schema(measure, include_names))
