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
all of them. ``post_ratio`` is the last column of that kernel
order; ``ps_schema`` says how to reorder it. A single pair goes through the
same column code.
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
    pairs: Sequence[tuple], width: int, compute: Callable, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """(twitter_rows, flickr_rows) of (twitter_id, flickr_id, ...) pairs:
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


def _ps_columns(a: np.ndarray, b: np.ndarray, measures: tuple[Measure, ...]) -> np.ndarray:
    """Kernel-order features of the pairs whose accounts' ``_account_row``s
    are the rows of ``a`` and ``b``: each measure's field scores
    (measure-major), then the post-count ratio."""
    n, k = a.shape[0], a.shape[1] - 1
    x = np.empty((n, len(measures) * k + 1))
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
    x[:, -1] = [post_count_ratio(p, q) for p, q in zip(a[:, k].tolist(), b[:, k].tolist())]
    return x


def extract_ps_features_all_measures(
    a: UserProfile, b: UserProfile, include_names: bool = True,
    measures: tuple[Measure, ...] = tuple(Measure),
) -> list[float]:
    """Text-field scores of a cross-platform pair under each of ``measures``
    (measure-major), followed by the post-count ratio."""
    if a.platform == b.platform:
        raise SamePlatformError(
            f"both accounts are on {a.platform.value}: {a.user_id!r}, {b.user_id!r}"
        )
    fields = _scored_fields(include_names)
    rows = [np.array([_account_row(p, fields)], dtype=object) for p in (a, b)]
    return _ps_columns(*rows, measures)[0].tolist()


def ps_schema(
    measure: Measure | None, include_names: bool = True
) -> tuple[list[str], list[int]]:
    """Column names of the ``ps`` matrix, and the order that takes a kernel
    row to them: every measure's columns in kernel order when ``measure`` is
    None, else the paper's ``PS_SCHEMA`` order, ``post_ratio`` third."""
    fields = _scored_fields(include_names)
    if measure is None:
        schema = [f"{name}_score_{m.value}" for m in Measure for name in fields]
        schema.append("post_ratio")
        return schema, list(range(len(schema)))
    if include_names:
        return list(PS_SCHEMA), [0, 1, 4, 2, 3]
    return list(PS_SCHEMA_NO_NAMES), [2, 0, 1]


def featurize_pairs(
    corpus: Corpus,
    pairs: Sequence[tuple],
    measure: Measure | None,
    include_names: bool = True,
) -> FeatureMatrix:
    """Profile-similarity matrix of (twitter_id, flickr_id, ...) pairs, in
    order, under one measure, or under every measure when ``measure`` is None."""
    schema, order = ps_schema(measure, include_names)
    fields = _scored_fields(include_names)
    accounts = per_side(
        pairs, len(fields) + 1,
        lambda platform, uid: _account_row(corpus.profile(platform, uid), fields),
        dtype=object,
    )
    x = _ps_columns(*accounts, tuple(Measure) if measure is None else (measure,))
    return FeatureMatrix(x[:, order], schema)
