"""The ps family: profile-similarity features of candidate pairs.

A candidate pair is one account on each platform. Its profile features
are the score of each textual profile field under one chosen measure, or
under every measure, plus the ratio of lifetime post counts. A field
present on only one side scores 0.0, absent on both sides 1.0, and
present on both its ``normalized_similarity``. Like every family, it
builds its per-account rows through ``dataset.per_side`` and returns a
``dataset.FeatureMatrix``.

``ps_layout`` alone orders the ``ps`` columns: it gives each column's
profile attribute and measure, and ``ps_schema``, the column code and
``score-pair`` read it. The matrix is built one (measure, field) column
at a time, not one pair at a time: ``featurize_pairs`` looks up each
account's profile and folds its fields once, applies the field rule to a
whole field at once, and makes one ``normalized_similarity`` call per
column on the pairs that still need a raw value, so Editex and
Smith-Waterman run as one DP over all of them. A single pair goes through
the same column code.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dataset import PS_TEXT_FIELDS, Corpus, FeatureMatrix, UserProfile, per_side
from .errors import SamePlatformError
from .strsim import Measure, fold, normalized_similarity


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


def ps_layout(measure: Measure | None, include_names: bool = True) -> list[tuple]:
    """One (``UserProfile`` attribute, measure) pair per ``ps`` column, in
    column order; the post count ratio has no measure. Under every
    measure (``measure`` None) the scored fields come measure-major, then
    the post count; under one, the post count follows the name fields, as
    in the paper."""
    fields = _scored_fields(include_names)
    if measure is None:
        return [(name, m) for m in Measure for name in fields] + [("post_count", None)]
    scored = [(name, measure) for name in fields]
    return scored[:-2] + [("post_count", None)] + scored[-2:]


def _ps_columns(a, b, measure: Measure | None, include_names: bool) -> np.ndarray:
    """The ``ps_layout(measure, include_names)`` columns of the pairs whose
    accounts' ``_account_row``s are the rows of ``a`` and ``b``."""
    layout = ps_layout(measure, include_names)
    x = np.empty((a.shape[0], len(layout)))
    for f, field in enumerate(_scored_fields(include_names)):
        fa, fb = a[:, f].tolist(), b[:, f].tolist()
        # on folded text, a field equal on both sides (both empty included)
        # scores 1.0, one side empty 0.0, and only the rest need the measure
        base = [1.0 if s == t else 0.0 for s, t in zip(fa, fb)]
        rows = [i for i, (s, t) in enumerate(zip(fa, fb)) if s != t and s and t]
        sa, sb = [fa[i] for i in rows], [fb[i] for i in rows]
        for j, (name, m) in enumerate(layout):
            if name == field:
                x[:, j] = base
                if rows:
                    x[rows, j] = normalized_similarity(m, sa, sb)
    (ratio,) = [j for j, (_, m) in enumerate(layout) if m is None]
    counts = zip(a[:, -1].tolist(), b[:, -1].tolist())
    x[:, ratio] = [post_count_ratio(p, q) for p, q in counts]
    return x


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
    return _ps_columns(*rows, measure, include_names)[0].tolist()


def ps_schema(measure: Measure | None, include_names: bool = True) -> list[str]:
    """Column names of the ``ps`` matrix, one per ``ps_layout`` entry:
    ``<field>_score`` under one measure, ``<field>_score_<measure>`` under
    every measure, and ``post_ratio``."""
    return ["post_ratio" if m is None
            else f"{name}_score" if measure is not None else f"{name}_score_{m.value}"
            for name, m in ps_layout(measure, include_names)]


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
    x = _ps_columns(*accounts, measure, include_names)
    return FeatureMatrix(x, ps_schema(measure, include_names))
