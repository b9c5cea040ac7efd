from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osnmatch.temporal_features as temporal_features
from osnmatch import synth
from osnmatch.dataset import Corpus, load_corpus, negative_sample
from osnmatch.errors import DimensionMismatchError
from osnmatch.profile_features import Platform
from osnmatch.temporal_features import (
    HistogramMode,
    boolean_jaccard,
    build_histogram,
    extract_temporal_features,
)

from .oracles import temporal_features_reference

UTC = timezone.utc


def event(hour=12, day_offset=0, minute=0):
    """One post, as its UTC epoch second."""
    # 2022-01-03 is a Monday, so day_offset equals the weekday bin
    ts = datetime(2022, 1, 3, hour, minute, tzinfo=UTC) + timedelta(days=day_offset)
    return int(ts.timestamp())


def seconds(events):
    """An account's posts as the corpus holds them."""
    return np.array(events, dtype=np.int64)


def features(a_events, b_events, mode):
    """The feature row of one pair: twitter account t with ``a_events``,
    flickr account f with ``b_events``."""
    corpus = Corpus(
        profiles={},
        posts={(Platform.TWITTER, "t"): seconds(a_events),
               (Platform.FLICKR, "f"): seconds(b_events)},
        positive_pairs=[],
    )
    return extract_temporal_features(corpus, [("t", "f", True)], mode).x[0].tolist()


def dow_events(counts):
    return [event(day_offset=day, minute=i) for day, n in enumerate(counts) for i in range(n)]


class TestBuildHistogram:
    def test_empty_events(self):
        h = build_histogram(seconds([]), HistogramMode.HOUR_OF_DAY)
        assert h.tolist() == [0] * 24

    def test_hour_binning(self):
        events = [event(hour=9, minute=5), event(hour=9, minute=59), event(hour=21)]
        h = build_histogram(seconds(events), HistogramMode.HOUR_OF_DAY)
        assert h[9] == 2
        assert h[21] == 1
        assert h.sum() == 3

    def test_one_event_per_weekday(self):
        events = [event(day_offset=d) for d in range(7)]
        h = build_histogram(seconds(events), HistogramMode.DAY_OF_WEEK)
        assert h.tolist() == [1] * 7

    def test_bins_use_utc(self):
        plus_two = timezone(timedelta(hours=2))
        # 23:00 UTC on Sunday
        e = int(datetime(2022, 1, 3, 1, 0, tzinfo=plus_two).timestamp())
        h = build_histogram(seconds([e]), HistogramMode.HOUR_OF_DAY)
        assert h[23] == 1
        d = build_histogram(seconds([e]), HistogramMode.DAY_OF_WEEK)
        assert d[6] == 1  # Sunday

    @given(st.lists(st.integers(0, 23), max_size=40))
    @settings(max_examples=30)
    def test_count_conservation(self, hours):
        events = [event(hour=h, minute=i % 60) for i, h in enumerate(hours)]
        h = build_histogram(seconds(events), HistogramMode.HOUR_OF_DAY)
        assert h.sum() == len(events)


class TestToMask:
    """The mask columns of a pair's features: 1.0 wherever the account
    posted at least once in that bin."""

    def test_all_zero(self):
        assert features([], [], HistogramMode.DAY_OF_WEEK)[:7] == [0.0] * 7

    def test_thresholding(self):
        row = features(dow_events([2, 0, 1, 0, 0, 0, 0]), [], HistogramMode.DAY_OF_WEEK)
        assert row[:7] == [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]

    def test_idempotent_through_counts(self):
        mode = HistogramMode.DAY_OF_WEEK
        row = features(dow_events([5, 0, 2, 0, 1, 0, 0]), [], mode)
        again = features(dow_events([int(v) for v in row[:7]]), [], mode)
        assert again == row


def mask(bits):
    return np.array(bits, dtype=bool)


class TestBooleanJaccard:
    def test_identical_nonempty(self):
        m = mask([True, False, True] + [False] * 4)
        assert boolean_jaccard(m, m) == 1.0

    def test_partial_overlap(self):
        x = mask([True, False, True] + [False] * 4)
        y = mask([True, True, False] + [False] * 4)
        assert boolean_jaccard(x, y) == pytest.approx(1 / 3)

    def test_both_empty(self):
        x = mask([False] * 7)
        assert boolean_jaccard(x, x) == 0.0

    def test_mode_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            boolean_jaccard(mask([False] * 7), mask([False] * 24))

    @given(st.lists(st.booleans(), min_size=7, max_size=7),
           st.lists(st.booleans(), min_size=7, max_size=7))
    @settings(max_examples=40)
    def test_symmetric_and_bounded(self, xs, ys):
        x, y = mask(xs), mask(ys)
        j = boolean_jaccard(x, y)
        assert j == boolean_jaccard(y, x)
        assert 0.0 <= j <= 1.0
        if any(xs) or any(ys):
            assert (j == 1.0) == (xs == ys)

    def test_rows(self):
        x = mask([[True, False, True], [False, False, False], [True, True, True]])
        y = mask([[True, True, False], [False, False, False], [True, True, True]])
        assert boolean_jaccard(x, y).tolist() == [1 / 3, 0.0, 1.0]


class TestExtractTemporalFeatures:
    def test_empty_accounts(self):
        assert features([], [], HistogramMode.HOUR_OF_DAY) == [0.0] * 49

    def test_identical_streams(self):
        a = [event(hour=h) for h in (1, 5, 9)]
        b = [event(hour=h) for h in (1, 5, 9)]
        row = features(a, b, HistogramMode.HOUR_OF_DAY)
        assert row[-1] == 1.0
        assert row[:24] == row[24:48]

    def test_hod_dimension(self):
        assert len(features([], [], HistogramMode.HOUR_OF_DAY)) == 49

    def test_dow_dimension(self):
        assert len(features([], [], HistogramMode.DAY_OF_WEEK)) == 15

    def test_one_histogram_per_account(self, monkeypatch):
        calls = []

        def counting(account, mode):
            calls.append(len(account))
            return build_histogram(account, mode)

        monkeypatch.setattr(temporal_features, "build_histogram", counting)
        posts = {
            (Platform.TWITTER, "t1"): seconds([event(hour=3)]),
            (Platform.TWITTER, "t2"): seconds([event(hour=4)]),
            (Platform.FLICKR, "f1"): seconds([event(hour=3)]),
        }
        corpus = Corpus(profiles={}, posts=posts, positive_pairs=[])
        pairs = [("t1", "f1", True), ("t2", "f1", False), ("t1", "f2", False),
                 ("t2", "f2", False)]
        fm = extract_temporal_features(corpus, pairs, HistogramMode.HOUR_OF_DAY)
        assert sorted(calls) == [0, 1, 1, 1]  # t1, t2, f1 and the silent f2
        assert fm.x[:, -1].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert fm.x[:, 3].tolist() == [1.0, 0.0, 1.0, 0.0]
        assert fm.schema[0] == "a_hod_00" and fm.schema[24] == "b_hod_00"

    @pytest.mark.parametrize("mode", list(HistogramMode))
    def test_matches_per_pair_reference(self, tmp_path, mode):
        synth.generate_corpus(30, 0.15, 4, str(tmp_path))
        corpus = load_corpus(*(str(tmp_path / n) for n in
                               ("profiles.jsonl", "posts.jsonl", "pairs.csv")))
        pairs = negative_sample(corpus, 8, 4).pairs
        fm = extract_temporal_features(corpus, pairs, mode)
        for row, (t, f) in zip(fm.x, pairs):
            expected = temporal_features_reference(
                corpus.posts_for(Platform.TWITTER, t), corpus.posts_for(Platform.FLICKR, f),
                mode,
            )
            assert row.tolist() == expected
