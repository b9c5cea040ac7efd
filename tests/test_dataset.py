import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnmatch import synth
from osnmatch.dataset import (
    LabeledPairSet,
    _load_posts,
    k_folds,
    k_folds_user_disjoint,
    load_corpus,
    negative_sample,
    split,
)
from osnmatch.errors import (
    DegenerateSplitError,
    EmptyCorpusError,
    InsufficientPoolError,
    ParseError,
    TooFewExamplesError,
)
from osnmatch.profile_features import Platform
from osnmatch.temporal_features import PostEvent

from .oracles import k_folds_user_disjoint_reference


def profile_line(platform, user_id, **kwargs):
    obj = {
        "platform": platform,
        "user_id": user_id,
        "user_name": kwargs.get("user_name", user_id),
        "real_name": kwargs.get("real_name", ""),
        "description": kwargs.get("description", ""),
        "location": kwargs.get("location", ""),
        "post_count": kwargs.get("post_count", 3),
    }
    return json.dumps(obj)


def write_corpus(tmp_path, n_twitter=3, n_flickr=3, pairs=None, extra_pair_rows=(),
                 posts=None):
    profiles = tmp_path / "profiles.jsonl"
    lines = [profile_line("twitter", f"t{i}") for i in range(n_twitter)]
    lines += [profile_line("flickr", f"f{i}") for i in range(n_flickr)]
    profiles.write_text("\n".join(lines) + "\n")
    posts_path = tmp_path / "posts.jsonl"
    post_lines = posts or [
        json.dumps(
            {
                "platform": "twitter",
                "user_id": "t0",
                "timestamp": "2022-05-01T09:30:00+00:00",
            }
        )
    ]
    posts_path.write_text("\n".join(post_lines) + "\n")
    pairs_path = tmp_path / "pairs.csv"
    rows = ["twitter_id,flickr_id"]
    for t, f in pairs if pairs is not None else [("t0", "f0"), ("t1", "f1")]:
        rows.append(f"{t},{f}")
    rows.extend(extra_pair_rows)
    pairs_path.write_text("\n".join(rows) + "\n")
    return str(profiles), str(posts_path), str(pairs_path)


def make_set(n_pos, n_neg, seed=0):
    pairs = [(f"t{i}", f"f{i}", True) for i in range(n_pos)]
    pairs += [(f"t{i}", f"f{(i + 1) % max(n_pos, 1)}", False) for i in range(n_neg)]
    ratio = n_neg // n_pos if n_pos else 0
    return LabeledPairSet(pairs=pairs, neg_ratio=ratio, seed=seed)


class TestLoadCorpus:
    def test_basic_load(self, tmp_path):
        paths = write_corpus(tmp_path)
        corpus = load_corpus(*paths)
        assert len(corpus.positive_pairs) == 2
        assert corpus.dropped_pairs == 0
        assert corpus.profile(Platform.TWITTER, "t0").user_name == "t0"
        assert len(corpus.posts_for(Platform.TWITTER, "t0")) == 1
        assert corpus.posts_for(Platform.FLICKR, "f9") == []

    def test_dangling_pair_dropped_with_count(self, tmp_path):
        paths = write_corpus(
            tmp_path, pairs=[("t0", "f0"), ("t1", "f1"), ("t9", "f0")]
        )
        corpus = load_corpus(*paths)
        assert len(corpus.positive_pairs) == 2
        assert corpus.dropped_pairs == 1

    def test_duplicate_pair_dropped(self, tmp_path):
        paths = write_corpus(tmp_path, pairs=[("t0", "f0"), ("t0", "f0")])
        corpus = load_corpus(*paths)
        assert len(corpus.positive_pairs) == 1
        assert corpus.dropped_pairs == 1

    def test_malformed_json_names_line(self, tmp_path):
        paths = write_corpus(tmp_path)
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text(profile_line("twitter", "t0") + "\n{oops\n")
        with pytest.raises(ParseError) as exc:
            load_corpus(str(profiles), paths[1], paths[2])
        assert exc.value.line_no == 2

    def test_zero_valid_pairs(self, tmp_path):
        paths = write_corpus(tmp_path, pairs=[("t9", "f9")])
        with pytest.raises(EmptyCorpusError):
            load_corpus(*paths)

    def test_bad_pairs_header(self, tmp_path):
        paths = write_corpus(tmp_path)
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("a,b\nt0,f0\n")
        with pytest.raises(ParseError):
            load_corpus(paths[0], paths[1], str(pairs))

    def test_naive_timestamp_rejected(self, tmp_path):
        posts = [
            json.dumps(
                {"platform": "twitter", "user_id": "t0",
                 "timestamp": "2022-05-01T09:30:00"}
            )
        ]
        paths = write_corpus(tmp_path, posts=posts)
        with pytest.raises(ParseError):
            load_corpus(*paths)

    def test_out_of_range_timestamp_rejected(self, tmp_path):
        posts = [
            json.dumps(
                {"platform": "twitter", "user_id": "t0",
                 "timestamp": "1980-05-01T09:30:00+00:00"}
            )
        ]
        paths = write_corpus(tmp_path, posts=posts)
        with pytest.raises(ParseError):
            load_corpus(*paths)

    def test_zulu_timestamp_accepted(self, tmp_path):
        posts = [
            json.dumps(
                {"platform": "twitter", "user_id": "t0",
                 "timestamp": "2022-05-01T09:30:00Z"}
            )
        ]
        paths = write_corpus(tmp_path, posts=posts)
        corpus = load_corpus(*paths)
        assert len(corpus.posts_for(Platform.TWITTER, "t0")) == 1

    def test_non_object_post_line_rejected(self, tmp_path):
        paths = write_corpus(tmp_path, posts=["[1, 2]"])
        with pytest.raises(ParseError) as exc:
            load_corpus(*paths)
        assert exc.value.line_no == 1

    def test_non_string_text_field_rejected(self, tmp_path):
        paths = write_corpus(tmp_path)
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text(
            profile_line("twitter", "t0") + "\n"
            + profile_line("twitter", "t1", user_name=123) + "\n"
        )
        with pytest.raises(ParseError) as exc:
            load_corpus(str(profiles), paths[1], paths[2])
        assert exc.value.line_no == 2

    def test_boolean_post_count_rejected(self, tmp_path):
        paths = write_corpus(tmp_path)
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text(profile_line("twitter", "t0", post_count=True) + "\n")
        with pytest.raises(ParseError) as exc:
            load_corpus(str(profiles), paths[1], paths[2])
        assert exc.value.line_no == 1

    def test_duplicate_profile_rejected(self, tmp_path):
        paths = write_corpus(tmp_path)
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text(
            profile_line("twitter", "t0") + "\n" + profile_line("twitter", "t0") + "\n"
            + profile_line("flickr", "f0") + "\n" + profile_line("flickr", "f1") + "\n"
            + profile_line("twitter", "t1") + "\n"
        )
        with pytest.raises(ParseError):
            load_corpus(str(profiles), paths[1], paths[2])


def post_line(timestamp, platform="twitter", user_id="t0"):
    return json.dumps({"platform": platform, "user_id": user_id, "timestamp": timestamp})


def posts_reference(path):
    """Posts grouped per account, decoded line by line with the standard
    library alone."""
    posts = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                platform = Platform(obj["platform"])
                ts = datetime.fromisoformat(obj["timestamp"].replace("Z", "+00:00"))
                posts.setdefault((platform, obj["user_id"]), []).append(
                    PostEvent(platform=platform, user_id=obj["user_id"], timestamp=ts)
                )
    return posts


class TestLoaderEdgeCases:
    BAD_PLATFORMS = [["twitter"], {"a": 1}, 1, None, "Twitter"]

    @pytest.mark.parametrize("platform", BAD_PLATFORMS)
    def test_bad_platform_in_posts(self, tmp_path, platform):
        paths = write_corpus(tmp_path, posts=[post_line("2022-05-01T09:30:00+00:00"),
                                              post_line("2022-05-01T09:30:00+00:00",
                                                        platform=platform)])
        with pytest.raises(ParseError) as exc:
            load_corpus(*paths)
        assert str(exc.value) == f"{paths[1]}:2: unknown platform {platform!r}"

    @pytest.mark.parametrize("platform", BAD_PLATFORMS)
    def test_bad_platform_in_profiles(self, tmp_path, platform):
        paths = write_corpus(tmp_path)
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text(
            profile_line("twitter", "t0") + "\n" + profile_line(platform, "t1") + "\n"
        )
        with pytest.raises(ParseError) as exc:
            load_corpus(*paths)
        assert str(exc.value) == f"{profiles}:2: unknown platform {platform!r}"

    def test_zone_suffixes_give_utc_instants(self, tmp_path):
        stamps = ["2022-05-01T09:30:00Z", "2022-05-01T09:30:00+05:30",
                  "2022-05-01T09:30:00-08:00"]
        paths = write_corpus(tmp_path, posts=[post_line(s) for s in stamps])
        events = load_corpus(*paths).posts_for(Platform.TWITTER, "t0")
        utc = [e.timestamp.astimezone(timezone.utc) for e in events]
        assert utc == [datetime.fromisoformat(s.replace("Z", "+00:00")) for s in stamps]
        assert [t.hour for t in utc] == [9, 4, 17]

    def test_timestamp_two_hours_ahead_rejected(self, tmp_path):
        ahead = (datetime.now(timezone.utc) + timedelta(hours=2)).isoformat()
        paths = write_corpus(tmp_path, posts=[post_line(ahead)])
        with pytest.raises(ParseError) as exc:
            load_corpus(*paths)
        assert str(exc.value) == f"{paths[1]}:1: timestamp {ahead!r} outside 1990..now"

    def test_synthetic_posts_equal_the_reference(self, tmp_path):
        summary = synth.generate_corpus(30, 0.15, 0, str(tmp_path))
        loaded = _load_posts(summary["posts_path"])
        reference = posts_reference(summary["posts_path"])
        assert list(loaded.items()) == list(reference.items())
        assert sum(len(v) for v in loaded.values()) == summary["posts"]


class TestNegativeSample:
    def test_exact_ratio(self, tmp_path):
        paths = write_corpus(tmp_path, n_twitter=30, n_flickr=30,
                             pairs=[(f"t{i}", f"f{i}") for i in range(10)])
        corpus = load_corpus(*paths)
        s = negative_sample(corpus, 8, seed=1)
        assert s.n_pos == 10
        assert s.n_neg == 80
        assert len(s.pairs) == 90

    def test_ratio_zero(self, tmp_path):
        paths = write_corpus(tmp_path)
        s = negative_sample(load_corpus(*paths), 0, seed=1)
        assert s.n_neg == 0

    def test_deterministic(self, tmp_path):
        paths = write_corpus(tmp_path, n_twitter=20, n_flickr=20,
                             pairs=[(f"t{i}", f"f{i}") for i in range(5)])
        corpus = load_corpus(*paths)
        assert negative_sample(corpus, 8, seed=4).pairs == \
            negative_sample(corpus, 8, seed=4).pairs

    def test_negative_purity(self, tmp_path):
        paths = write_corpus(tmp_path, n_twitter=12, n_flickr=12,
                             pairs=[(f"t{i}", f"f{i}") for i in range(12)])
        corpus = load_corpus(*paths)
        s = negative_sample(corpus, 8, seed=3)
        positives = set(corpus.positive_pairs)
        negatives = [(t, f) for t, f, lbl in s.pairs if not lbl]
        assert not positives & set(negatives)
        assert len(set(negatives)) == len(negatives)

    def test_insufficient_pool(self, tmp_path):
        paths = write_corpus(tmp_path, n_twitter=2, n_flickr=2,
                             pairs=[("t0", "f0"), ("t1", "f1")])
        corpus = load_corpus(*paths)
        with pytest.raises(InsufficientPoolError):
            negative_sample(corpus, 8, seed=1)

    def test_dense_request_exhausts_pool_exactly(self, tmp_path):
        paths = write_corpus(tmp_path, n_twitter=3, n_flickr=3,
                             pairs=[("t0", "f0")])
        corpus = load_corpus(*paths)
        s = negative_sample(corpus, 8, seed=1)  # pool is exactly 8
        assert s.n_neg == 8


class TestSplit:
    def test_stratified_arithmetic(self):
        s = make_set(8, 64)
        train, test = split(s, 0.75, seed=0)
        assert (train.n_pos, train.n_neg) == (6, 48)
        assert (test.n_pos, test.n_neg) == (2, 16)

    def test_half_split(self):
        s = make_set(2, 2)
        train, test = split(s, 0.5, seed=0)
        assert (train.n_pos, train.n_neg) == (1, 1)
        assert (test.n_pos, test.n_neg) == (1, 1)

    def test_partition_exact(self):
        s = make_set(9, 33)
        train, test = split(s, 0.6, seed=5)
        assert sorted(train.pairs + test.pairs) == sorted(s.pairs)
        assert not set(train.pairs) & set(test.pairs)

    def test_degenerate(self):
        s = make_set(1, 8)
        with pytest.raises(DegenerateSplitError):
            split(s, 0.75, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split(make_set(4, 4), 1.0, seed=0)

    @given(n_pos=st.integers(2, 30), ratio=st.integers(1, 6),
           seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_property_partition(self, n_pos, ratio, seed):
        s = make_set(n_pos, n_pos * ratio)
        frac = 0.75
        try:
            train, test = split(s, frac, seed)
        except DegenerateSplitError:
            return
        assert sorted(train.pairs + test.pairs) == sorted(s.pairs)
        assert train.n_pos == int(n_pos * frac)


class TestKFolds:
    def test_stratified_sizes(self):
        s = make_set(10, 80)
        folds = k_folds(s, 10, seed=2)
        assert len(folds) == 10
        for train, test in folds:
            assert test.n_pos == 1
            assert test.n_neg == 8
            assert train.n_pos == 9
            assert train.n_neg == 72

    def test_every_pair_in_exactly_one_test_fold(self):
        s = make_set(7, 23)
        folds = k_folds(s, 5, seed=2)
        seen = []
        for _, test in folds:
            seen.extend(test.pairs)
        assert sorted(seen) == sorted(s.pairs)

    def test_k2_on_two_per_class(self):
        s = make_set(2, 2)
        folds = k_folds(s, 2, seed=0)
        for _, test in folds:
            assert test.n_pos == 1
            assert test.n_neg == 1

    def test_too_few(self):
        s = make_set(3, 30)
        with pytest.raises(TooFewExamplesError):
            k_folds(s, 4, seed=0)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            k_folds(make_set(5, 5), 1, seed=0)

    def test_train_test_disjoint(self):
        s = make_set(6, 18)
        for train, test in k_folds(s, 3, seed=9):
            assert not set(train.pairs) & set(test.pairs)
            assert sorted(train.pairs + test.pairs) == sorted(s.pairs)


class TestUserDisjoint:
    @pytest.mark.parametrize("k, seed", [(2, 0), (3, 7), (5, 1), (10, 301)])
    def test_equals_the_per_fold_scan(self, k, seed):
        # negatives join users with and without positives, so some of the
        # drawn folds are used and some are not
        rng = np.random.default_rng(seed)
        pairs = [(f"t{i}", f"f{i}", True) for i in range(20)]
        negs = {(f"t{rng.integers(40)}", f"f{rng.integers(40)}") for _ in range(300)}
        pairs += [(t, f, False) for t, f in sorted(negs) if t[1:] != f[1:]]
        s = LabeledPairSet(pairs=pairs, neg_ratio=8, seed=seed)
        got = k_folds_user_disjoint(s, k, seed)
        want = k_folds_user_disjoint_reference(s, k, seed)
        assert [(a.pairs, b.pairs) for a, b in got] == [(a.pairs, b.pairs) for a, b in want]

    def test_folds_test_users_not_in_train(self):
        s = make_set(12, 60)
        for train, test in k_folds_user_disjoint(s, 4, seed=1):
            train_users = {u for t, f, _ in train.pairs for u in (("t", t), ("f", f))}
            test_users = {u for t, f, _ in test.pairs for u in (("t", t), ("f", f))}
            assert not train_users & test_users

    def test_positive_coverage(self):
        s = make_set(12, 0)
        folds = k_folds_user_disjoint(s, 4, seed=1)
        seen = []
        for _, test in folds:
            seen.extend(p for p in test.pairs if p[2])
        assert sorted(seen) == sorted(p for p in s.pairs if p[2])
