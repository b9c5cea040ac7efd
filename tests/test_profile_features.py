import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnmatch import strsim
from osnmatch.dataset import Corpus, parse_profile
from osnmatch.errors import SamePlatformError
from osnmatch.profile_features import (
    PS_TEXT_FIELDS,
    FeatureMatrix,
    Platform,
    UserProfile,
    extract_ps_features_all_measures,
    featurize_pairs,
    per_side,
    post_count_ratio,
    ps_layout,
    ps_schema,
)
from osnmatch.strsim import Measure
from tests.oracles import text_field_score


def make_profile(platform=Platform.TWITTER, **kwargs):
    defaults = dict(
        user_id="u1",
        user_name="kwanhui",
        real_name="Kwan Hui",
        description="researcher",
        location="singapore",
        post_count=10,
    )
    defaults.update(kwargs)
    return UserProfile(platform=platform, **defaults)


profile_text = st.text(max_size=10)


def corpus_of(*profiles):
    return Corpus(
        profiles={(p.platform, p.user_id): p for p in profiles}, posts={},
        positive_pairs=[],
    )


def ps_row(a, b, measure, include_names=True):
    """The ``featurize_pairs`` row of one (twitter, flickr) pair."""
    out = featurize_pairs(corpus_of(a, b), [(a.user_id, b.user_id)], measure, include_names)
    return out.x[0].tolist()


def expected_row(schema, a, b, measure):
    """Each column computed on its own from its schema name: ``post_ratio``,
    ``<field>_score`` under ``measure`` or ``<field>_score_<measure>``."""
    row = []
    for name in schema:
        if name == "post_ratio":
            row.append(post_count_ratio(a.post_count, b.post_count))
            continue
        field = next(f for f in PS_TEXT_FIELDS if name.startswith(f"{f}_score"))
        suffix = name.removeprefix(f"{field}_score")
        m = Measure(suffix[1:]) if suffix else measure
        row.append(text_field_score(m, getattr(a, field), getattr(b, field)))
    return row


class TestUserProfile:
    def test_requires_user_id(self):
        with pytest.raises(ValueError):
            make_profile(user_id="")

    def test_rejects_negative_post_count(self):
        with pytest.raises(ValueError):
            make_profile(post_count=-1)


class TestFeatureMatrix:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.full((3, 1), 0.5), ["a", "b"])
        with pytest.raises(ValueError):
            FeatureMatrix(np.full(2, 0.5), ["a", "b"])

    def test_out_of_range_rejected(self):
        for bad in (1.5, -0.25, math.nan, math.inf):
            x = np.full((4, 3), 0.5)
            x[2, 1] = bad
            with pytest.raises(ValueError) as info:
                FeatureMatrix(x, ["a", "b", "c"])
            assert f"feature b out of [0, 1]: {bad}" in str(info.value)

    def test_rows_and_bounds(self):
        fm = FeatureMatrix([[0, 1], [1.0, 0.25]], ["a", "b"])
        assert len(fm) == 2
        assert fm.x.dtype == np.float64
        assert len(FeatureMatrix(np.empty((0, 2)), ["a", "b"])) == 0


class TestPerSide:
    def test_one_call_per_distinct_id(self):
        calls = []

        def compute(platform, uid):
            calls.append((platform, uid))
            return [len(uid), 1.0 if platform is Platform.TWITTER else 0.0]

        pairs = [("aa", "x", True), ("b", "x", False), ("aa", "yy", False),
                 ("ccc", "x", False), ("b", "yy", True)]
        twitter, flickr = per_side(pairs, 2, compute)
        assert calls == [(Platform.TWITTER, "aa"), (Platform.TWITTER, "b"),
                         (Platform.TWITTER, "ccc"), (Platform.FLICKR, "x"),
                         (Platform.FLICKR, "yy")]
        assert twitter.tolist() == [[2, 1], [1, 1], [2, 1], [3, 1], [1, 1]]
        assert flickr.tolist() == [[1, 0], [1, 0], [2, 0], [1, 0], [2, 0]]
        assert [t.shape for t in per_side([], 2, compute)] == [(0, 2), (0, 2)]


class TestExtractPsFeatures:
    """The single-measure layout: one pair's features and its
    ``featurize_pairs`` row, both in ``ps_schema(measure)`` order."""

    def test_identical_twins_all_ones(self):
        a = make_profile(Platform.TWITTER)
        b = make_profile(Platform.FLICKR, user_id="u2")
        assert ps_row(a, b, Measure.EDITEX, include_names=True) == [1.0] * 5
        assert extract_ps_features_all_measures(a, b, True, Measure.EDITEX) == [1.0] * 5
        assert ps_schema(Measure.EDITEX) == [
            "user_name_score",
            "real_name_score",
            "post_ratio",
            "description_score",
            "location_score",
        ]

    def test_same_platform_rejected(self):
        a = make_profile(Platform.TWITTER)
        b = make_profile(Platform.TWITTER, user_id="u2")
        with pytest.raises(SamePlatformError):
            extract_ps_features_all_measures(a, b, measure=Measure.EDITEX)

    def test_post_ratio_and_empty_fields(self):
        a = make_profile(
            Platform.TWITTER, user_name="", real_name="", description="",
            location="", post_count=25,
        )
        b = make_profile(
            Platform.FLICKR, user_id="u2", user_name="", real_name="",
            description="", location="", post_count=100,
        )
        assert ps_row(a, b, Measure.EDITEX, include_names=False) == [0.25, 1.0, 1.0]
        single = extract_ps_features_all_measures(a, b, False, Measure.EDITEX)
        assert single == [0.25, 1.0, 1.0]

    def test_username_single_edit(self):
        a = make_profile(Platform.TWITTER, user_name="kwanhui")
        b = make_profile(Platform.FLICKR, user_id="u2", user_name="kwan_hui")
        values = ps_row(a, b, Measure.LEVENSHTEIN)
        assert values[0] == pytest.approx(1 - 1 / 8)

    def test_one_sided_missing_field_scores_zero(self):
        a = make_profile(Platform.TWITTER, description="")
        b = make_profile(Platform.FLICKR, user_id="u2")
        values = ps_row(a, b, Measure.EDITEX)
        assert ps_schema(Measure.EDITEX)[3] == "description_score"
        assert values[3] == 0.0

    @given(
        un=profile_text, rn=profile_text, de=profile_text, lo=profile_text,
        pa=st.integers(0, 50), pb=st.integers(0, 50),
    )
    @settings(max_examples=30)
    def test_symmetry(self, un, rn, de, lo, pa, pb):
        a = make_profile(
            Platform.TWITTER, user_name=un, real_name=rn, description=de,
            location=lo, post_count=pa,
        )
        b = make_profile(
            Platform.FLICKR, user_id="u2", user_name="base", real_name="Base",
            description="desc", location="city", post_count=pb,
        )
        forward = extract_ps_features_all_measures(a, b, measure=Measure.LEVENSHTEIN)
        swapped = extract_ps_features_all_measures(b, a, measure=Measure.LEVENSHTEIN)
        assert forward == swapped

    @given(un=profile_text, de=profile_text, pa=st.integers(0, 50))
    @settings(max_examples=30)
    def test_ablation_is_suffix_of_full_vector(self, un, de, pa):
        a = make_profile(
            Platform.TWITTER, user_name=un, description=de, post_count=pa
        )
        b = make_profile(Platform.FLICKR, user_id="u2")
        full = ps_row(a, b, Measure.JARO_WINKLER, include_names=True)
        ablated = ps_row(a, b, Measure.JARO_WINKLER, include_names=False)
        assert ablated == full[2:]
        assert ps_schema(Measure.JARO_WINKLER, False) == ps_schema(Measure.JARO_WINKLER)[2:]
        for measure in [Measure.JARO_WINKLER, None]:
            full = extract_ps_features_all_measures(a, b, True, measure)
            ablated = extract_ps_features_all_measures(a, b, False, measure)
            kept = ps_schema(measure, False)
            assert ablated == [v for name, v in zip(ps_schema(measure, True), full)
                               if name in kept]

    def test_schema_depends_only_on_flag(self):
        a1 = make_profile(Platform.TWITTER, user_name="", description="")
        b1 = make_profile(Platform.FLICKR, user_id="u2")
        a2 = make_profile(Platform.TWITTER, user_id="u3")
        corpus = corpus_of(a1, b1, a2)
        m1 = featurize_pairs(corpus, [("u1", "u2", True)], Measure.LCS)
        m2 = featurize_pairs(corpus, [("u3", "u2", False)], Measure.LCS)
        assert m1.schema == m2.schema == ps_schema(Measure.LCS)
        m3 = featurize_pairs(corpus, [("u3", "u2", False)], Measure.LCS, include_names=False)
        assert m3.schema == ps_schema(Measure.LCS, False)
        for names in (True, False):
            all1 = featurize_pairs(corpus, [("u1", "u2", True)], None, names)
            all2 = featurize_pairs(corpus, [("u3", "u2", False)], None, names)
            assert all1.schema == all2.schema == ps_schema(None, names)


class TestPsLayout:
    """``ps_layout`` orders the columns; ``ps_schema`` names them."""

    def test_one_measure_puts_the_post_count_after_the_names(self):
        m = Measure.EDITEX
        assert ps_layout(m) == [("user_name", m), ("real_name", m), ("post_count", None),
                                ("description", m), ("location", m)]
        assert ps_layout(m, False) == [("post_count", None), ("description", m),
                                       ("location", m)]

    @pytest.mark.parametrize("names", [True, False], ids=["names", "no-names"])
    def test_every_measure_is_measure_major_then_the_post_count(self, names):
        fields = PS_TEXT_FIELDS if names else PS_TEXT_FIELDS[2:]
        assert ps_layout(None, names) == [
            *((field, m) for m in Measure for field in fields), ("post_count", None)
        ]

    @pytest.mark.parametrize("names", [True, False], ids=["names", "no-names"])
    @pytest.mark.parametrize("measure", [*Measure, None], ids=lambda m: getattr(m, "value", "all"))
    def test_schema_names_each_layout_entry(self, measure, names):
        layout = ps_layout(measure, names)
        assert len(ps_schema(measure, names)) == len(layout)
        for name, (attr, m) in zip(ps_schema(measure, names), layout):
            assert attr in UserProfile.__dataclass_fields__
            if m is None:
                assert (name, attr) == ("post_ratio", "post_count")
            else:
                assert name == f"{attr}_score" + ("" if measure else f"_{m.value}")


class TestAllMeasuresVector:
    def test_dimension(self):
        a = make_profile(Platform.TWITTER)
        b = make_profile(Platform.FLICKR, user_id="u2")
        values = extract_ps_features_all_measures(a, b, include_names=True)
        assert len(values) == len(ps_schema(None, True)) == 9 * 4 + 1
        values_nn = extract_ps_features_all_measures(a, b, include_names=False)
        assert len(values_nn) == len(ps_schema(None, False)) == 9 * 2 + 1

    def test_identity_all_ones(self):
        a = make_profile(Platform.TWITTER)
        b = make_profile(Platform.FLICKR, user_id="u2")
        values = extract_ps_features_all_measures(a, b)
        assert all(v == 1.0 for v in values)

    def test_columns_are_measure_major(self):
        a = make_profile(Platform.TWITTER, user_name="kwan", description="x")
        b = make_profile(Platform.FLICKR, user_id="u2")
        values = extract_ps_features_all_measures(a, b)
        schema = ps_schema(None)
        assert ps_row(a, b, None) == values
        assert schema[:5] == [
            "user_name_score_levenshtein", "real_name_score_levenshtein",
            "description_score_levenshtein", "location_score_levenshtein",
            "user_name_score_damerau-levenshtein",
        ]
        assert schema[-1] == "post_ratio"
        for measure in Measure:
            single = dict(zip(ps_schema(measure), ps_row(a, b, measure)))
            for field in ("user_name", "real_name", "description", "location"):
                at = schema.index(f"{field}_score_{measure.value}")
                assert values[at] == single[f"{field}_score"]

    def test_same_platform_rejected(self):
        a = make_profile(Platform.FLICKR)
        b = make_profile(Platform.FLICKR, user_id="u2")
        with pytest.raises(SamePlatformError):
            extract_ps_features_all_measures(a, b)


class TestFeaturizePairs:
    def test_empty(self):
        out = featurize_pairs(corpus_of(), [], Measure.EDITEX)
        assert len(out) == 0
        assert out.x.shape == (0, 5)
        for measure, names, width in [(Measure.EDITEX, False, 3), (None, True, 37),
                                      (None, False, 19)]:
            out = featurize_pairs(corpus_of(), [], measure, names)
            assert out.x.shape == (0, width)
            assert out.schema == ps_schema(measure, names)

    def test_identity_pair_with_label(self):
        a = make_profile(Platform.TWITTER)
        b = make_profile(Platform.FLICKR, user_id="u2")
        out = featurize_pairs(corpus_of(a, b), [("u1", "u2", True)], Measure.EDITEX)
        assert len(out) == 1
        assert out.x.tolist() == [[1.0] * 5]

    def test_shape_contract(self):
        profiles, pairs = [], []
        for i in range(5):
            profiles.append(
                make_profile(Platform.TWITTER, user_id=f"t{i}", user_name=f"user{i}")
            )
            profiles.append(
                make_profile(Platform.FLICKR, user_id=f"f{i}", user_name=f"user{i}x")
            )
            pairs.append((f"t{i}", f"f{(i * 2) % 5}", i % 2 == 0))
        corpus = corpus_of(*profiles)
        out = featurize_pairs(corpus, pairs, Measure.COSINE_2GRAM)
        assert out.x.shape == (5, len(out.schema))
        for measure, names in [(Measure.COSINE_2GRAM, True), (Measure.NCD_BZIP2, False),
                               (None, True), (None, False)]:
            out = featurize_pairs(corpus, pairs, measure, include_names=names)
            assert out.x.shape == (5, len(out.schema))
            for row, (t, f, _) in zip(out.x, pairs):
                expected = expected_row(
                    out.schema, corpus.profile(Platform.TWITTER, t),
                    corpus.profile(Platform.FLICKR, f), measure,
                )
                assert row.tolist() == expected


def varied_corpus(seed=0, n=12):
    """Accounts whose fields mix empty, case-only twins, digits, silent h/w
    and non-ASCII letters, and pairs that reuse accounts."""
    rng = random.Random(seed)
    pool = ["", "Kwan Hui", "kwan hui", "KWANHUI", "wh1te", "Hwang", "straße",
            "ça va 2", "  ", "Singapore", "singapur", "photo & travel", "x"]

    def field():
        if rng.random() < 0.6:
            return rng.choice(pool)
        return "".join(rng.choice("abchkqswzHW19é ") for _ in range(rng.randint(1, 45)))

    profiles = [
        UserProfile(platform=platform, user_id=f"{platform.value[0]}{i}",
                    **{name: field() for name in PS_TEXT_FIELDS},
                    post_count=rng.choice([0, 0, 1, 7, 300]))
        for platform in (Platform.TWITTER, Platform.FLICKR) for i in range(n)
    ]
    pairs = [(f"t{rng.randrange(n)}", f"f{rng.randrange(n)}", rng.random() < 0.2)
             for _ in range(5 * n)]
    return corpus_of(*profiles), pairs


class TestColumnPath:
    """``featurize_pairs`` builds the matrix one column at a time; every row
    equals the per-pair reference row."""

    @pytest.mark.parametrize("names", [True, False], ids=["names", "no-names"])
    @pytest.mark.parametrize("measure", [*Measure, None], ids=lambda m: getattr(m, "value", "all"))
    def test_equals_the_per_pair_rows(self, measure, names, monkeypatch):
        # a small block cap cuts each Editex and Smith-Waterman column into
        # several blocks
        monkeypatch.setattr(strsim, "_BLOCK_CELLS", 200)
        corpus, pairs = varied_corpus()
        out = featurize_pairs(corpus, pairs, measure, names)
        assert out.schema == ps_schema(measure, names)
        for row, (t, f, _) in zip(out.x, pairs):
            a = corpus.profile(Platform.TWITTER, t)
            b = corpus.profile(Platform.FLICKR, f)
            assert row.tolist() == expected_row(out.schema, a, b, measure), (t, f)

    def test_calls_the_measure_once_per_column(self, monkeypatch):
        calls = []
        real = strsim.normalized_similarity

        def counting(measure, a, b):
            calls.append((measure, len(a)))
            return real(measure, a, b)

        monkeypatch.setattr("osnmatch.profile_features.normalized_similarity", counting)
        corpus, pairs = varied_corpus()
        featurize_pairs(corpus, pairs, Measure.LCS)
        # only pairs with two different nonempty fields reach the measure
        assert [m for m, _ in calls] == [Measure.LCS] * 4
        assert all(0 < n < len(pairs) for _, n in calls)

    def test_surrogates_astral_and_non_ascii(self):
        lines = [
            {"platform": "twitter", "user_id": "t1", "user_name": "a\ud800b",
             "real_name": "😀 Zoë", "description": "\udfff", "location": "Zürich"},
            {"platform": "flickr", "user_id": "f1", "user_name": "A\ud800",
             "real_name": "zoë 😀", "description": "x\udfffy", "location": "zurich"},
            {"platform": "flickr", "user_id": "f2", "user_name": "😀😀",
             "real_name": "ΣΟΦΙΑ", "description": "\ud83d", "location": "Zürich"},
        ]
        profiles = [parse_profile(json.dumps(obj), "profiles.jsonl", i)
                    for i, obj in enumerate(lines, 1)]
        assert profiles[0].user_name == "a\ud800b"
        corpus = corpus_of(*profiles)
        pairs = [("t1", "f1"), ("t1", "f2")]
        for measure in [*Measure, None]:
            out = featurize_pairs(corpus, pairs, measure)
            for row, (t, f) in zip(out.x, pairs):
                a = corpus.profile(Platform.TWITTER, t)
                b = corpus.profile(Platform.FLICKR, f)
                assert row.tolist() == expected_row(out.schema, a, b, measure)


class TestHelpers:
    def test_post_ratio_both_zero(self):
        assert post_count_ratio(0, 0) == 1.0

    def test_post_ratio_ordering_free(self):
        assert post_count_ratio(25, 100) == post_count_ratio(100, 25) == 0.25

    def test_text_score_missing_policy(self):
        a = make_profile(Platform.TWITTER, user_id="t", user_name="", real_name="",
                         description="x")
        b = make_profile(Platform.FLICKR, user_id="f", user_name="", real_name="x",
                         description="")
        row = dict(zip(ps_schema(Measure.NCD_BZIP2), ps_row(a, b, Measure.NCD_BZIP2)))
        assert row["user_name_score"] == 1.0
        assert row["real_name_score"] == 0.0
        assert row["description_score"] == 0.0
