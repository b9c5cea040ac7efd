import json
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnmatch import dataset, synth
from osnmatch.embedding_features import hash_fallback_table, pair_embedding_features
from osnmatch.dataset import (
    LabeledPairSet,
    _load_pairs,
    _load_posts,
    k_folds,
    k_folds_user_disjoint,
    load_corpus,
    negative_sample,
    parse_profile,
    split,
)
from osnmatch.errors import (
    DegenerateSplitError,
    DimensionMismatchError,
    EmptyCorpusError,
    InsufficientPoolError,
    OsnMatchError,
    ParseError,
    TooFewExamplesError,
)
from osnmatch.profile_features import Platform, featurize_pairs
from osnmatch.strsim import Measure
from osnmatch.temporal_features import HistogramMode, build_histogram

from .oracles import (
    k_folds_reference,
    k_folds_user_disjoint_reference,
    pairs_filter_reference,
    sparse_negatives_reference,
    split_reference,
)


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


def make_set(n_pos, n_neg):
    pairs = [(f"t{i}", f"f{i}") for i in range(n_pos)]
    pairs += [(f"t{i}", f"f{(i + 1) % max(n_pos, 1)}") for i in range(n_neg)]
    return LabeledPairSet(pairs, np.arange(n_pos + n_neg) < n_pos)


def all_rows(s):
    return np.arange(len(s.pairs))


def gather(s, rows):
    """The (t, f, label) triples that row indices name, in their order."""
    labels = s.labels.tolist()
    return [(*s.pairs[r], labels[r]) for r in rows]


def triples(s):
    return gather(s, all_rows(s))


def class_counts(s, rows):
    n_pos = int(np.count_nonzero(s.labels[rows]))
    return n_pos, len(rows) - n_pos


class TestLoadCorpus:
    def test_basic_load(self, tmp_path):
        paths = write_corpus(tmp_path)
        corpus = load_corpus(*paths)
        assert len(corpus.positive_pairs) == 2
        assert corpus.dropped_pairs == 0
        assert corpus.profile(Platform.TWITTER, "t0").user_name == "t0"
        assert len(corpus.posts_for(Platform.TWITTER, "t0")) == 1
        silent = corpus.posts_for(Platform.FLICKR, "f9")
        assert silent.tolist() == [] and silent.dtype == np.int64

    @pytest.mark.parametrize("blank", [" ", "   ", "\t\r\n", "\u3000"],
                             ids=["space", "spaces", "controls", "ideographic"])
    def test_whitespace_only_text_is_absent_in_every_family(self, tmp_path, blank):
        paths = write_corpus(tmp_path, n_twitter=1, n_flickr=1, pairs=[("t0", "f0")])
        Path(paths[0]).write_text(
            profile_line("twitter", "t0", user_name=blank, description=blank,
                         real_name=" Al ") + "\n"
            + profile_line("flickr", "f0", user_name="", real_name=" Al ") + "\n"
        )
        corpus = load_corpus(*paths)
        twitter = corpus.profile(Platform.TWITTER, "t0")
        assert (twitter.user_name, twitter.description, twitter.real_name) == ("", "", " Al ")
        pairs = [("t0", "f0")]
        ps = featurize_pairs(corpus, pairs, Measure.EDITEX)
        ps_row = dict(zip(ps.schema, ps.x[0].tolist()))
        assert ps_row["user_name_score"] == ps_row["description_score"] == 1.0
        emb = pair_embedding_features(corpus, pairs, hash_fallback_table(),
                                      include_description=True)
        for field in ("user_name", "description"):
            values = [v for name, v in zip(emb.schema, emb.x[0].tolist())
                      if name.startswith(f"{field}_")]
            assert values == [1.0] * len(values)  # two zero vectors, cosine 1

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

    def test_pairs_row_is_numbered_by_physical_line(self, tmp_path):
        # the quoted id of the row on lines 2-3 spans two lines
        paths = write_corpus(tmp_path, pairs=[('"t\n0"', "f0"), ("t1", "f1,x")])
        with pytest.raises(ParseError) as exc:
            load_corpus(*paths)
        assert str(exc.value) == f"{paths[2]}:4: expected 2 columns, got 3"

    def test_pairs_field_over_the_csv_limit(self, tmp_path):
        paths = write_corpus(tmp_path, pairs=[("t0", "f0"), ("t1", "f" * 131_073)])
        with pytest.raises(ParseError) as exc:
            load_corpus(*paths)
        assert str(exc.value) == (
            f"{paths[2]}:3: bad CSV: field larger than field limit (131072)"
        )

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


# a blank row, padded fields, a repeat of a kept pair and a dangling pair
# written twice: six data rows, of which two pairs are kept
MIXED_PAIRS_CSV = (
    "twitter_id,flickr_id\n"
    " t1 , f1 \n"
    "t0,f0\n"
    "\n"
    "t1,f1\n"
    "t9,f0\n"
    "t9,f0\n"
    "t0,\tf0\n"
)


class TestPairsTable:
    def test_distinct_pairs_in_first_row_order(self, tmp_path):
        paths = write_corpus(tmp_path)
        (tmp_path / "pairs.csv").write_text(MIXED_PAIRS_CSV)
        corpus = load_corpus(*paths)
        assert corpus.positive_pairs == [("t1", "f1"), ("t0", "f0")]
        assert corpus.dropped_pairs == 6 - 2

    def test_dangling_pair_written_twice_counts_twice(self, tmp_path):
        paths = write_corpus(tmp_path, pairs=[("t0", "f0"), ("t9", "f0"), ("t9", "f0")])
        corpus = load_corpus(*paths)
        assert corpus.positive_pairs == [("t0", "f0")]
        assert corpus.dropped_pairs == 2

    def test_reader_keeps_every_data_row(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text(MIXED_PAIRS_CSV)
        assert _load_pairs(str(path)) == [("t1", "f1"), ("t0", "f0"), ("t1", "f1"),
                                          ("t9", "f0"), ("t9", "f0"), ("t0", "f0")]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["t0", " t1", "t2 ", "t9"]),
                                   st.sampled_from(["f0", "f1 ", " f2", "f9"])),
                         max_size=8))
    def test_equals_the_seen_set_loop(self, fuzz_dir, rows):
        path = fuzz_dir / "drawn-pairs.csv"
        path.write_text("twitter_id,flickr_id\n" + "".join(f"{t},{f}\n" for t, f in rows))
        accounts = {(p, f"{p[0]}{i}") for p in ("twitter", "flickr") for i in range(3)}
        kept, dropped = pairs_filter_reference(
            [(t.strip(), f.strip()) for t, f in rows], accounts
        )
        if not kept:
            with pytest.raises(EmptyCorpusError):
                load_corpus(str(fuzz_dir / "profiles.jsonl"), None, str(path))
            return
        corpus = load_corpus(str(fuzz_dir / "profiles.jsonl"), None, str(path))
        assert corpus.positive_pairs == kept
        assert corpus.dropped_pairs == dropped


def test_blank_profile_lines_are_skipped(tmp_path):
    paths = write_corpus(tmp_path, n_twitter=2, n_flickr=2)
    profiles = tmp_path / "profiles.jsonl"
    profiles.write_text("\n" + profiles.read_text().replace("\n", "\n \t\n"))
    corpus = load_corpus(*paths)
    assert set(corpus.profiles) == {(Platform.TWITTER, "t0"), (Platform.TWITTER, "t1"),
                                    (Platform.FLICKR, "f0"), (Platform.FLICKR, "f1")}


def post_line(timestamp, platform="twitter", user_id="t0"):
    return json.dumps({"platform": platform, "user_id": user_id, "timestamp": timestamp})


def posts_reference(path):
    """Post times grouped per account, decoded line by line with the
    standard library alone: whole UTC epoch seconds by integer timedelta
    arithmetic."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    posts = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                platform = Platform(obj["platform"])
                ts = datetime.fromisoformat(obj["timestamp"].replace("Z", "+00:00"))
                posts.setdefault((platform, obj["user_id"]), []).append(
                    (ts - epoch) // timedelta(seconds=1)
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
        seconds = load_corpus(*paths).posts_for(Platform.TWITTER, "t0")
        utc = [datetime.fromtimestamp(s, timezone.utc) for s in seconds.tolist()]
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
        assert [(k, v.tolist()) for k, v in loaded.items()] == list(reference.items())
        assert all(v.dtype == np.int64 for v in loaded.values())
        assert sum(len(v) for v in loaded.values()) == summary["posts"]


GOOD_POST = post_line("2022-05-01T09:30:00+00:00")

# the loader's messages for malformed post lines, as json.loads and the
# per-field checks word them
BAD_POST_LINES = {
    "trailing-data": (GOOD_POST + " x", "bad JSON: Extra data"),
    "two-objects": ("{}{}", "bad JSON: Extra data"),
    "bom": ("\ufeff" + GOOD_POST, "bad JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "nan": ("NaN", "expected a JSON object"),
    "deep": ("[" * 100_000, "bad JSON: maximum recursion depth exceeded while decoding"
                            " a JSON array from a unicode string"),
    "long-int": ('{"platform": "twitter", "user_id": "t0", "timestamp": ' + "1" * 4301 + "}",
                 "bad JSON: Exceeds the limit (4300 digits) for integer string conversion:"
                 " value has 4301 digits; use sys.set_int_max_str_digits() to increase"
                 " the limit"),
    "array": ("[1, 2]", "expected a JSON object"),
    "string": ('"twitter"', "expected a JSON object"),
    "unterminated": ('{"platform": "twitter', "bad JSON: Invalid control character at"),
    "form-feed-before-json": (" \x0c" + GOOD_POST, "bad JSON: Expecting value"),
    "empty-object": ("{}", "unknown platform None"),
    "last-key-wins": (GOOD_POST[:-1] + ', "platform": "Flickr"}', "unknown platform 'Flickr'"),
    "empty-user": (post_line("2022-05-01T09:30:00+00:00", user_id=""),
                   "user_id must be a nonempty string"),
    "number-timestamp": (GOOD_POST.replace('"2022-05-01T09:30:00+00:00"', "1651397400"),
                         "bad timestamp 1651397400"),
    "naive": (post_line("2022-05-01T09:30:00"),
              "timestamp '2022-05-01T09:30:00' lacks a timezone"),
    "a-microsecond-early": (post_line("1989-12-31T23:59:59.999999Z"),
                            "timestamp '1989-12-31T23:59:59.999999Z' outside 1990..now"),
}


class _Clock2031(datetime):
    """A clock that reads 2031, so that instants up to 2030 load."""

    @classmethod
    def now(cls, tz=None):
        return datetime(2031, 1, 1, tzinfo=tz)


class TestPostLineDecoding:
    @pytest.mark.parametrize("line, message", BAD_POST_LINES.values(), ids=BAD_POST_LINES)
    def test_malformed_line_message(self, tmp_path, line, message):
        path = tmp_path / "posts.jsonl"
        path.write_text(GOOD_POST + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            _load_posts(str(path))
        assert str(exc.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("blank", ["\x0c", " ", "\u00a0", "\t\r"])
    def test_unicode_whitespace_line_is_blank(self, tmp_path, blank):
        path = tmp_path / "posts.jsonl"
        path.write_text(blank + "\n" + GOOD_POST + "\r\n" + GOOD_POST, encoding="utf-8")
        assert _load_posts(str(path))[(Platform.TWITTER, "t0")].tolist() == [1651397400] * 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2030, 12, 31)),
        st.integers(-14 * 60, 14 * 60),
    ), min_size=1, max_size=20))
    def test_seconds_bin_as_the_utc_datetime(self, fuzz_dir, instants):
        utc = [t.replace(tzinfo=timezone.utc) for t, _ in instants]
        stamps = [u.astimezone(timezone(timedelta(minutes=m)))
                  for u, (_, m) in zip(utc, instants)]
        path = fuzz_dir / "zoned-posts.jsonl"
        path.write_text("\n".join(post_line(t.isoformat()) for t in stamps))
        with mock.patch.object(dataset, "datetime", _Clock2031):
            seconds = _load_posts(str(path))[(Platform.TWITTER, "t0")]
        epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
        assert seconds.tolist() == [(u - epoch) // timedelta(seconds=1) for u in utc]
        for s, u in zip(seconds, utc):
            one = np.array([s])
            assert build_histogram(one, HistogramMode.HOUR_OF_DAY)[u.hour] == 1
            assert build_histogram(one, HistogramMode.DAY_OF_WEEK)[u.weekday()] == 1


class TestUndecodableInput:
    """Bytes that are not UTF-8, and JSON that cannot be decoded for other
    reasons than its syntax, give a ParseError at their line."""

    @pytest.mark.parametrize("kind", ["profiles", "posts", "pairs"])
    def test_not_utf8_names_the_line(self, tmp_path, kind):
        # line 301 lies past the first read chunk of the profiles and posts
        paths = write_corpus(tmp_path, n_twitter=400, n_flickr=400,
                             pairs=[(f"t{i}", f"f{i}") for i in range(400)],
                             posts=[post_line("2022-05-01T09:30:00+00:00")] * 400)
        path = dict(zip(["profiles", "posts", "pairs"], paths))[kind]
        with open(path, "rb") as fh:
            lines = fh.readlines()
        lines[300] = lines[300][:3] + b"\xff" + lines[300][3:]
        with open(path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(ParseError) as exc:
            load_corpus(*paths)
        assert str(exc.value) == f"{path}:301: not valid UTF-8"

    def test_not_utf8_line_counts_carriage_returns(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        good = post_line("2022-05-01T09:30:00+00:00").encode()
        path.write_bytes(good + b"\r\n" + good + b"\r" + b"\xe2\x82\n" + good + b"\n")
        with pytest.raises(ParseError) as exc:
            _load_posts(str(path))
        assert exc.value.line_no == 3

    def test_posts_nested_past_the_recursion_limit(self, tmp_path):
        paths = write_corpus(tmp_path, posts=[post_line("2022-05-01T09:30:00+00:00"),
                                              "[" * 100_000])
        with pytest.raises(ParseError) as exc:
            load_corpus(*paths)
        assert str(exc.value).startswith(f"{paths[1]}:2: bad JSON: maximum recursion")

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, '{"platform": "twitter", "user_id": "t0", "post_count": '
                 + "1" * 5000 + "}"],
        ids=["deep", "overlong-int"],
    )
    def test_profile_json_beyond_the_decoder(self, text):
        with pytest.raises(ParseError) as exc:
            parse_profile(text, "profiles.jsonl", 7)
        assert str(exc.value).startswith("profiles.jsonl:7: bad JSON: ")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _json_object(fields):
    """JSON text of an object with every one of ``fields``, each a
    well-formed or an arbitrary value, then a few fields or other keys
    overwritten with arbitrary values."""
    good = st.fixed_dictionaries({name: value | JSON_VALUES for name, value in fields.items()})
    extra = st.dictionaries(st.sampled_from(sorted(fields)) | st.text(max_size=4),
                            JSON_VALUES, max_size=3)
    return st.builds(lambda a, b: json.dumps({**a, **b}), good, extra)


PROFILE_JSON = _json_object({
    "platform": st.sampled_from(["twitter", "flickr"]),
    "user_id": st.text(max_size=4),
    "user_name": st.text(max_size=6),
    "post_count": st.integers(0, 10),
})
POST_JSON = _json_object({
    "platform": st.sampled_from(["twitter", "flickr"]),
    "user_id": st.text(max_size=4),
    "timestamp": st.datetimes(timezones=st.none() | st.just(timezone.utc)).map(
        datetime.isoformat
    ),
})
FUZZ = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    write_corpus(out)
    return out


def _lines(line):
    return st.lists(line | st.text(max_size=12), max_size=4).map("\n".join)


def _file_bytes(line):
    return _lines(line).map(str.encode) | st.binary(max_size=64)


class TestLoaderFuzz:
    """Whatever the input, the loaders return or raise an OsnMatchError."""

    @FUZZ
    @given(text=PROFILE_JSON | st.text(max_size=40))
    def test_parse_profile(self, text):
        try:
            parse_profile(text, "profiles.jsonl", 1)
        except OsnMatchError:
            pass

    @FUZZ
    @given(data=_file_bytes(POST_JSON))
    def test_load_posts(self, fuzz_dir, data):
        path = fuzz_dir / "fuzzed-posts.jsonl"
        path.write_bytes(data)
        try:
            _load_posts(str(path))
        except OsnMatchError:
            pass

    @FUZZ
    @given(data=_file_bytes(st.sampled_from(["twitter_id,flickr_id", "t0,f0", "t9,f0",
                                             "t0", '"t0",f1,x'])))
    def test_load_pairs(self, fuzz_dir, data):
        path = fuzz_dir / "fuzzed-pairs.csv"
        path.write_bytes(data)
        try:
            load_corpus(str(fuzz_dir / "profiles.jsonl"), str(fuzz_dir / "posts.jsonl"),
                        str(path))
        except OsnMatchError:
            pass


class TestLabeledPairSet:
    @pytest.mark.parametrize("labels", [[True], [True, False, True], [[True, False]]])
    def test_one_label_per_pair(self, labels):
        with pytest.raises(DimensionMismatchError):
            LabeledPairSet([("t0", "f0"), ("t1", "f0")], labels)


class TestNegativeSample:
    def test_exact_ratio(self, tmp_path):
        paths = write_corpus(tmp_path, n_twitter=30, n_flickr=30,
                             pairs=[(f"t{i}", f"f{i}") for i in range(10)])
        corpus = load_corpus(*paths)
        s = negative_sample(corpus, 8, seed=1)
        assert s.n_pos == 10
        assert s.n_neg == 80
        assert len(s.pairs) == 90

    def test_pairs_are_id_pairs_and_the_positives_lead(self, tmp_path):
        paths = write_corpus(tmp_path, n_twitter=20, n_flickr=20,
                             pairs=[(f"t{i}", f"f{i}") for i in range(5)])
        corpus = load_corpus(*paths)
        s = negative_sample(corpus, 3, seed=2)
        assert all(type(p) is tuple and len(p) == 2 for p in s.pairs)
        assert s.pairs[:5] == corpus.positive_pairs
        assert s.labels.tolist() == [True] * 5 + [False] * 15

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
        negatives = [t_f for t_f, lbl in zip(s.pairs, s.labels) if not lbl]
        assert not positives & set(negatives)
        assert len(set(negatives)) == len(negatives)

    def test_insufficient_pool(self, tmp_path):
        paths = write_corpus(tmp_path, n_twitter=2, n_flickr=2,
                             pairs=[("t0", "f0"), ("t1", "f1")])
        corpus = load_corpus(*paths)
        with pytest.raises(InsufficientPoolError):
            negative_sample(corpus, 8, seed=1)

    @pytest.mark.parametrize("n_twitter, n_flickr, n_pos, ratio, seed", [
        (30, 30, 10, 8, 1), (40, 9, 9, 4, 7), (6, 50, 6, 3, 42), (25, 25, 25, 8, 0),
        (3, 3, 1, 8, 1), (5, 5, 2, 6, 3),
    ])
    def test_equals_the_scalar_draws(self, tmp_path, n_twitter, n_flickr, n_pos, ratio,
                                     seed):
        # (25, 25, 25, 8, 0) rejects enough candidates to need more than one
        # batch; the last two ask for the whole pool of 8 non-pairs, and for
        # 12 of a pool of 23
        paths = write_corpus(tmp_path, n_twitter=n_twitter, n_flickr=n_flickr,
                             pairs=[(f"t{i}", f"f{i}") for i in range(n_pos)])
        corpus = load_corpus(*paths)
        s = negative_sample(corpus, ratio, seed)
        got = [t_f for t_f, lbl in zip(s.pairs, s.labels) if not lbl]
        want = sparse_negatives_reference(
            [f"t{i}" for i in range(n_twitter)], [f"f{i}" for i in range(n_flickr)],
            corpus.positive_pairs, ratio * n_pos, seed,
        )
        assert got == want

    @pytest.mark.parametrize("bounds", [(7, 7), (3, 1000), (2**33, 5)])
    def test_batch_rows_continue_the_scalar_sequence(self, bounds):
        batched, scalar = np.random.default_rng(5), np.random.default_rng(5)
        rows = [batched.integers(np.array(bounds), size=(n, 2)) for n in (50, 10)]
        want = [int(scalar.integers(bounds[i % 2])) for i in range(120)]
        assert np.concatenate(rows).ravel().tolist() == want

    def test_dense_request_exhausts_pool_exactly(self, tmp_path):
        paths = write_corpus(tmp_path, n_twitter=3, n_flickr=3,
                             pairs=[("t0", "f0")])
        corpus = load_corpus(*paths)
        s = negative_sample(corpus, 8, seed=1)  # pool is exactly 8
        assert s.n_neg == 8

    def test_negative_ratio_is_rejected(self, tmp_path):
        corpus = load_corpus(*write_corpus(tmp_path))
        with pytest.raises(ValueError, match="neg_ratio must be >= 0"):
            negative_sample(corpus, -1, seed=0)


class TestSplit:
    def test_stratified_arithmetic(self):
        s = make_set(8, 64)
        train, test = split(s, all_rows(s), 0.75, seed=0)
        assert class_counts(s, train) == (6, 48)
        assert class_counts(s, test) == (2, 16)

    def test_half_split(self):
        s = make_set(2, 2)
        train, test = split(s, all_rows(s), 0.5, seed=0)
        assert class_counts(s, train) == (1, 1)
        assert class_counts(s, test) == (1, 1)

    def test_partition_exact(self):
        s = make_set(9, 33)
        train, test = split(s, all_rows(s), 0.6, seed=5)
        assert sorted(gather(s, train) + gather(s, test)) == sorted(triples(s))
        assert not set(gather(s, train)) & set(gather(s, test))

    def test_degenerate(self):
        s = make_set(1, 8)
        with pytest.raises(DegenerateSplitError):
            split(s, all_rows(s), 0.75, seed=0)

    def test_bad_fraction(self):
        s = make_set(4, 4)
        with pytest.raises(ValueError):
            split(s, all_rows(s), 1.0, seed=0)

    @given(n_pos=st.integers(2, 30), ratio=st.integers(1, 6),
           seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_property_partition(self, n_pos, ratio, seed):
        s = make_set(n_pos, n_pos * ratio)
        frac = 0.75
        try:
            train, test = split(s, all_rows(s), frac, seed)
        except DegenerateSplitError:
            return
        assert sorted(gather(s, train) + gather(s, test)) == sorted(triples(s))
        assert class_counts(s, train)[0] == int(n_pos * frac)

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_subset_equals_the_pair_list_split(self, seed):
        # the rows of one training fold, in fold order, as cross_validate
        # hands them over
        s = make_set(13, 71)
        rows = k_folds(s, 5, seed)[2][0]
        train, test = split(s, rows, 0.9, seed)
        assert (gather(s, train), gather(s, test)) == split_reference(
            gather(s, rows), 0.9, seed
        )
        assert train.dtype == test.dtype == np.intp


class TestKFolds:
    def test_stratified_sizes(self):
        s = make_set(10, 80)
        folds = k_folds(s, 10, seed=2)
        assert len(folds) == 10
        for train, test in folds:
            assert class_counts(s, test) == (1, 8)
            assert class_counts(s, train) == (9, 72)

    def test_every_pair_in_exactly_one_test_fold(self):
        s = make_set(7, 23)
        folds = k_folds(s, 5, seed=2)
        seen = []
        for _, test in folds:
            seen.extend(gather(s, test))
        assert sorted(seen) == sorted(triples(s))

    def test_k2_on_two_per_class(self):
        s = make_set(2, 2)
        folds = k_folds(s, 2, seed=0)
        for _, test in folds:
            assert class_counts(s, test) == (1, 1)

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
            assert not set(gather(s, train)) & set(gather(s, test))
            assert sorted(gather(s, train) + gather(s, test)) == sorted(triples(s))

    @pytest.mark.parametrize("n_pos, n_neg, k, seed", [(30, 240, 2, 0), (30, 240, 5, 1),
                                                        (30, 240, 10, 42), (12, 0, 3, 7)])
    def test_equals_the_pair_list_folds(self, n_pos, n_neg, k, seed):
        s = make_set(n_pos, n_neg)
        got = [(gather(s, a), gather(s, b)) for a, b in k_folds(s, k, seed)]
        assert got == k_folds_reference(triples(s), k, seed)


# positives that share a user with the one-to-one t{i}-f{i}: groups of 3
# (t0-f0, t1-f1, t0-f1; t3-f3, t3-f33, t34-f33) and of 2 (t5-f5, t5-f25;
# t26-f9, t9-f9; t12-f12, t12-f31)
_SHARED_POSITIVES = (("t0", "f1"), ("t3", "f33"), ("t34", "f33"), ("t5", "f25"),
                     ("t26", "f9"), ("t12", "f31"))


class TestUserDisjoint:
    @pytest.mark.parametrize("k, seed, shared", [
        pytest.param(2, 0, (), id="2-0"),
        pytest.param(3, 7, (), id="3-7"),
        pytest.param(5, 1, (), id="5-1"),
        pytest.param(10, 301, (), id="10-301"),
        pytest.param(2, 3, _SHARED_POSITIVES, id="2-3-shared-users"),
        pytest.param(3, 11, _SHARED_POSITIVES, id="3-11-shared-users"),
        pytest.param(4, 5, _SHARED_POSITIVES, id="4-5-shared-users"),
        pytest.param(7, 8, _SHARED_POSITIVES, id="7-8-shared-users"),
    ])
    def test_equals_the_per_fold_scan(self, k, seed, shared):
        # negatives join users with and without positives, so some of the
        # drawn folds are used and some are not
        rng = np.random.default_rng(seed)
        pairs = [(f"t{i}", f"f{i}") for i in range(20)] + list(shared)
        n_pos = len(pairs)
        negs = {(f"t{rng.integers(40)}", f"f{rng.integers(40)}") for _ in range(300)}
        pairs += sorted(negs - {(f"t{i}", f"f{i}") for i in range(40)} - set(shared))
        s = LabeledPairSet(pairs, np.arange(len(pairs)) < n_pos)
        got = k_folds_user_disjoint(s, k, seed)
        want = k_folds_user_disjoint_reference(triples(s), k, seed)
        assert [(gather(s, a), gather(s, b)) for a, b in got] == want

    def test_folds_test_users_not_in_train(self):
        s = make_set(12, 60)
        for train, test in k_folds_user_disjoint(s, 4, seed=1):
            train_users = {u for t, f, _ in gather(s, train) for u in (("t", t), ("f", f))}
            test_users = {u for t, f, _ in gather(s, test) for u in (("t", t), ("f", f))}
            assert not train_users & test_users

    def test_positive_coverage(self):
        s = make_set(12, 0)
        folds = k_folds_user_disjoint(s, 4, seed=1)
        seen = []
        for _, test in folds:
            seen.extend(p for p in gather(s, test) if p[2])
        assert sorted(seen) == sorted(p for p in triples(s) if p[2])

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            k_folds_user_disjoint(make_set(5, 5), 1, seed=0)

    def test_fewer_user_groups_than_k(self):
        # t0-f0 and t0-f1 share a user: three positives, two groups
        s = LabeledPairSet([("t0", "f0"), ("t0", "f1"), ("t2", "f2"), ("t2", "f0")],
                           np.array([True, True, True, False]))
        with pytest.raises(TooFewExamplesError, match="2 user groups with positives"):
            k_folds_user_disjoint(s, 3, seed=0)
