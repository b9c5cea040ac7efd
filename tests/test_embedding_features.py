import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osnmatch.embedding_features as embedding_features
from osnmatch.dataset import Corpus
from osnmatch.embedding_features import (
    DEFAULT_DIM_CHAR,
    _cosine,
    embed_field,
    hash_fallback_table,
    load_embedding_file,
    pair_embedding_features,
)
from osnmatch.errors import ParseError
from osnmatch.profile_features import Platform, UserProfile


def profile(platform, user_id, user_name="alice", real_name="Alice A",
            description=""):
    return UserProfile(
        platform=platform,
        user_id=user_id,
        user_name=user_name,
        real_name=real_name,
        description=description,
        post_count=1,
    )


def pair_features(a, b, table, include_description=False):
    """(values, schema) of the one pair of a twitter profile a and a flickr
    profile b."""
    corpus = Corpus(
        profiles={(p.platform, p.user_id): p for p in (a, b)}, posts={},
        positive_pairs=[],
    )
    fm = pair_embedding_features(
        corpus, [(a.user_id, b.user_id, True)], table,
        include_description=include_description,
    )
    return fm.x[0].tolist(), fm.schema


class TestLoadEmbeddingFile:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nfoo 1 2 3\nbar 0.5 0.5 0.5\n")
        table = load_embedding_file(str(path))
        assert table.dim_word == 3
        assert table.dim_char == DEFAULT_DIM_CHAR
        assert np.allclose(table.word_vectors["foo"], [1, 2, 3])
        assert table.source == "file"

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nfoo 1 2\n")
        with pytest.raises(ParseError):
            load_embedding_file(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        with pytest.raises(ParseError) as exc:
            load_embedding_file(str(path))
        assert exc.value.line_no == 1

    def test_duplicate_token_last_wins(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nfoo 1 1\nfoo 2 2\n")
        table = load_embedding_file(str(path))
        assert np.allclose(table.word_vectors["foo"], [2, 2])

    def test_inline_char_section(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nfoo 1 2\n#char-ngrams\n1 4\n^fo 1 2 3 4\n")
        table = load_embedding_file(str(path))
        assert table.dim_char == 4
        assert np.allclose(table.char_ngram_vectors["^fo"], [1, 2, 3, 4])

    def test_seed_hashes_the_ngrams_the_section_lacks(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nfoo 1 2\n#char-ngrams\n1 4\n^fo 1 2 3 4\n")
        tables = [load_embedding_file(str(path), seed=seed) for seed in (0, 5)]
        assert np.array_equal(*(t.char_ngram_vector("^fo") for t in tables))
        assert not np.allclose(*(embed_field("foo", t) for t in tables))

    def test_seed_hashes_every_ngram_of_a_word_only_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nfoo 1 2\n")
        tables = [load_embedding_file(str(path), seed=seed) for seed in (5, 0)]
        assert not np.allclose(*(embed_field("foo", t) for t in tables))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("bad_line", [3, 7], ids=["words", "chars"])
    def test_non_finite_value_names_the_line(self, tmp_path, bad_line, value):
        lines = ["2 2", "foo 1 0", "bar 0 1", "#char-ngrams", "2 3", "^fo 1 0 0",
                 "foo 0 1 0"]
        lines[bad_line - 1] = lines[bad_line - 1].rsplit(" ", 1)[0] + f" {value}"
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_embedding_file(str(path))
        assert str(exc.value) == f"{path}:{bad_line}: non-finite vector value"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("nonsense\n")
        with pytest.raises(ParseError):
            load_embedding_file(str(path))

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nfoo 1 abc\n")
        with pytest.raises(ParseError):
            load_embedding_file(str(path))

    @pytest.mark.parametrize("bad_line", [3, 7], ids=["words", "chars"])
    def test_not_utf8_names_the_line(self, tmp_path, bad_line):
        lines = [b"2 2", b"foo 1 0", b"bar 0 1",
                 b"#char-ngrams", b"2 3", b"^fo 1 0 0", b"foo 0 1 0"]
        lines[bad_line - 1] = b"\xc3" + lines[bad_line - 1]
        path = tmp_path / "emb.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError) as exc:
            load_embedding_file(str(path))
        assert str(exc.value) == f"{path}:{bad_line}: not valid UTF-8"

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("2 x\n", 1, "header must be two integers"),
            ("-1 3\n", 1, "invalid header counts: -1 3"),
            ("1 0\n", 1, "invalid header counts: 1 0"),
            ("3 2\nfoo 1 2\nbar 3 4\n", 4, "fewer vector lines than declared"),
            ("2 2\nfoo 1 2\n\nbar 3 4\n", 3, "empty vector line"),
            ("1 2\nfoo 1 2\n#chars\n1 2\n^f 1 2\n", 3,
             "expected '#char-ngrams' or end of file"),
            ("1 2\nfoo 1 2\n#char-ngrams\n1 2\n^f 1 2\nbar 3 4\n", 6,
             "trailing content after sections"),
        ],
        ids=["header-not-integers", "negative-count", "zero-dim", "too-few-vectors",
             "blank-vector-line", "wrong-marker", "trailing-content"],
    )
    def test_malformed_file_names_the_line(self, tmp_path, text, line_no, message):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_embedding_file(str(path))
        assert str(exc.value) == f"{path}:{line_no}: {message}"

    @pytest.mark.parametrize("text", ["1 2\nfoo 1 2\n\n \n\n",
                                      "1 2\nfoo 1 2\n#char-ngrams\n1 2\n^f 1 2\n\n\t\n"],
                             ids=["words", "chars"])
    def test_trailing_blank_lines_load(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        table = load_embedding_file(str(path))
        assert np.array_equal(table.word_vectors["foo"], [1.0, 2.0])


class TestEmbedField:
    @pytest.mark.parametrize(
        "text", [None, "2 3\nab 1 2 3\ncd 0 1 0\n",
                 "1 2\nab 1 2\n#char-ngrams\n1 4\n^ab 1 0 0 0\n"],
        ids=["hash-fallback", "word-only-file", "sectioned-file"],
    )
    def test_every_table_has_both_halves(self, tmp_path, text):
        if text is None:
            table = hash_fallback_table(0)
        else:
            path = tmp_path / "emb.txt"
            path.write_text(text)
            table = load_embedding_file(str(path))
        assert table.dim_word > 0
        assert table.dim_char > 0
        vec = embed_field("ab cd", table)
        assert vec.shape == (table.dim_word + table.dim_char,)
        assert np.linalg.norm(vec[table.dim_word:]) > 0

    def test_empty_field_is_zero(self):
        table = hash_fallback_table(seed=7)
        vec = embed_field("", table)
        assert vec.shape == (64,)
        assert np.all(vec == 0.0)

    def test_nonempty_field_is_nonzero(self):
        table = hash_fallback_table(seed=7)
        assert np.linalg.norm(embed_field("x", table)) > 0

    def test_single_known_token_word_only(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nhello 1 2 3\n")
        table = load_embedding_file(str(path))
        vec = embed_field("hello", table)
        assert np.allclose(vec[:3], [1, 2, 3])
        assert vec[3:].shape == (DEFAULT_DIM_CHAR,)

    def test_duplication_invariance(self):
        table = hash_fallback_table(seed=7)
        assert np.allclose(embed_field("ab ab", table), embed_field("ab", table))

    def test_order_invariance(self):
        table = hash_fallback_table(seed=7)
        assert np.allclose(embed_field("ab cd", table), embed_field("cd ab", table))

    def test_case_folded(self):
        table = hash_fallback_table(seed=7)
        assert np.allclose(embed_field("Alice", table), embed_field("alice", table))

    def test_determinism_across_tables(self):
        a = embed_field("somebody", hash_fallback_table(seed=3))
        b = embed_field("somebody", hash_fallback_table(seed=3))
        assert np.array_equal(a, b)

    def test_seed_changes_vectors(self):
        a = embed_field("somebody", hash_fallback_table(seed=3))
        b = embed_field("somebody", hash_fallback_table(seed=4))
        assert not np.allclose(a, b)

    @given(st.text(alphabet="abc ", max_size=12))
    @settings(max_examples=30)
    def test_finite(self, text):
        table = hash_fallback_table(seed=1)
        assert np.all(np.isfinite(embed_field(text, table)))


class TestPairEmbeddingFeatures:
    def test_identical_profiles_all_ones(self):
        table = hash_fallback_table(seed=5)
        a = profile(Platform.TWITTER, "t1")
        b = profile(Platform.FLICKR, "f1")
        values, _ = pair_features(a, b, table)
        assert all(v == pytest.approx(1.0) for v in values)

    def test_dimension_contract(self):
        table = hash_fallback_table(seed=5)
        a = profile(Platform.TWITTER, "t1")
        b = profile(Platform.FLICKR, "f1")
        assert len(pair_features(a, b, table)[0]) == 2 * (32 + 32 + 1)
        assert len(
            pair_features(a, b, table, include_description=True)[0]
        ) == 3 * (32 + 32 + 1)

    def test_orthogonal_tokens_cosine_feature(self, tmp_path):
        path = tmp_path / "emb.txt"
        # foo's n-grams and bar's are orthogonal too
        path.write_text("2 2\nfoo 1 0\nbar 0 1\n#char-ngrams\n6 2\n"
                        "^fo 1 0\nfoo 1 0\noo$ 1 0\n^ba 0 1\nbar 0 1\nar$ 0 1\n")
        table = load_embedding_file(str(path))
        a = profile(Platform.TWITTER, "t1", user_name="foo", real_name="foo")
        b = profile(Platform.FLICKR, "f1", user_name="bar", real_name="bar")
        values, schema = pair_features(a, b, table)
        by_name = dict(zip(schema, values))
        assert by_name["user_name_cosine"] == pytest.approx(0.5)

    def test_symmetry(self):
        table = hash_fallback_table(seed=5)
        a = profile(Platform.TWITTER, "t1", user_name="alice", real_name="Alice")
        b = profile(Platform.FLICKR, "f1", user_name="alyce", real_name="Alyce B")
        swapped_a = profile(Platform.TWITTER, "t1", user_name="alyce", real_name="Alyce B")
        swapped_b = profile(Platform.FLICKR, "f1", user_name="alice", real_name="Alice")
        fwd, _ = pair_features(a, b, table)
        rev, _ = pair_features(swapped_a, swapped_b, table)
        assert fwd == pytest.approx(rev)

    def test_range(self):
        table = hash_fallback_table(seed=5)
        a = profile(Platform.TWITTER, "t1", user_name="completely")
        b = profile(Platform.FLICKR, "f1", user_name="different")
        values, _ = pair_features(a, b, table, include_description=True)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_rows_match_per_pair_formula(self, monkeypatch):
        table = hash_fallback_table(seed=5)
        calls = []

        def counting(text, tbl):
            calls.append(text)
            return embed_field(text, tbl)

        monkeypatch.setattr(embedding_features, "embed_field", counting)
        profiles = [
            profile(Platform.TWITTER, "t1", user_name="alice", real_name="Alice A"),
            profile(Platform.TWITTER, "t2", user_name="bob", real_name=""),
            profile(Platform.FLICKR, "f1", user_name="alyce", real_name="Alice"),
            profile(Platform.FLICKR, "f2", user_name="bobby", real_name="Bob B"),
        ]
        corpus = Corpus(
            profiles={(p.platform, p.user_id): p for p in profiles}, posts={},
            positive_pairs=[],
        )
        pairs = [("t1", "f1", True), ("t2", "f2", True), ("t1", "f2", False),
                 ("t2", "f1", False), ("t1", "f1", True)]
        fm = pair_embedding_features(corpus, pairs, table)
        assert len(calls) == 4 * 2  # once per account and field
        for row, (t, f, _) in zip(fm.x, pairs):
            expected = []
            for name in ("user_name", "real_name"):
                e_a = embed_field(getattr(corpus.profile(Platform.TWITTER, t), name), table)
                e_b = embed_field(getattr(corpus.profile(Platform.FLICKR, f), name), table)
                expected += (1.0 / (1.0 + np.abs(e_a - e_b))).tolist()
                expected.append((_cosine(e_a, e_b) + 1.0) / 2.0)
            assert row.tolist() == expected
