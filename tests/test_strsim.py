import bz2
import math
import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnmatch.dataset import load_corpus, negative_sample
from osnmatch.profile_features import PS_TEXT_FIELDS, Platform
from osnmatch.strsim import (
    Measure,
    cosine_2gram,
    damerau_levenshtein,
    editex,
    jaccard_2gram,
    jaro_winkler,
    lcs_length,
    levenshtein,
    ncd_bzip2,
    normalized_similarity,
    smith_waterman,
)
from osnmatch.synth import generate_corpus

from .oracles import (
    editex_memo,
    editex_naive,
    lcs_memo,
    lcs_naive,
    levenshtein_memo,
    levenshtein_naive,
    osa_memo,
    osa_naive,
    smith_waterman_full_matrix,
)

words = st.text(alphabet="abcd", max_size=6)
any_text = st.text(max_size=12)
# long enough to fill several 30-bit digits of the bit-vector masks
long_text = st.text(alphabet="abcshwxz é", min_size=40, max_size=150)
long_examples = settings(max_examples=30, deadline=None)


@contextmanager
def deep_recursion():
    """The memo oracles recurse as deep as the two lengths added up."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10_000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty_vs_nonempty(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_classic(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_case_folded(self):
        assert levenshtein("ABC", "abc") == 0

    @given(words, words)
    def test_matches_recursion(self, a, b):
        assert levenshtein(a, b) == levenshtein_naive(a, b)

    @given(long_text, long_text)
    @long_examples
    def test_matches_recursion_long(self, a, b):
        with deep_recursion():
            assert levenshtein(a, b) == levenshtein_memo(a, b)


class TestDamerauLevenshtein:
    def test_single_transposition(self):
        assert damerau_levenshtein("ab", "ba") == 1

    def test_identity(self):
        assert damerau_levenshtein("abc", "abc") == 0

    def test_no_reedit_after_transposition(self):
        # the restricted variant cannot reuse a transposed block
        assert damerau_levenshtein("ca", "abc") == 3

    @given(words, words)
    def test_matches_recursion(self, a, b):
        assert damerau_levenshtein(a, b) == osa_naive(a, b)

    @given(long_text, long_text)
    @long_examples
    def test_matches_recursion_long(self, a, b):
        with deep_recursion():
            assert damerau_levenshtein(a, b) == osa_memo(a, b)

    @given(any_text, any_text)
    def test_never_exceeds_levenshtein(self, a, b):
        assert damerau_levenshtein(a, b) <= levenshtein(a, b)


class TestEditex:
    def test_identity(self):
        assert editex("abc", "abc") == 0

    def test_same_group_substitution(self):
        assert editex("can", "kan") == 1  # c and k share a group

    def test_disjoint_words(self):
        assert editex("cat", "dog") == editex_naive("cat", "dog") == 5

    def test_silent_letter_discount(self):
        # the discount keys on the predecessor: deleting a character that
        # follows h or w costs 1 instead of 2
        assert editex("hot", "ht") == 1
        assert editex("what", "wat") == 1
        assert editex("ghost", "gost") == 2  # predecessor of h is g

    def test_multi_group_letters(self):
        # c shares a group with k and with s through different groups
        assert editex("c", "k") == 1
        assert editex("c", "s") == 1

    def test_digits_only_match_themselves(self):
        assert editex("a1", "a2") == 2
        assert editex("a1", "a1") == 0

    @given(words, words)
    def test_matches_recursion(self, a, b):
        assert editex(a, b) == editex_naive(a, b)

    @given(long_text, long_text)
    @long_examples
    def test_matches_recursion_long(self, a, b):
        with deep_recursion():
            assert editex(a, b) == editex_memo(a, b)

    @given(st.text(alphabet="chw1", max_size=5), st.text(alphabet="chw1", max_size=5))
    def test_matches_recursion_silent_letters(self, a, b):
        assert editex(a, b) == editex_naive(a, b)


class TestJaroWinkler:
    def test_identity(self):
        assert jaro_winkler("abc", "abc") == 1.0

    def test_disjoint(self):
        assert jaro_winkler("abc", "xyz") == 0.0

    def test_classic(self):
        assert jaro_winkler("martha", "marhta") == pytest.approx(0.9611, abs=1e-4)

    def test_prefix_bonus_capped_at_four(self):
        # identical 5-char prefixes should get the same boost as 4-char ones
        base = jaro_winkler("abcdexx", "abcdeyy")
        assert base <= 1.0


class TestJaccard2Gram:
    def test_identity(self):
        assert jaccard_2gram("abc", "abc") == 1.0

    def test_half_overlap(self):
        assert jaccard_2gram("abcd", "abce") == 0.5  # {ab,bc,cd} vs {ab,bc,ce}

    def test_disjoint(self):
        assert jaccard_2gram("ab", "xy") == 0.0

    def test_short_strings(self):
        assert jaccard_2gram("a", "a") == 1.0
        assert jaccard_2gram("a", "b") == 0.0
        assert jaccard_2gram("ab", "a") == 0.0


class TestNcdBzip2:
    def test_self_distance_small(self):
        x = "ab" * 512
        assert ncd_bzip2(x, x) <= 0.15

    def test_random_strings_far(self):
        import random

        r = random.Random(12345)
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        s1 = "".join(r.choice(alphabet) for _ in range(1024))
        s2 = "".join(r.choice(alphabet) for _ in range(1024))
        assert ncd_bzip2(s1, s2) >= 0.8

    def test_empty_inputs_normalize_to_identity(self):
        assert normalized_similarity(Measure.NCD_BZIP2, "", "") == 1.0


class TestLcs:
    def test_identity(self):
        assert lcs_length("abc", "abc") == 3

    def test_disjoint(self):
        assert lcs_length("abc", "xyz") == 0

    def test_classic(self):
        assert lcs_length("abcbdab", "bdcaba") == 4

    @given(words, words)
    def test_matches_recursion(self, a, b):
        assert lcs_length(a, b) == lcs_naive(a, b)

    @given(long_text, long_text)
    @long_examples
    def test_matches_recursion_long(self, a, b):
        with deep_recursion():
            assert lcs_length(a, b) == lcs_memo(a, b)


class TestSmithWaterman:
    def test_identity_scores_length(self):
        assert smith_waterman("abc", "abc") == 3

    def test_disjoint(self):
        assert smith_waterman("abc", "xyz") == 0

    def test_local_alignment(self):
        assert smith_waterman("aab", "ab") == 2

    @given(any_text, any_text)
    def test_matches_full_matrix(self, a, b):
        assert smith_waterman(a, b) == smith_waterman_full_matrix(a.lower(), b.lower())

    @given(long_text, long_text)
    @long_examples
    def test_matches_full_matrix_long(self, a, b):
        assert smith_waterman(a, b) == smith_waterman_full_matrix(a, b)

    @given(any_text, any_text)
    def test_bounded_by_shorter_string(self, a, b):
        assert smith_waterman(a, b) <= min(len(a), len(b))


class TestCosine2Gram:
    def test_identity(self):
        assert cosine_2gram("abc", "abc") == 1.0

    def test_orthogonal(self):
        assert cosine_2gram("ab", "cd") == 0.0

    def test_repeated_grams(self):
        # counts {ab:2, ba:1} vs {ab:1} -> 2/sqrt(5)
        assert cosine_2gram("abab", "ab") == pytest.approx(2 / math.sqrt(5), abs=1e-3)


ALL_MEASURES = list(Measure)


class TestNormalizedSimilarity:
    def test_levenshtein_example(self):
        got = normalized_similarity(Measure.LEVENSHTEIN, "kitten", "sitting")
        assert got == pytest.approx(1 - 3 / 7)

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_equality_rule(self, measure):
        assert normalized_similarity(measure, "x", "x") == 1.0
        assert normalized_similarity(measure, "", "") == 1.0

    def test_lcs_disjoint(self):
        assert normalized_similarity(Measure.LCS, "abc", "xyz") == 0.0

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=any_text, b=any_text)
    @settings(max_examples=40)
    def test_range(self, measure, a, b):
        assert 0.0 <= normalized_similarity(measure, a, b) <= 1.0

    @pytest.mark.parametrize(
        "measure", [m for m in ALL_MEASURES if m is not Measure.NCD_BZIP2]
    )
    @given(a=any_text, b=any_text)
    @settings(max_examples=40)
    def test_symmetry_exact(self, measure, a, b):
        assert normalized_similarity(measure, a, b) == normalized_similarity(
            measure, b, a
        )

    @given(a=any_text, b=any_text)
    @settings(max_examples=40)
    def test_symmetry_ncd_approximate(self, a, b):
        delta = abs(
            normalized_similarity(Measure.NCD_BZIP2, a, b)
            - normalized_similarity(Measure.NCD_BZIP2, b, a)
        )
        assert delta <= 0.05

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=any_text)
    @settings(max_examples=25)
    def test_identity_for_any_string(self, measure, a):
        assert normalized_similarity(measure, a, a) == 1.0

    def test_case_insensitive(self):
        assert normalized_similarity(Measure.LEVENSHTEIN, "KwanHui", "kwanhui") == 1.0

    def test_one_sided_empty_smith_waterman(self):
        assert normalized_similarity(Measure.SMITH_WATERMAN, "", "abc") == 0.0


class TestCorpusFields:
    """The measures against the oracles on the fields of a synthetic corpus,
    where each account field recurs across pairs."""

    DP_ORACLES = [
        (levenshtein, levenshtein_memo),
        (damerau_levenshtein, osa_memo),
        (editex, editex_memo),
        (lcs_length, lcs_memo),
        (smith_waterman, smith_waterman_full_matrix),
    ]

    @pytest.fixture(scope="class")
    def field_pairs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("corpus")
        generate_corpus(30, 0.15, 0, str(out))
        corpus = load_corpus(
            str(out / "profiles.jsonl"), str(out / "posts.jsonl"), str(out / "pairs.csv")
        )
        pairs = negative_sample(corpus, 8, seed=0).pairs
        negatives = [p for p in pairs if not p[2]]
        chosen = [p for p in pairs if p[2]]
        chosen += random.Random(0).sample(negatives, 30)
        out_pairs = []
        for t_id, f_id, _ in chosen:
            a = corpus.profile(Platform.TWITTER, t_id)
            b = corpus.profile(Platform.FLICKR, f_id)
            for name in PS_TEXT_FIELDS:
                out_pairs.append((getattr(a, name), getattr(b, name)))
        return out_pairs

    def test_dp_measures_match_oracles(self, field_pairs):
        assert len(field_pairs) == 4 * (30 + 30)
        with deep_recursion():
            for a, b in field_pairs:
                fa, fb = a.lower(), b.lower()
                for measure, oracle in self.DP_ORACLES:
                    assert measure(a, b) == oracle(fa, fb), (measure.__name__, a, b)

    def test_ncd_cached_lengths_match_direct(self, field_pairs):
        def c(x: bytes) -> int:
            return len(bz2.compress(x))

        for a, b in field_pairs:
            xa, xb = a.lower().encode("utf-8"), b.lower().encode("utf-8")
            ca, cb = c(xa), c(xb)
            want = (c(xa + xb) - min(ca, cb)) / max(ca, cb)
            assert ncd_bzip2(a, b) == ncd_bzip2(a, b) == want
