import bz2
import math
import random
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnmatch import strsim
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
    cosine_2gram_counters,
    editex_memo,
    editex_naive,
    jaccard_2gram_sets,
    jaro_winkler_scan,
    lcs_memo,
    lcs_naive,
    levenshtein_memo,
    ncd_bzip2_level9,
    normalized_similarity_reference,
    levenshtein_naive,
    osa_memo,
    osa_naive,
    smith_waterman_full_matrix,
)

words = st.text(alphabet="abcd", max_size=6)
any_text = st.text(max_size=12)
# long enough to span several 64-bit words of the bit-vector lanes
long_text = st.text(alphabet="abcshwxz é", min_size=40, max_size=150)
long_examples = settings(max_examples=30, deadline=None)


@contextmanager
def deep_recursion(limit=10_000):
    """The memo oracles recurse as deep as the two lengths added up."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
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
        # 5 matches, no transposition, and a 5-character shared prefix that
        # earns the bonus of 4 characters
        jaro = (5 / 7 + 5 / 7 + 5 / 5) / 3.0
        assert jaro_winkler("abcdexx", "abcdeyy") == jaro + 4 * 0.1 * (1.0 - jaro)
        assert jaro + 4 * 0.1 * (1.0 - jaro) < jaro + 5 * 0.1 * (1.0 - jaro)


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

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=any_text, b=any_text)
    @settings(max_examples=40)
    def test_table_matches_the_if_chain(self, measure, a, b):
        assert normalized_similarity(measure, a, b) == normalized_similarity_reference(
            measure, a, b
        )

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    def test_raw_function_looked_up_at_call_time(self, measure, monkeypatch):
        name = strsim.MEASURES[measure][0]
        real = getattr(strsim, name)
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(strsim, name, counting)
        normalized_similarity(measure, "Kwan Hui", "kwanhui lim")
        normalized_similarity(measure, "same", "SAME")  # equal after folding
        # two strings go to the raw measure as a column of one
        assert calls == [(["kwan hui"], ["kwanhui lim"])]
        assert strsim.raw_measure(measure, "Ab", "ab") == real("Ab", "ab")
        assert len(calls) == 2


# folded text over letters of several Editex groups, silent h/w and digits
dp_text = st.text(alphabet="abcdhwkpqstvxz019 é", min_size=1, max_size=60)


@st.composite
def dp_batches(draw, text=dp_text):
    """Two equal-length lists of folded strings, some pairs equal."""
    pairs = draw(st.lists(
        st.one_of(st.tuples(text, text), text.map(lambda s: (s, s))),
        min_size=1, max_size=12,
    ))
    return [s for s, _ in pairs], [t for _, t in pairs]


def in_deep_stack(fn, *args):
    """``fn(*args)`` on a thread whose stack holds a memo oracle's recursion
    over a string of tens of thousands of characters."""
    result = []
    old_size = threading.stack_size(32 * 1024 * 1024)
    try:
        with deep_recursion(100_000):
            worker = threading.Thread(target=lambda: result.append(fn(*args)))
            worker.start()
            worker.join()
    finally:
        threading.stack_size(old_size)
    return result[0]


class TestBatchedDp:
    """The blockwise measures on a batch of pairs: one numpy DP per block
    of pairs, one value per pair."""

    # the default, and a cap that cuts most batches into several blocks
    CELLS = [strsim._BLOCK_CELLS, 128]

    @pytest.mark.parametrize("cells", CELLS)
    @given(batch=dp_batches())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_oracles(self, cells, batch):
        a, b = batch
        with deep_recursion(), patch.object(strsim, "_BLOCK_CELLS", cells):
            assert editex(a, b) == [editex_memo(s, t) for s, t in zip(a, b)]
            assert smith_waterman(a, b) == [
                smith_waterman_full_matrix(s, t) for s, t in zip(a, b)
            ]

    @pytest.mark.parametrize("cells", CELLS)
    @given(batch=dp_batches(st.text(alphabet="ahwk1", min_size=1, max_size=4)))
    @settings(max_examples=40, deadline=None)
    def test_editex_matches_the_naive_recursion(self, cells, batch):
        a, b = batch
        with patch.object(strsim, "_BLOCK_CELLS", cells):
            assert editex(a, b) == [editex_naive(s, t) for s, t in zip(a, b)]

    def test_one_pair_and_edge_cases(self):
        assert editex(["h1", "wa", "12", ""], ["1", "a", "21", ""]) == [
            editex_naive(s, t) for s, t in [("h1", "1"), ("wa", "a"), ("12", "21"), ("", "")]
        ]
        assert smith_waterman(["", "ab"], ["abc", ""]) == [0, 0]
        assert editex([], []) == smith_waterman([], []) == []
        assert type(editex("Kan", "can")) is int and editex("Kan", "can") == 1
        assert type(smith_waterman("ab", "AB")) is int
        with pytest.raises(ValueError):
            editex(["a"], [])

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=st.lists(any_text, max_size=8), b=st.lists(any_text, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_normalized_batch_matches_one_pair_calls(self, measure, a, b):
        a = [s.lower() for s in a[: len(b)]]
        b = [t.lower() for t in b[: len(a)]]
        got = normalized_similarity(measure, a, b)
        assert got == [normalized_similarity(measure, s, t) for s, t in zip(a, b)]

    def test_one_long_string_keeps_blocks_small(self):
        rng = random.Random(3)
        short = ["".join(rng.choice("abchwz1 ") for _ in range(rng.randint(1, 30)))
                 for _ in range(2 * 300)]
        a, b = short[:300], short[300:]
        a[150] = "".join(rng.choice("abcdehstwz ") for _ in range(20_000))
        for dp, oracle in [
            (editex, editex_memo), (smith_waterman, smith_waterman_full_matrix),
            (levenshtein, levenshtein_memo), (damerau_levenshtein, osa_memo),
            (lcs_length, lcs_memo), (jaro_winkler, jaro_winkler_scan),
        ]:
            tracemalloc.start()
            try:
                got = dp(a, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # padding every pair to the long string would take 48 MB a row
            assert peak < 300 * 20_000 * 8 / 10, (dp.__name__, peak)
            with deep_recursion():
                want = [oracle(s, t) for s, t in zip(a[:150] + a[151:], b[:150] + b[151:])]
            assert got[:150] + got[151:] == want
            assert got[150] == in_deep_stack(oracle, a[150], b[150])

    def test_surrogates_astral_and_non_ascii(self):
        texts = ["a\ud800b", "\udfffx", "😀hw😀", "ça va", "straße", "σσς", "h\ud800"]
        dp_oracles = [
            (levenshtein, levenshtein_memo), (damerau_levenshtein, osa_memo),
            (editex, editex_memo), (lcs_length, lcs_memo),
            (smith_waterman, smith_waterman_full_matrix),
        ]
        a = [s for s in texts for _ in texts]
        b = [t for _ in texts for t in texts]
        for measure, oracle in dp_oracles:
            assert measure(a, b) == [oracle(s, t) for s, t in zip(a, b)], measure.__name__
            assert [measure(s, t) for s, t in zip(a, b)] == measure(a, b)
        for s, t in zip(a, b):
            xs, xt = s.encode("utf-8", "surrogatepass"), t.encode("utf-8", "surrogatepass")
            cs, ct = len(bz2.compress(xs)), len(bz2.compress(xt))
            assert ncd_bzip2(s, t) == (len(bz2.compress(xs + xt)) - min(cs, ct)) / max(cs, ct)


# two letters (long DP paths and repeats), mixed case (pairs equal after
# folding), several letters, and lone surrogates with astral characters
KERNEL_ALPHABETS = ["ab", "aAbB", "abcdefgh ", "a\ud800\udfff😀𝔸é"]


def kernel_text(alphabet: str):
    """Lengths 1-200, often on either side of the 64- and 128-bit word
    boundaries of the lanes."""
    size = st.one_of(st.integers(1, 200), st.sampled_from([63, 64, 65, 127, 128, 129]))
    return size.flatmap(lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n))


def runs(alphabet: str):
    """Runs of repeated characters, which stress Jaro's rule that a
    character matches the first unmatched equal one."""
    run = st.tuples(st.sampled_from(alphabet), st.integers(1, 40))
    return st.lists(run, min_size=1, max_size=5).map(lambda rs: "".join(c * n for c, n in rs))


@st.composite
def edited(draw, alphabet: str):
    """A string and a copy with a few insertions, deletions, substitutions
    and adjacent swaps."""
    s = draw(kernel_text(alphabet))
    t = list(s)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(t)))
        op, c = draw(st.sampled_from("idst")), draw(st.sampled_from(alphabet))
        if op == "i":
            t.insert(i, c)
        elif i + 1 < len(t):
            if op == "d":
                del t[i]
            elif op == "s":
                t[i] = c
            else:
                t[i], t[i + 1] = t[i + 1], t[i]
    return s, "".join(t)


@st.composite
def kernel_batches(draw):
    """Two equal-length lists of folded strings over one alphabet."""
    alphabet = draw(st.sampled_from(KERNEL_ALPHABETS))
    text, one_char = kernel_text(alphabet), st.sampled_from(alphabet)
    pairs = draw(st.lists(st.one_of(
        st.tuples(text, text),
        text.map(lambda s: (s, s.swapcase())),
        st.tuples(one_char, one_char | text),
        st.tuples(runs(alphabet), runs(alphabet)),
        edited(alphabet),
    ), min_size=1, max_size=5))
    return [s.lower() for s, _ in pairs], [t.lower() for _, t in pairs]


class TestColumnKernels:
    """The seven measures that replaced a one-pair kernel, against those
    kernels, to the bit."""

    ORACLES = [
        (levenshtein, levenshtein_memo), (damerau_levenshtein, osa_memo),
        (lcs_length, lcs_memo), (jaro_winkler, jaro_winkler_scan),
        (jaccard_2gram, jaccard_2gram_sets), (cosine_2gram, cosine_2gram_counters),
        (ncd_bzip2, ncd_bzip2_level9),
    ]

    @given(batch=kernel_batches())
    @settings(max_examples=30, deadline=None)
    def test_match_the_oracles_to_the_bit(self, batch):
        a, b = batch
        for kernel, oracle in self.ORACLES:
            with deep_recursion():
                want = [repr(oracle(s, t)) for s, t in zip(a, b)]
            # the default block cap, and one that cuts every batch apart
            for cells in [strsim._BLOCK_CELLS, 128]:
                with patch.object(strsim, "_BLOCK_CELLS", cells):
                    assert [repr(v) for v in kernel(a, b)] == want, kernel.__name__

    @pytest.mark.parametrize("measure", ALL_MEASURES)
    @given(a=any_text, b=any_text)
    @settings(max_examples=30, deadline=None)
    def test_one_pair_is_a_column_of_one(self, measure, a, b):
        raw = getattr(strsim, strsim.MEASURES[measure][0])
        assert repr(raw(a, b)) == repr(raw([a.lower()], [b.lower()])[0])

    @pytest.mark.parametrize("kernel", [k for k, _ in ORACLES])
    def test_empty_strings_and_columns(self, kernel):
        a, b = ["", "", "ab", "a"], ["", "ab", "", "a"]
        want = [dict(self.ORACLES)[kernel](s, t) for s, t in zip(a, b)]
        assert kernel(a, b) == want
        assert kernel([], []) == []
        with pytest.raises(ValueError):
            kernel(["a"], [])


@st.composite
def jaro_pairs(draw):
    """Two folded strings over one alphabet: of unequal lengths, of equal
    lengths (one a permutation of the other), or runs of repeats."""
    alphabet = draw(st.sampled_from(KERNEL_ALPHABETS))
    text = st.one_of(kernel_text(alphabet), runs(alphabet), st.text(alphabet, max_size=6))
    s = draw(text)
    t = draw(st.one_of(text, st.permutations(s).map("".join)))
    return s.lower(), t.lower()


class TestBlockLayout:
    """The one block layout of the blockwise measures: each pair shorter
    string first, len(s) decreasing in a block, and only the lanes still
    running stepped."""

    @given(pair=jaro_pairs())
    @settings(max_examples=100, deadline=None)
    def test_jaro_winkler_is_symmetric(self, pair):
        a, b = pair
        # the scan over the characters of its first string gives the same
        # value from either side, which is what lets the kernel swap a pair
        want = repr(jaro_winkler_scan(a, b))
        assert repr(jaro_winkler_scan(b, a)) == want
        assert repr(jaro_winkler(a, b)) == repr(jaro_winkler(b, a)) == want
        assert [repr(v) for v in jaro_winkler([a, b], [b, a])] == [want, want]

    @given(pairs=st.lists(st.tuples(st.text("ab", max_size=200), st.text("ab", max_size=200)),
                          min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_blocks_come_shorter_string_first(self, pairs):
        blocks = []

        @strsim._blockwise()
        def record(s, t):
            blocks.append((s, t))
            return np.array([len(x) for x in s])

        a, b = [s for s, _ in pairs], [t for _, t in pairs]
        for cells in [strsim._BLOCK_CELLS, 128]:
            blocks.clear()
            with patch.object(strsim, "_BLOCK_CELLS", cells):
                assert record(a, b) == [min(len(s), len(t)) for s, t in pairs]
            for s, t in blocks:
                assert all(len(x) <= len(y) for x, y in zip(s, t))
                assert [len(x) for x in s] == sorted(map(len, s), reverse=True)
            got = sorted(p for s, t in blocks for p in zip(s, t))
            assert got == sorted((s, t) if len(s) <= len(t) else (t, s) for s, t in pairs)

    def test_jaro_winkler_steps_per_character_of_the_shorter_string(self, monkeypatch):
        rng = random.Random(5)
        long = "".join(rng.choice("abcdefghijkl") for _ in range(20_000))
        steps = []
        running = strsim._running

        def counting(lengths):
            steps.append(running(lengths))
            return steps[-1]

        monkeypatch.setattr(strsim, "_running", counting)
        got = jaro_winkler(long, "lkjihgfedcba")
        assert [len(s) for s in steps] == [12]
        assert repr(got) == repr(jaro_winkler_scan(long, "lkjihgfedcba"))


def _ncd_inputs():
    """Inputs for the bzip2 level rule: (name, bytes)."""
    limit = strsim._BZ2_ONE_BLOCK
    rng = random.Random(16)
    mixed = "".join(rng.choice("abcdefghij klmnop,.") for _ in range(150_000)).encode()
    # runs of exactly four grow by 5/4 in the run-length pass, the most
    fours = b"aaaabbbb" * 20_000
    out = []
    for name, data in [("mixed", mixed), ("fours", fours), ("one byte", b"a" * 150_000)]:
        for size in (limit - 1, limit, limit + 1, 150_000):
            out.append((f"{name} {size}", data[:size]))
    out.append(("a * 90000", b"a" * 90_000))
    out.append(("a * 90000 + mixed", b"a" * 90_000 + mixed[:60_000]))
    out.append(("mixed + a * 90000", mixed[:60_000] + b"a" * 90_000))
    return out


class TestNcdLevel:
    """``_compressed_len`` picks bzip2's level from the input size and gives
    level 9's compressed length."""

    def test_one_block_bound(self):
        limit = strsim._BZ2_ONE_BLOCK
        assert limit + limit // 4 <= 100_000 - 19

    @pytest.mark.parametrize("name,data", _ncd_inputs(), ids=[n for n, _ in _ncd_inputs()])
    def test_length_equals_level_nine(self, name, data):
        assert strsim._compressed_len(data) == len(bz2.compress(data, 9))

    def test_level_one_splits_runs_of_four_past_the_bound(self):
        # the rule is not vacuous: past the bound, level 1 cuts this input
        # into two blocks and its length differs from level 9's
        data = b"aaaabbbb" * 11_250
        assert len(bz2.compress(data, 1)) != len(bz2.compress(data, 9))


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
        s = negative_sample(corpus, 8, seed=0)
        negatives = [p for p, lbl in zip(s.pairs, s.labels) if not lbl]
        chosen = [p for p, lbl in zip(s.pairs, s.labels) if lbl]
        chosen += random.Random(0).sample(negatives, 30)
        out_pairs = []
        for t_id, f_id in chosen:
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

    def test_other_measures_match_oracles(self, field_pairs):
        a = [s.lower() for s, _ in field_pairs]
        b = [t.lower() for _, t in field_pairs]
        for kernel, oracle in TestColumnKernels.ORACLES[3:]:
            assert kernel(a, b) == [oracle(s, t) for s, t in zip(a, b)], kernel.__name__

    def test_ncd_cached_lengths_match_direct(self, field_pairs):
        def c(x: bytes) -> int:
            return len(bz2.compress(x))

        for a, b in field_pairs:
            xa, xb = a.lower().encode("utf-8"), b.lower().encode("utf-8")
            ca, cb = c(xa), c(xb)
            want = (c(xa + xb) - min(ca, cb)) / max(ca, cb)
            assert ncd_bzip2(a, b) == ncd_bzip2(a, b) == want
