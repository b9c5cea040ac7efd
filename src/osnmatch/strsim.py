"""Nine character-level string similarity measures, plus a common [0, 1] scale.

All measures compare text folded by ``fold`` (lowercased) at the level of
Unicode code points. Distance-like measures (Levenshtein, Damerau-Levenshtein,
Editex) return raw nonnegative integers; ``normalized_similarity`` maps every
measure onto [0, 1] with 1.0 meaning identical.

Algorithms:
  Levenshtein     Hyyrö's bit-vector DP (Nordic J. Computing 10(1),
                  2003), the global-distance form of Myers' (J. ACM
                  46(3), 1999)
  Damerau (OSA)   the same DP with Hyyrö's transposition term
  LCS             bit-vector recurrence V' = (V + U) | (V - U), U = V & M
                  (Allison & Dix, IPL 23(6), 1986; Crochemore et al.,
                  IPL 80(6), 2001)
  Editex          Zobel & Dart (SIGIR 1996), batched row DP
  Smith-Waterman  Smith & Waterman (J. Mol. Biol. 147(1), 1981),
                  batched row DP
  NCD             Cilibrasi & Vitányi (IEEE Trans. Inf. Theory 51(4),
                  2005) with bzip2 as the compressor
  Jaro-Winkler    Winkler (1990), batched window scan

Every raw measure takes two strings, which it folds, and returns one value;
or two equal-length sequences of folded strings, and returns a list with
one value per pair. One pair is a column of length one: each measure has
one implementation, which works on a whole column of pairs.
``normalized_similarity`` scores two strings as a column of one too.

Six measures, all symmetric, run numpy over blocks of pairs in one layout
(``_blockwise``). Each pair comes shorter string first, s before t; the
pairs are sorted by len(t) and cut into blocks of at most ``_BLOCK_CELLS``
cells per row, so one long string does not pad every pair to its length.
In a block len(s) decreases, so at character i of s each kernel steps only
the lanes with len(s) > i, a prefix (``_running``), and reads no pad of s.

- Editex and Smith-Waterman run one int64 row DP over t. Within a row, the
  term from the left neighbour is a prefix scan: Editex's
  ``v[j] = min(h[j], v[j-1] + del_t[j])`` is ``c + minimum.accumulate(h - c)``
  with ``c`` the running sum of ``del_t``, and Smith-Waterman's
  ``v[j] = max(h[j], v[j-1] - 1)`` is ``maximum.accumulate(h + j) - j``.
- Levenshtein, OSA and LCS are bit-vector DPs with one lane per pair
  (the inter-sequence layout of Rognes, BMC Bioinformatics 12:221, 2011):
  bit i of a lane is row i + 1 of the DP column over t, held in
  W = ceil(longest / 64) uint64 words, word 0 lowest. The carry of an
  addition and the bit shifted out of a word pass to the next word. Every
  vector carried to the next column is masked to its lane's length; the
  distance is read off the last column's vertical deltas at the end.
  Levenshtein and OSA run one kernel, in which only OSA adds the
  transposition term, from the previous column's diagonal deltas and
  match masks.
- Jaro-Winkler marks, for each position of s, the first unmatched equal
  position of t inside the window (``argmax`` over the candidates), and
  counts transpositions by comparing the matched characters in rank order.

The bigram measures build each distinct string's bigram set or counter
once per column, and NCD compresses each distinct string once per column.
bzip2 runs at level 1 on an input that is one block at every level (see
``_BZ2_ONE_BLOCK``): its compressed length is then the same as at level 9,
and level 1 sets up in a fraction of the time.
"""

from __future__ import annotations

import bz2
import math
from collections import Counter
from enum import Enum
from functools import wraps
from typing import Callable, Sequence

import numpy as np


class Measure(str, Enum):
    """The available similarity measures."""

    LEVENSHTEIN = "levenshtein"
    DAMERAU_LEVENSHTEIN = "damerau-levenshtein"
    EDITEX = "editex"
    JARO_WINKLER = "jaro-winkler"
    JACCARD_2GRAM = "jaccard"
    NCD_BZIP2 = "ncd-bzip2"
    LCS = "lcs"
    SMITH_WATERMAN = "smith-waterman"
    COSINE_2GRAM = "cosine"


def fold(text: str) -> str:
    """The text as every measure compares it; callers folding a column use it too."""
    return text.lower()


def _columns(kernel: Callable[[list[str], list[str]], list]) -> Callable:
    """The measure ``kernel(s, t)`` of two equal-length lists of folded
    strings, on two strings (folded first) or on two equal-length sequences
    of folded strings."""

    @wraps(kernel)
    def measure(a, b):
        if isinstance(a, str):
            return kernel([fold(a)], [fold(b)])[0]
        a, b = list(a), list(b)
        if len(a) != len(b):
            raise ValueError(f"{len(a)} strings against {len(b)}")
        return kernel(a, b)

    return measure


# the most pairs x (len(t) + 1) cells one row of a block DP holds
_BLOCK_CELLS = 1 << 14


def _blockwise(dtype=np.int64) -> Callable:
    """Decorator: the symmetric measure ``dp(s, t)`` of a block of pairs of
    folded strings as a ``_columns`` measure. Each pair comes shorter string
    first; the pairs are sorted by len(t) and cut into blocks of at most
    ``_BLOCK_CELLS`` cells per DP row, and each block comes in order of
    decreasing len(s)."""

    def wrap(dp: Callable[[list[str], list[str]], np.ndarray]) -> Callable:
        @_columns
        @wraps(dp)
        def measure(a: list[str], b: list[str]) -> list:
            pairs = [(s, t) if len(s) <= len(t) else (t, s) for s, t in zip(a, b)]
            a, b = [s for s, _ in pairs], [t for _, t in pairs]
            len_a = np.fromiter(map(len, a), dtype=np.int64, count=len(a))
            len_b = np.fromiter(map(len, b), dtype=np.int64, count=len(b))
            order = np.argsort(len_b, kind="stable")
            cells = len_b[order] + 1
            out = np.empty(len(a), dtype=dtype)
            start = 0
            while start < len(order):
                # the longest prefix of what is left whose size x its last
                # (longest) width fits, and at least one pair
                fit = np.arange(1, len(order) - start + 1) * cells[start:] <= _BLOCK_CELLS
                stop = start + max(1, int(np.count_nonzero(fit)))
                block = order[start:stop]
                rows = block[np.argsort(-len_a[block], kind="stable")].tolist()
                out[rows] = dp([a[i] for i in rows], [b[i] for i in rows])
                start = stop
            return out.tolist()

        return measure

    return wrap


def _codes(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Code points of each string as one int64 row padded with -1 (no code
    point), and the lengths. Lone surrogates are their own code points."""
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    codes = np.full((len(strings), int(lengths.max(initial=0))), -1, dtype=np.int64)
    flat = "".join(strings).encode("utf-32-le", "surrogatepass")
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = np.frombuffer(flat, dtype="<u4")
    return codes, lengths


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of booleans, a multiple of 64 wide, as rows of uint64 words:
    column i is bit i % 64 of word i // 64."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each row of words."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


_ONE, _TOP = np.uint64(1), np.uint64(63)


def _shl(x: np.ndarray, low: bool = False) -> np.ndarray:
    """Each lane shifted up one bit, word 0 lowest, bit 0 set if ``low``."""
    out = x << _ONE
    if x.shape[1] > 1:
        out[:, 1:] |= x[:, :-1] >> _TOP
    if low:
        out[:, 0] |= _ONE
    return out


def _add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lane sums, word 0 lowest, each word's carry added to the next."""
    out = x + y
    if x.shape[1] > 1:
        # a word whose sum wrapped carries out; a word of all ones passes
        # the carry it gets on. So a word gets a carry when the nearest
        # lower word that is not all ones wrapped.
        wrapped = out < x
        words = np.arange(x.shape[1])
        stop = np.maximum.accumulate(np.where(out != ~np.uint64(0), words, -1), axis=1)
        below = np.maximum(stop[:, :-1], 0)
        out[:, 1:] += (stop[:, :-1] >= 0) & np.take_along_axis(wrapped, below, axis=1)
    return out


def _running(lengths: np.ndarray) -> list[int]:
    """Per character i of a block's s, the number of lanes with len(s) > i,
    which are a prefix of the block as the ``lengths`` of s decrease."""
    return (lengths[:, None] > np.arange(lengths.max(initial=0))).sum(axis=0).tolist()


def _lanes(s: list[str], t: list[str]):
    """The bit-vector lanes of a ``_blockwise`` block: len(s) and len(t),
    each lane's mask of its len(t) low bits, and per character j of s, the
    running lanes' count k and match masks (bit i set where t[i] == s[j])."""
    (cs, n), (ct, m) = _codes(s), _codes(t)
    bits = 64 * max(1, -(-ct.shape[1] // 64))
    ct = np.pad(ct, ((0, 0), (0, bits - ct.shape[1])), constant_values=-1)
    full = _pack(np.arange(bits) < m[:, None])
    steps = ((k, _pack(ct[:k] == cs[:k, j, None])) for j, k in enumerate(_running(n)))
    return n, m, full, steps


def _edit_distance(s: list[str], t: list[str], osa: bool) -> np.ndarray:
    """Hyyrö's bit-vector DP of the Levenshtein distance over a block of
    pairs, with its transposition term when ``osa``."""
    n, _, full, steps = _lanes(s, t)
    # vertical +1/-1 deltas of the current column; column 0 is 0..m
    vp, vn = full.copy(), np.zeros_like(full)
    d0 = pm_prev = np.zeros_like(full)  # the previous column's d and pm
    for k, pm in steps:
        p, q = vp[:k], vn[:k]
        d = (_add(pm & p, p) ^ p) | pm | q
        if osa:
            # diagonal zero-deltas reachable through a transposition
            d |= _shl(~d0[:k] & pm) & pm_prev[:k]
        d &= full[:k]
        hp = _shl(q | ~(d | p), low=True)  # row 0 grows by one per column
        hn = _shl(d & p)
        vp[:k] = (hn | ~(d | hp)) & full[:k]
        vn[:k] = hp & d
        d0, pm_prev = d, pm
    # row 0 of the last column is len(s)
    return n + _popcount(vp) - _popcount(vn)


@_blockwise()
def levenshtein(s: list[str], t: list[str]) -> np.ndarray:
    """Minimum number of single-character insertions, deletions or
    substitutions turning one string into the other."""
    return _edit_distance(s, t, osa=False)


@_blockwise()
def damerau_levenshtein(s: list[str], t: list[str]) -> np.ndarray:
    """Edit distance that additionally allows transposing two adjacent
    characters (optimal string alignment: a transposed block is not
    edited again), so never exceeds plain Levenshtein."""
    return _edit_distance(s, t, osa=True)


# Phonetic letter groups: a substitution inside one group costs 1 instead
# of 2. Letters may belong to more than one group (c, p, s, z do).
_EDITEX_GROUPS = (
    "aeiouy", "bp", "ckq", "dt", "lr", "mn", "gj", "fpv", "sxz", "csz",
)

# bit g is set when the letter is in group g; every group letter is ASCII,
# and code points outside the table, clipped to NUL or DEL, are in no group
_GROUP_BITS = np.zeros(128, dtype=np.int64)
for _gi, _letters in enumerate(_EDITEX_GROUPS):
    for _ch in _letters:
        _GROUP_BITS[ord(_ch)] |= 1 << _gi


def _deletion_costs(codes: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Cost of deleting each character against its predecessor: 2 after
    the start sentinel, 0 after an equal character, 1 after a silent h/w
    or a letter of a shared group, else 2."""
    costs = np.full(codes.shape, 2, dtype=np.int64)
    prev, cur = codes[:, :-1], codes[:, 1:]
    silent = (prev == ord("h")) | (prev == ord("w"))
    related = silent | (groups[:, :-1] & groups[:, 1:] != 0)
    costs[:, 1:] = np.where(prev == cur, 0, np.where(related, 1, 2))
    return costs


@_blockwise()
def editex(s: list[str], t: list[str]) -> np.ndarray:
    """Phonetic edit distance: substitution cost is 0 for equal characters,
    1 within a shared letter group, 2 otherwise; deleting a silent h/w
    costs 1. Characters outside every group (digits etc.) only ever match
    themselves.

    Boundary rows accumulate the deletion cost of each character against
    its predecessor; the first character's predecessor is a sentinel that
    matches nothing (cost 2).
    """
    (cs, len_s), (ct, len_t) = _codes(s), _codes(t)
    gs, gt = (_GROUP_BITS[np.clip(x, 0, 127)] for x in (cs, ct))
    del_s = _deletion_costs(cs, gs)
    # row 0, and the running deletion cost of t that the scan subtracts
    c = np.zeros((len(s), ct.shape[1] + 1), dtype=np.int64)
    np.cumsum(_deletion_costs(ct, gt), axis=1, out=c[:, 1:])
    row, h = c.copy(), np.empty_like(c)
    for i, k in enumerate(_running(len_s)):
        x, gx = cs[:k, i, None], gs[:k, i, None]
        sub = np.where(x == ct[:k], 0, np.where(gx & gt[:k], 1, 2))
        h[:k, 0] = row[:k, 0] + del_s[:k, i]
        np.minimum(row[:k, :-1] + sub, row[:k, 1:] + del_s[:k, i, None], out=h[:k, 1:])
        row[:k] = np.minimum.accumulate(h[:k] - c[:k], axis=1) + c[:k]
    return row[np.arange(len(s)), len_t]


@_blockwise(dtype=np.float64)
def jaro_winkler(s: list[str], t: list[str]) -> np.ndarray:
    """Jaro similarity boosted by a shared-prefix bonus (prefix capped at
    4 characters, scaling factor 0.1). Result lies in [0, 1].

    Each character of s matches the first unmatched equal character of t
    at most ``max(len(s), len(t)) // 2 - 1`` positions away."""
    # s may be the shorter string: per character, the first free match in the
    # window pairs its positions in s and t as a two-pointer merge, the same
    # from either side, and m/|s| + m/|t| adds the same floats in either order.
    (cs, len_s), (ct, len_t) = _codes(s), _codes(t)
    window = np.maximum(len_t // 2 - 1, 0)[:, None]
    lanes, pos = np.arange(len(s)), np.arange(ct.shape[1])
    s_hit, t_free = np.zeros(cs.shape, dtype=bool), np.ones(ct.shape, dtype=bool)
    for i, k in enumerate(_running(len_s)):
        found = (ct[:k] == cs[:k, i, None]) & t_free[:k] & (np.abs(pos - i) <= window[:k])
        j = found.argmax(axis=1)
        s_hit[:k, i] = hit = found[lanes[:k], j]
        t_free[lanes[:k], j] &= ~hit
    matches = s_hit.sum(axis=1)
    # row-major selection keeps each pair's matched characters in rank
    # order, and both sides of a pair have as many
    unequal = np.zeros(cs.shape, dtype=bool)
    unequal[s_hit] = cs[s_hit] != ct[~t_free]
    transpositions = unequal.sum(axis=1) // 2
    jaro = (
        matches / np.maximum(len_s, 1) + matches / np.maximum(len_t, 1)
        + (matches - transpositions) / np.maximum(matches, 1)
    ) / 3.0
    # no match scores 0, but two empty strings are equal
    jaro = np.where(matches > 0, jaro, np.where(len_s + len_t == 0, 1.0, 0.0))
    # a pad of s meets a pad of t only past the end of two equal strings,
    # whose Jaro is exactly 1.0, so the bonus it adds is 0
    head = min(4, cs.shape[1])
    prefix = np.logical_and.accumulate(cs[:, :head] == ct[:, :head], axis=1).sum(axis=1)
    return jaro + prefix * 0.1 * (1.0 - jaro)


def _per_string(f: Callable[[str], object], s: list[str], t: list[str]) -> dict:
    """``f(x)`` once for each distinct string of the two columns."""
    return {x: f(x) for x in dict.fromkeys([*s, *t])}


def _bigrams(s: str) -> set[str]:
    return {s[i : i + 2] for i in range(len(s) - 1)}


@_columns
def jaccard_2gram(s: list[str], t: list[str]) -> list[float]:
    """Jaccard coefficient |A∩B| / |A∪B| over the sets of character
    2-grams. Strings too short to form a 2-gram count as identical only
    when equal."""
    grams = _per_string(_bigrams, s, t)
    out = []
    for x, y in zip(s, t):
        ga, gb = grams[x], grams[y]
        if not ga or not gb:
            out.append(1.0 if (not ga and not gb and x == y) else 0.0)
        else:
            out.append(len(ga & gb) / len(ga | gb))
    return out


# bzip2 compresses in blocks of 100_000 * level - 19 bytes, counted after
# its first run-length pass, which writes a run of 4 to 255 equal bytes as
# the first 4 and a count byte: n input bytes become at most n + n // 4.
# An input of at most (100_000 - 19) * 4 / 5 bytes is therefore one block
# at every level, and one-block streams differ only in the header's level
# digit, so level 1 gives level 9's compressed length.
_BZ2_ONE_BLOCK = (100_000 - 19) * 4 // 5


def _compressed_len(data: bytes) -> int:
    """C(x) under bzip2 at level 9."""
    return len(bz2.compress(data, 1 if len(data) <= _BZ2_ONE_BLOCK else 9))


@_columns
def ncd_bzip2(s: list[str], t: list[str]) -> list[float]:
    """Normalized compression distance under bzip2:
    (C(ab) - min(C(a), C(b))) / max(C(a), C(b)) over UTF-8 bytes (a lone
    surrogate is encoded as its own three bytes).
    A distance, not a similarity: 0 means alike, values can slightly
    exceed 1 due to compressor overhead."""
    # Freeing a large mmapped block raises glibc's dynamic mmap threshold
    # (mallopt(3)). Until then bzip2's ~1 MB level-1 buffers are mapped and
    # unmapped on every call, which doubles the cost of a short input; one
    # level-9 compression frees blocks of a few MB and so raises the
    # threshold above them.
    # The compressed lengths do not depend on the allocator.
    bz2.compress(b"", 9)
    data = _per_string(lambda x: x.encode("utf-8", "surrogatepass"), s, t)
    size = {x: _compressed_len(d) for x, d in data.items()}
    out = []
    for x, y in zip(s, t):
        ca, cb = size[x], size[y]
        assert max(ca, cb) > 0  # bzip2 headers are never empty
        out.append((_compressed_len(data[x] + data[y]) - min(ca, cb)) / max(ca, cb))
    return out


@_blockwise()
def lcs_length(s: list[str], t: list[str]) -> np.ndarray:
    """Length of the longest common subsequence."""
    _, m, full, steps = _lanes(s, t)
    v = full.copy()  # zero bits mark the rows where the LCS grew
    for k, eq in steps:
        x = v[:k]
        u = x & eq
        # u is a subset of x, so x - u clears u's bits without a borrow
        v[:k] = (_add(x, u) | (x & ~u)) & full[:k]
    return m - _popcount(v)


@_blockwise()
def smith_waterman(s: list[str], t: list[str]) -> np.ndarray:
    """Best local alignment score with match=+1, mismatch=-1, gap=-1.
    Cells never drop below zero; the returned score is the maximum cell
    of the scoring matrix (the value a traceback would start from).

    The maximum runs over rows padded to the block's longest t: a pad
    matches nothing, so a padded cell is 0 or one below a neighbour, and
    never exceeds its pair's real maximum."""
    (cs, len_s), (ct, _) = _codes(s), _codes(t)
    j = np.arange(ct.shape[1] + 1)
    row, h = np.zeros((2, len(s), len(j)), dtype=np.int64)
    best = np.zeros(len(s), dtype=np.int64)
    for i, k in enumerate(_running(len_s)):
        diag = row[:k, :-1] + np.where(cs[:k, i, None] == ct[:k], 1, -1)
        np.maximum(diag, row[:k, 1:] - 1, out=h[:k, 1:])
        np.maximum(h[:k], 0, out=h[:k])
        row[:k] = np.maximum.accumulate(h[:k] + j, axis=1) - j
        np.maximum(best[:k], row[:k].max(axis=1), out=best[:k])
    return best


def _bigram_counts(s: str) -> Counter[str]:
    return Counter(s[i : i + 2] for i in range(len(s) - 1))


@_columns
def cosine_2gram(s: list[str], t: list[str]) -> list[float]:
    """Cosine of the angle between character 2-gram count vectors."""
    counts = _per_string(_bigram_counts, s, t)
    norms = {x: math.sqrt(sum(n * n for n in c.values())) for x, c in counts.items()}
    out = []
    for x, y in zip(s, t):
        ca, cb = counts[x], counts[y]
        if x == y:
            out.append(1.0)
        elif not ca or not cb:
            out.append(0.0)
        else:
            dot = sum(n * cb[g] for g, n in ca.items())
            out.append(dot / (norms[x] * norms[y]))
    return out


def _longest(s: str, t: str) -> int:
    return max(len(s), len(t))


# Measure -> (name of its raw function in this module, map of (raw, s, t)
# onto [0, 1]). Distances are scaled by the worst case on strings of these
# lengths; Editex substitutions cost up to 2 per character, hence the
# factor of 2. The raw function is looked up by name on every call, so the
# module attribute is what runs, even after it is replaced.
MEASURES = {
    Measure.LEVENSHTEIN: ("levenshtein", lambda r, s, t: 1.0 - r / _longest(s, t)),
    Measure.DAMERAU_LEVENSHTEIN: (
        "damerau_levenshtein", lambda r, s, t: 1.0 - r / _longest(s, t)
    ),
    Measure.EDITEX: ("editex", lambda r, s, t: 1.0 - r / (2 * _longest(s, t))),
    Measure.JARO_WINKLER: ("jaro_winkler", lambda r, s, t: r),
    Measure.JACCARD_2GRAM: ("jaccard_2gram", lambda r, s, t: r),
    Measure.NCD_BZIP2: ("ncd_bzip2", lambda r, s, t: min(max(1.0 - r, 0.0), 1.0)),
    Measure.LCS: ("lcs_length", lambda r, s, t: r / _longest(s, t)),
    Measure.SMITH_WATERMAN: (
        "smith_waterman", lambda r, s, t: r / min(len(s), len(t)) if s and t else 0.0
    ),
    Measure.COSINE_2GRAM: ("cosine_2gram", lambda r, s, t: r),
}


def raw_measure(
    measure: Measure, a: str | Sequence[str], b: str | Sequence[str]
) -> int | float | list:
    """The measure's own value: a distance, a score or a similarity; a list
    of them for two sequences of folded strings."""
    return globals()[MEASURES[measure][0]](a, b)


def normalized_similarity(
    measure: Measure, a: str | Sequence[str], b: str | Sequence[str]
) -> float | list[float]:
    """Map a raw measure onto [0, 1], higher meaning more similar.

    Equal strings (after folding) always score 1.0. ``a`` and ``b`` are two
    strings, or two equal-length sequences of folded strings, which give a
    list with one value per pair and one call of the raw measure on the
    unequal pairs.
    """
    if isinstance(a, str):
        return normalized_similarity(measure, [fold(a)], [fold(b)])[0]
    scale = MEASURES[measure][1]
    out = [1.0] * len(a)
    rows = [i for i, (s, t) in enumerate(zip(a, b, strict=True)) if s != t]
    if rows:
        s, t = [a[i] for i in rows], [b[i] for i in rows]
        for i, r, si, ti in zip(rows, raw_measure(measure, s, t), s, t):
            out[i] = scale(r, si, ti)
    return out
