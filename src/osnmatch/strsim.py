"""Nine character-level string similarity measures, plus a common [0, 1] scale.

All measures compare lowercase-folded text at the level of Unicode code
points. Distance-like measures (Levenshtein, Damerau-Levenshtein, Editex)
return raw nonnegative integers; ``normalized_similarity`` maps every
measure onto [0, 1] with 1.0 meaning identical.

Algorithms:
  Levenshtein     bit-vector DP of Myers (J. ACM 46(3), 1999) in the
                  global-distance form of Hyyrö (Nordic J. Computing
                  10(1), 2003)
  Damerau (OSA)   Hyyrö's bit-vector DP with the transposition term
                  (Nordic J. Computing 10(1), 2003)
  LCS             bit-vector recurrence V' = (V + U) | (V - U), U = V & M
                  (Allison & Dix, IPL 23(6), 1986; Crochemore et al.,
                  IPL 80(6), 2001)
  Editex          Zobel & Dart (SIGIR 1996), batched row DP
  Smith-Waterman  Smith & Waterman (J. Mol. Biol. 147(1), 1981),
                  batched row DP
  NCD             Cilibrasi & Vitányi (IEEE Trans. Inf. Theory 51(4),
                  2005) with bzip2 as the compressor
  Jaro-Winkler    Winkler (1990)

The bit-vector measures keep one bit per character of the longer string
(bit i is row i + 1 of the DP matrix) in Python ints and loop over the
shorter string. Python's ``~`` yields negative ints and shifts and carries
grow the width, so every vector carried to the next column is masked back
to the string's n bits; the low n bits are exact either way.

Every raw measure takes two strings, which it folds, and returns one value;
or two equal-length sequences of folded strings, and returns a list with
one value per pair. Seven measures loop over the pairs. Editex and
Smith-Waterman run one int64 numpy DP over a block of pairs at once,
padded to the block's longest strings, one pass per character of the
shorter strings. Within a row, the term from the left neighbour is a
prefix scan: Editex's ``v[j] = min(h[j], v[j-1] + del_t[j])`` is
``c + minimum.accumulate(h - c)`` with ``c`` the running sum of ``del_t``,
and Smith-Waterman's ``v[j] = max(h[j], v[j-1] - 1)`` is
``maximum.accumulate(h + j) - j``. Pairs are sorted by length and cut into
blocks of at most ``_BLOCK_CELLS`` cells per DP row, so one long string
does not pad every pair to its length.
"""

from __future__ import annotations

import bz2
import math
from collections import Counter
from enum import Enum
from functools import lru_cache, wraps
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


def _fold(text: str) -> str:
    return text.lower()


def _pairwise(kernel: Callable[[str, str], int | float]) -> Callable:
    """The measure ``kernel(s, t)`` of two folded strings, on two strings
    (folded first) or on two equal-length sequences of folded strings."""

    @wraps(kernel)
    def measure(a, b):
        if isinstance(a, str):
            return kernel(_fold(a), _fold(b))
        return [kernel(s, t) for s, t in zip(a, b, strict=True)]

    return measure


# the most pairs x (longer length + 1) cells one row of a block DP holds
_BLOCK_CELLS = 1 << 14


def _blockwise(dp: Callable[[list[str], list[str]], np.ndarray]) -> Callable:
    """The measure ``dp(s, t)`` of a block of pairs of folded strings, on two
    strings (folded first) or on two equal-length sequences of folded
    strings. ``dp`` must be symmetric: it gets each pair with the shorter
    string first, the pairs sorted by the longer length and cut into blocks
    of at most ``_BLOCK_CELLS`` cells per DP row."""

    @wraps(dp)
    def measure(a, b):
        if isinstance(a, str):
            return measure([_fold(a)], [_fold(b)])[0]
        pairs = [(s, t) if len(s) <= len(t) else (t, s) for s, t in zip(a, b, strict=True)]
        order = sorted(range(len(pairs)), key=lambda i: len(pairs[i][1]))
        out = np.empty(len(pairs), dtype=np.int64)
        start = 0
        while start < len(order):
            stop = start + 1
            while stop < len(order) and (
                (stop + 1 - start) * (len(pairs[order[stop]][1]) + 1) <= _BLOCK_CELLS
            ):
                stop += 1
            rows = order[start:stop]
            out[rows] = dp([pairs[i][0] for i in rows], [pairs[i][1] for i in rows])
            start = stop
        return out.tolist()

    return measure


def _codes(strings: list[str], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Code points of each string as one int64 row padded with ``pad``, and
    the lengths. Lone surrogates pass through as their own code points."""
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    codes = np.full((len(strings), int(lengths.max(initial=0))), pad, dtype=np.int64)
    flat = "".join(strings).encode("utf-32-le", "surrogatepass")
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = np.frombuffer(flat, dtype="<u4")
    return codes, lengths


def _match_masks(s: str) -> dict[str, int]:
    """Bit i of ``masks[c]`` is set where ``s[i] == c``."""
    masks: dict[str, int] = {}
    bit = 1
    for c in s:
        masks[c] = masks.get(c, 0) | bit
        bit <<= 1
    return masks


@_pairwise
def levenshtein(s: str, t: str) -> int:
    """Minimum number of single-character insertions, deletions or
    substitutions turning one string into the other."""
    if len(s) < len(t):
        s, t = t, s
    m = len(s)
    if not t:
        return m
    peq = _match_masks(s)
    full = (1 << m) - 1
    top = 1 << (m - 1)
    # vertical +1/-1 deltas of the current column; column 0 is 0..m
    pv, mv, dist = full, 0, m
    for c in t:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            dist += 1
        elif mh & top:
            dist -= 1
        ph = (ph << 1) | 1  # row 0 grows by one per column
        mh <<= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    return dist


@_pairwise
def damerau_levenshtein(s: str, t: str) -> int:
    """Edit distance that additionally allows transposing two adjacent
    characters (optimal string alignment: a transposed block is not
    edited again), so never exceeds plain Levenshtein."""
    if len(s) < len(t):
        s, t = t, s
    m = len(s)
    if not t:
        return m
    peq = _match_masks(s)
    full = (1 << m) - 1
    top = 1 << (m - 1)
    vp, vn, d0, pm_prev, dist = full, 0, 0, 0, m
    for c in t:
        pm = peq.get(c, 0)
        # diagonal zero-deltas reachable through a transposition
        tr = ((~d0 & pm) << 1) & pm_prev
        d0 = ((((pm & vp) + vp) ^ vp) | pm | vn | tr) & full
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & top:
            dist += 1
        elif hn & top:
            dist -= 1
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(d0 | hp)) & full
        vn = hp & d0
        pm_prev = pm
    return dist


# Phonetic letter groups: a substitution inside one group costs 1 instead
# of 2. Letters may belong to more than one group (c, p, s, z do).
_EDITEX_GROUPS = (
    "aeiouy", "bp", "ckq", "dt", "lr", "mn", "gj", "fpv", "sxz", "csz",
)

# bit g is set when the letter is in group g; every group letter is ASCII,
# and code points outside the table are in no group
_GROUP_BITS = np.zeros(128, dtype=np.int64)
for _gi, _letters in enumerate(_EDITEX_GROUPS):
    for _ch in _letters:
        _GROUP_BITS[ord(_ch)] |= 1 << _gi


def _groups(codes: np.ndarray) -> np.ndarray:
    return np.where(
        (codes >= 0) & (codes < 128), _GROUP_BITS[np.clip(codes, 0, 127)], 0
    )


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


@_blockwise
def editex(s: list[str], t: list[str]) -> np.ndarray:
    """Phonetic edit distance: substitution cost is 0 for equal characters,
    1 within a shared letter group, 2 otherwise; deleting a silent h/w
    costs 1. Characters outside every group (digits etc.) only ever match
    themselves.

    Boundary rows accumulate the deletion cost of each character against
    its predecessor; the first character's predecessor is a sentinel that
    matches nothing (cost 2).
    """
    cs, _ = _codes(s, -1)
    ct, len_t = _codes(t, -2)
    gs, gt = _groups(cs), _groups(ct)
    # a pad of s costs nothing to delete and matches nothing (cost 2 >= any
    # deletion from t), so a pad row copies the row above it and the last
    # row holds every pair's distance
    del_s = np.where(cs < 0, 0, _deletion_costs(cs, gs))
    # row 0, and the running deletion cost of t that the scan subtracts
    c = np.zeros((len(s), ct.shape[1] + 1), dtype=np.int64)
    np.cumsum(_deletion_costs(ct, gt), axis=1, out=c[:, 1:])
    row = c
    h = np.empty_like(c)
    for i in range(cs.shape[1]):
        sub = np.where(cs[:, i, None] == ct, 0, np.where(gs[:, i, None] & gt, 1, 2))
        h[:, 0] = row[:, 0] + del_s[:, i]
        np.minimum(row[:, :-1] + sub, row[:, 1:] + del_s[:, i, None], out=h[:, 1:])
        row = np.minimum.accumulate(h - c, axis=1) + c
    return row[np.arange(len(s)), len_t]


def _jaro(s: str, t: str) -> float:
    if s == t:
        return 1.0
    len_s, len_t = len(s), len(t)
    if len_s == 0 or len_t == 0:
        return 0.0
    window = max(max(len_s, len_t) // 2 - 1, 0)
    s_hit = [False] * len_s
    t_hit = [False] * len_t
    matches = 0
    for i in range(len_s):
        lo = max(0, i - window)
        hi = min(i + window + 1, len_t)
        for j in range(lo, hi):
            if not t_hit[j] and s[i] == t[j]:
                s_hit[i] = t_hit[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i in range(len_s):
        if not s_hit[i]:
            continue
        while not t_hit[k]:
            k += 1
        if s[i] != t[k]:
            transpositions += 1
        k += 1
    transpositions //= 2
    return (
        matches / len_s + matches / len_t + (matches - transpositions) / matches
    ) / 3.0


@_pairwise
def jaro_winkler(s: str, t: str) -> float:
    """Jaro similarity boosted by a shared-prefix bonus (prefix capped at
    4 characters, scaling factor 0.1). Result lies in [0, 1]."""
    jaro = _jaro(s, t)
    prefix = 0
    for cs, ct in zip(s[:4], t[:4]):
        if cs != ct:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def _bigrams(s: str) -> set[str]:
    return {s[i : i + 2] for i in range(len(s) - 1)}


@_pairwise
def jaccard_2gram(s: str, t: str) -> float:
    """Jaccard coefficient |A∩B| / |A∪B| over the sets of character
    2-grams. Strings too short to form a 2-gram count as identical only
    when equal."""
    ga, gb = _bigrams(s), _bigrams(t)
    if not ga or not gb:
        return 1.0 if (not ga and not gb and s == t) else 0.0
    return len(ga & gb) / len(ga | gb)


@lru_cache(maxsize=4096)
def _compressed_len(data: bytes) -> int:
    """C(x) of one string; an account field recurs in about nine pairs."""
    return len(bz2.compress(data))


@_pairwise
def ncd_bzip2(s: str, t: str) -> float:
    """Normalized compression distance under bzip2:
    (C(ab) - min(C(a), C(b))) / max(C(a), C(b)) over UTF-8 bytes (a lone
    surrogate is encoded as its own three bytes).
    A distance, not a similarity: 0 means alike, values can slightly
    exceed 1 due to compressor overhead."""
    xa, xb = s.encode("utf-8", "surrogatepass"), t.encode("utf-8", "surrogatepass")
    ca, cb = _compressed_len(xa), _compressed_len(xb)
    cab = len(bz2.compress(xa + xb))
    assert max(ca, cb) > 0  # bzip2 headers are never empty
    return (cab - min(ca, cb)) / max(ca, cb)


@_pairwise
def lcs_length(s: str, t: str) -> int:
    """Length of the longest common subsequence."""
    if len(s) < len(t):
        s, t = t, s
    if not t:
        return 0
    peq = _match_masks(s)
    full = (1 << len(s)) - 1
    v = full  # zero bits mark the rows where the LCS grew
    for c in t:
        u = v & peq.get(c, 0)
        v = ((v + u) | (v - u)) & full
    return len(s) - v.bit_count()


@_blockwise
def smith_waterman(s: list[str], t: list[str]) -> np.ndarray:
    """Best local alignment score with match=+1, mismatch=-1, gap=-1.
    Cells never drop below zero; the returned score is the maximum cell
    of the scoring matrix (the value a traceback would start from).

    The maximum is taken over the padded matrix: the pad codes of s and t
    differ and match nothing, so a padded cell is at most one below a
    neighbour, or 0, and never exceeds the pair's real maximum."""
    cs, _ = _codes(s, -1)
    ct, _ = _codes(t, -2)
    j = np.arange(ct.shape[1] + 1)
    row = np.zeros((len(s), len(j)), dtype=np.int64)
    best = np.zeros(len(s), dtype=np.int64)
    h = np.zeros_like(row)
    for i in range(cs.shape[1]):
        diag = row[:, :-1] + np.where(cs[:, i, None] == ct, 1, -1)
        np.maximum(diag, row[:, 1:] - 1, out=h[:, 1:])
        np.maximum(h, 0, out=h)
        row = np.maximum.accumulate(h + j, axis=1) - j
        np.maximum(best, row.max(axis=1), out=best)
    return best


def _bigram_counts(s: str) -> Counter[str]:
    return Counter(s[i : i + 2] for i in range(len(s) - 1))


@_pairwise
def cosine_2gram(s: str, t: str) -> float:
    """Cosine of the angle between character 2-gram count vectors."""
    if s == t:
        return 1.0
    ca, cb = _bigram_counts(s), _bigram_counts(t)
    if not ca or not cb:
        return 0.0
    dot = sum(n * cb[g] for g, n in ca.items())
    norm = math.sqrt(sum(n * n for n in ca.values())) * math.sqrt(
        sum(n * n for n in cb.values())
    )
    return dot / norm


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
    scale = MEASURES[measure][1]
    if isinstance(a, str):
        s, t = _fold(a), _fold(b)
        if s == t:
            return 1.0
        return scale(raw_measure(measure, s, t), s, t)
    out = [1.0] * len(a)
    rows = [i for i, (s, t) in enumerate(zip(a, b, strict=True)) if s != t]
    if rows:
        s, t = [a[i] for i in rows], [b[i] for i in rows]
        for i, r, si, ti in zip(rows, raw_measure(measure, s, t), s, t):
            out[i] = scale(r, si, ti)
    return out
