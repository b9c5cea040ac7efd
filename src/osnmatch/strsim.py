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
  Editex          Zobel & Dart (SIGIR 1996), row-by-row DP
  Smith-Waterman  Smith & Waterman (J. Mol. Biol. 147(1), 1981),
                  row-by-row DP
  NCD             Cilibrasi & Vitányi (IEEE Trans. Inf. Theory 51(4),
                  2005) with bzip2 as the compressor
  Jaro-Winkler    Winkler (1990)

The bit-vector measures keep one bit per character of the longer string
(bit i is row i + 1 of the DP matrix) in Python ints and loop over the
shorter string. Python's ``~`` yields negative ints and shifts and carries
grow the width, so every vector carried to the next column is masked back
to the string's n bits; the low n bits are exact either way.
"""

from __future__ import annotations

import bz2
import math
from collections import Counter
from enum import Enum
from functools import lru_cache


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


def _match_masks(s: str) -> dict[str, int]:
    """Bit i of ``masks[c]`` is set where ``s[i] == c``."""
    masks: dict[str, int] = {}
    bit = 1
    for c in s:
        masks[c] = masks.get(c, 0) | bit
        bit <<= 1
    return masks


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character insertions, deletions or
    substitutions turning one string into the other."""
    s, t = _fold(a), _fold(b)
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


def damerau_levenshtein(a: str, b: str) -> int:
    """Edit distance that additionally allows transposing two adjacent
    characters (optimal string alignment: a transposed block is not
    edited again), so never exceeds plain Levenshtein."""
    s, t = _fold(a), _fold(b)
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

# bit g is set when the letter is in group g; letters in no group map to 0
_GROUP_BITS: dict[str, int] = {}
for _gi, _letters in enumerate(_EDITEX_GROUPS):
    for _ch in _letters:
        _GROUP_BITS[_ch] = _GROUP_BITS.get(_ch, 0) | (1 << _gi)


def _editex_deletions(s: str, groups: list[int]) -> list[int]:
    """Cost of deleting each character of ``s`` against its predecessor:
    2 after the start sentinel, 0 after an equal character, 1 after a
    silent h/w or a letter of a shared group, else 2."""
    costs = []
    prev, prev_groups = None, 0
    for c, g in zip(s, groups):
        if prev is None:
            costs.append(2)
        elif prev == c:
            costs.append(0)
        elif prev in "hw" or prev_groups & g:
            costs.append(1)
        else:
            costs.append(2)
        prev, prev_groups = c, g
    return costs


def editex(a: str, b: str) -> int:
    """Phonetic edit distance: substitution cost is 0 for equal characters,
    1 within a shared letter group, 2 otherwise; deleting a silent h/w
    costs 1. Characters outside every group (digits etc.) only ever match
    themselves.

    Boundary rows accumulate the deletion cost of each character against
    its predecessor; the first character's predecessor is a sentinel that
    matches nothing (cost 2).
    """
    s, t = _fold(a), _fold(b)
    m, n = len(s), len(t)
    if m == 0 and n == 0:
        return 0
    groups_s = [_GROUP_BITS.get(c, 0) for c in s]
    groups_t = [_GROUP_BITS.get(c, 0) for c in t]
    del_t = _editex_deletions(t, groups_t)
    prev = [0]
    for cost in del_t:
        prev.append(prev[-1] + cost)
    columns = list(zip(t, groups_t, del_t))
    for cs, gs, ds in zip(s, groups_s, _editex_deletions(s, groups_s)):
        left = prev[0] + ds
        cur = [left]
        for (ct, gt, dt), diag, up in zip(columns, prev, prev[1:]):
            if cs == ct:
                v = diag
            elif gs & gt:
                v = diag + 1
            else:
                v = diag + 2
            if up + ds < v:
                v = up + ds
            if left + dt < v:
                v = left + dt
            cur.append(v)
            left = v
        prev = cur
    return prev[n]


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


def jaro_winkler(a: str, b: str) -> float:
    """Jaro similarity boosted by a shared-prefix bonus (prefix capped at
    4 characters, scaling factor 0.1). Result lies in [0, 1]."""
    s, t = _fold(a), _fold(b)
    jaro = _jaro(s, t)
    prefix = 0
    for cs, ct in zip(s[:4], t[:4]):
        if cs != ct:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def _bigrams(s: str) -> set[str]:
    return {s[i : i + 2] for i in range(len(s) - 1)}


def jaccard_2gram(a: str, b: str) -> float:
    """Jaccard coefficient |A∩B| / |A∪B| over the sets of character
    2-grams. Strings too short to form a 2-gram count as identical only
    when equal."""
    s, t = _fold(a), _fold(b)
    ga, gb = _bigrams(s), _bigrams(t)
    if not ga or not gb:
        return 1.0 if (not ga and not gb and s == t) else 0.0
    return len(ga & gb) / len(ga | gb)


@lru_cache(maxsize=4096)
def _compressed_len(data: bytes) -> int:
    """C(x) of one string; an account field recurs in about nine pairs."""
    return len(bz2.compress(data))


def ncd_bzip2(a: str, b: str) -> float:
    """Normalized compression distance under bzip2:
    (C(ab) - min(C(a), C(b))) / max(C(a), C(b)) over UTF-8 bytes.
    A distance, not a similarity: 0 means alike, values can slightly
    exceed 1 due to compressor overhead."""
    xa, xb = _fold(a).encode("utf-8"), _fold(b).encode("utf-8")
    ca, cb = _compressed_len(xa), _compressed_len(xb)
    cab = len(bz2.compress(xa + xb))
    assert max(ca, cb) > 0  # bzip2 headers are never empty
    return (cab - min(ca, cb)) / max(ca, cb)


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence."""
    s, t = _fold(a), _fold(b)
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


def smith_waterman(a: str, b: str) -> int:
    """Best local alignment score with match=+1, mismatch=-1, gap=-1.
    Cells never drop below zero; the returned score is the maximum cell
    of the scoring matrix (the value a traceback would start from)."""
    s, t = _fold(a), _fold(b)
    if not s or not t:
        return 0
    best = 0
    prev = [0] * (len(t) + 1)
    for cs in s:
        left = 0
        cur = [0]
        for ct, diag, up in zip(t, prev, prev[1:]):
            v = diag + 1 if cs == ct else diag - 1
            if up > left:
                if up - 1 > v:
                    v = up - 1
            elif left - 1 > v:
                v = left - 1
            if v < 0:
                v = 0
            cur.append(v)
            left = v
        row_best = max(cur)
        if row_best > best:
            best = row_best
        prev = cur
    return best


def _bigram_counts(s: str) -> Counter[str]:
    return Counter(s[i : i + 2] for i in range(len(s) - 1))


def cosine_2gram(a: str, b: str) -> float:
    """Cosine of the angle between character 2-gram count vectors."""
    s, t = _fold(a), _fold(b)
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


def raw_measure(measure: Measure, a: str, b: str) -> int | float:
    """The measure's own value: a distance, a score or a similarity."""
    return globals()[MEASURES[measure][0]](a, b)


def normalized_similarity(measure: Measure, a: str, b: str) -> float:
    """Map a raw measure onto [0, 1], higher meaning more similar.

    Equal strings (after folding) always score 1.0.
    """
    s, t = _fold(a), _fold(b)
    if s == t:
        return 1.0
    return MEASURES[measure][1](raw_measure(measure, s, t), s, t)
