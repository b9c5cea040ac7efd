"""Independent reference implementations used only by tests.

Each oracle is a direct recursive transcription of the defining
recurrence, kept deliberately separate from the iterative DP code under
test (including its own copy of the phonetic letter groups). The *_memo
variants evaluate the identical recurrence with memoization so larger
strings stay affordable.

``adam_step_reference`` is the per-layer Adam update that the flat,
in-place one in ``osnmatch.mlp`` replaced, and ``folds_json_reference``
is the ``json.dumps`` fold export that ``osnmatch.cli.write_folds_json``
replaced.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np


def levenshtein_naive(a: str, b: str) -> int:
    def rec(i, j):
        if min(i, j) == 0:
            return max(i, j)
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def levenshtein_memo(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def rec(i, j):
        if min(i, j) == 0:
            return max(i, j)
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def osa_naive(a: str, b: str) -> int:
    def rec(i, j):
        if i == 0 and j == 0:
            return 0
        options = []
        if i > 0:
            options.append(rec(i - 1, j) + 1)
        if j > 0:
            options.append(rec(i, j - 1) + 1)
        if i > 0 and j > 0:
            options.append(rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
        if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            options.append(rec(i - 2, j - 2) + 1)
        return min(options)

    return rec(len(a), len(b))


def osa_memo(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 and j == 0:
            return 0
        options = []
        if i > 0:
            options.append(rec(i - 1, j) + 1)
        if j > 0:
            options.append(rec(i, j - 1) + 1)
        if i > 0 and j > 0:
            options.append(rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
        if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            options.append(rec(i - 2, j - 2) + 1)
        return min(options)

    return rec(len(a), len(b))


# independent transcription of the phonetic letter groups
_GROUPS = ("aeiouy", "bp", "ckq", "dt", "lr", "mn", "gj", "fpv", "sxz", "csz")


def _r(x, y):
    if x == y:
        return 0
    if x is None or y is None:
        return 2
    if any(x in g and y in g for g in _GROUPS):
        return 1
    return 2


def _d(x, y):
    if x in ("h", "w") and x != y:
        return 1
    return _r(x, y)


def _editex_rec(a: str, b: str, memo: bool) -> int:
    def s_prev(i):
        return a[i - 2] if i >= 2 else None

    def t_prev(j):
        return b[j - 2] if j >= 2 else None

    def rec(i, j):
        if i == 0 and j == 0:
            return 0
        if j == 0:
            return rec(i - 1, 0) + _d(s_prev(i), a[i - 1])
        if i == 0:
            return rec(0, j - 1) + _d(t_prev(j), b[j - 1])
        return min(
            rec(i - 1, j) + _d(s_prev(i), a[i - 1]),
            rec(i, j - 1) + _d(t_prev(j), b[j - 1]),
            rec(i - 1, j - 1) + _r(a[i - 1], b[j - 1]),
        )

    if memo:
        rec = lru_cache(maxsize=None)(rec)
    return rec(len(a), len(b))


def editex_naive(a: str, b: str) -> int:
    return _editex_rec(a, b, memo=False)


def editex_memo(a: str, b: str) -> int:
    return _editex_rec(a, b, memo=True)


def lcs_naive(a: str, b: str) -> int:
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i, j - 1), rec(i - 1, j))

    return rec(len(a), len(b))


def lcs_memo(a: str, b: str) -> int:
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i, j - 1), rec(i - 1, j))

    return rec(len(a), len(b))


def smith_waterman_full_matrix(
    a: str, b: str, match: int = 1, mismatch: int = -1, gap: int = -1
) -> int:
    """Full scoring-matrix construction; returns the maximum cell."""
    rows, cols = len(a) + 1, len(b) + 1
    h = [[0] * cols for _ in range(rows)]
    best = 0
    for i in range(1, rows):
        for j in range(1, cols):
            diag = h[i - 1][j - 1] + (match if a[i - 1] == b[j - 1] else mismatch)
            h[i][j] = max(0, diag, h[i - 1][j] + gap, h[i][j - 1] + gap)
            best = max(best, h[i][j])
    return best


def all_strings(alphabet: str, max_len: int):
    """Every string over ``alphabet`` with length <= max_len."""
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [s + c for s in frontier for c in alphabet]
        out.extend(frontier)
    return out


def adam_step_reference(model, grads: dict) -> None:
    """One bias-corrected Adam update, array by array, each operation
    allocating its result. ``model`` holds ``config``, per-layer lists
    ``weights``, ``biases``, ``adam_m_w``, ``adam_v_w``, ``adam_m_b``,
    ``adam_v_b`` and the step count ``adam_t``; the list entries are
    rebound, never written in place."""
    cfg = model.config
    model.adam_t += 1
    t = model.adam_t
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.learning_rate
    for params, grad_list, m_list, v_list in (
        (model.weights, grads["weights"], model.adam_m_w, model.adam_v_w),
        (model.biases, grads["biases"], model.adam_m_b, model.adam_v_b),
    ):
        for i, g in enumerate(grad_list):
            m_list[i] = b1 * m_list[i] + (1.0 - b1) * g
            v_list[i] = b2 * v_list[i] + (1.0 - b2) * g * g
            m_hat = m_list[i] / (1.0 - b1**t)
            v_hat = v_list[i] / (1.0 - b2**t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)


def folds_json_reference(partitions) -> str:
    """The fold file as one ``json.dumps`` of the whole document."""
    doc = [
        {
            "fold": i,
            "train": [[t, f, lbl] for t, f, lbl in train_set.pairs],
            "test": [[t, f, lbl] for t, f, lbl in test_set.pairs],
        }
        for i, (train_set, test_set) in enumerate(partitions)
    ]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def normalized_similarity_reference(measure, a: str, b: str) -> float:
    """The if-chain form of ``strsim.normalized_similarity``."""
    from osnmatch import strsim
    from osnmatch.strsim import Measure

    s, t = a.lower(), b.lower()
    if s == t:
        return 1.0
    longest = max(len(s), len(t))
    if measure is Measure.LEVENSHTEIN:
        return 1.0 - strsim.levenshtein(s, t) / longest
    if measure is Measure.DAMERAU_LEVENSHTEIN:
        return 1.0 - strsim.damerau_levenshtein(s, t) / longest
    if measure is Measure.EDITEX:
        return 1.0 - strsim.editex(s, t) / (2 * longest)
    if measure is Measure.JARO_WINKLER:
        return strsim.jaro_winkler(s, t)
    if measure is Measure.JACCARD_2GRAM:
        return strsim.jaccard_2gram(s, t)
    if measure is Measure.NCD_BZIP2:
        return min(max(1.0 - strsim.ncd_bzip2(s, t), 0.0), 1.0)
    if measure is Measure.LCS:
        return strsim.lcs_length(s, t) / longest
    if measure is Measure.SMITH_WATERMAN:
        shortest = min(len(s), len(t))
        if shortest == 0:
            return 0.0
        return strsim.smith_waterman(s, t) / shortest
    if measure is Measure.COSINE_2GRAM:
        return strsim.cosine_2gram(s, t)
    raise ValueError(f"unknown measure: {measure!r}")


def temporal_features_reference(a_events, b_events, mode) -> list[float]:
    """One pair's temporal features, computed per pair with Python lists:
    both activity masks as 0/1, then their Jaccard similarity."""
    from datetime import timezone

    masks = []
    for events in (a_events, b_events):
        counts = [0] * mode.n_bins
        for e in events:
            utc = e.timestamp.astimezone(timezone.utc)
            counts[utc.hour if mode.value == "hod" else utc.weekday()] += 1
        masks.append([c > 0 for c in counts])
    inter = sum(1 for x, y in zip(*masks) if x and y)
    union = sum(1 for x, y in zip(*masks) if x or y)
    jaccard = inter / union if union else 0.0
    return [1.0 if v else 0.0 for v in masks[0] + masks[1]] + [jaccard]
