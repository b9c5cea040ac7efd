"""Independent reference implementations used only by tests.

Each oracle is a direct recursive transcription of the defining
recurrence, kept deliberately separate from the iterative DP code under
test (including its own copy of the phonetic letter groups). The *_memo
variants evaluate the identical recurrence with memoization so larger
strings stay affordable. ``jaro_winkler_scan``, ``jaccard_2gram_sets``,
``cosine_2gram_counters`` and ``ncd_bzip2_level9`` are the one-pair forms
of the other measures that the column kernels of ``osnmatch.strsim``
replaced: a window scan per pair, bigram sets and counters built per pair,
and every string compressed at level 9. ``text_field_score`` is the
one-pair form of the field rule that the ``ps`` column kernel of
``osnmatch.profile_features`` applies to a whole field at once.

``adam_step_reference`` is the per-layer Adam update that the flat,
in-place one in ``osnmatch.mlp`` replaced; ``train_reference`` is the
one-network-at-a-time training loop that the lockstep ``osnmatch.mlp.train``
replaced, on 2-D arrays and that per-layer update;
``sparse_negatives_reference`` is the scalar candidate loop that the batch
draw in ``osnmatch.dataset.negative_sample`` replaced;
``split_reference`` and ``k_folds_reference`` are the pair-list split and
folds that the row-index ones in ``osnmatch.dataset`` replaced, in the same
order; ``k_folds_user_disjoint_reference`` is the per-fold scan of every
negative that ``osnmatch.dataset.k_folds_user_disjoint`` replaced, with a
breadth-first grouping of the positives that share a user in place of the
library's union-find;
``folds_json_reference`` is the ``json.dumps`` fold export that
``osnmatch.cli.write_folds_json`` replaced; ``pairs_filter_reference`` is
the loop with a seen set and a drop counter that the table of distinct
pairs in ``osnmatch.dataset.load_corpus`` replaced; ``schedule_reference``
is the scan for the end of each run of equal batch sizes that
``osnmatch.mlp._schedule`` replaced. ``init_model`` builds one untrained
network the way each stacked fold network starts.
"""

from __future__ import annotations

import bz2
import json
import math
from collections import Counter, deque
from functools import lru_cache

import numpy as np

from osnmatch.mlp import MlpConfig, MlpModel, _init_weights


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


def jaro_winkler_scan(s: str, t: str) -> float:
    """Jaro-Winkler of two folded strings by a scan of the match window
    per character of ``s``."""
    jaro = _jaro(s, t)
    prefix = 0
    for cs, ct in zip(s[:4], t[:4]):
        if cs != ct:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def _bigrams(s: str) -> set[str]:
    return {s[i : i + 2] for i in range(len(s) - 1)}


def jaccard_2gram_sets(s: str, t: str) -> float:
    """Jaccard coefficient of the 2-gram sets of two folded strings, each
    set built for the pair."""
    ga, gb = _bigrams(s), _bigrams(t)
    if not ga or not gb:
        return 1.0 if (not ga and not gb and s == t) else 0.0
    return len(ga & gb) / len(ga | gb)


def cosine_2gram_counters(s: str, t: str) -> float:
    """Cosine of the 2-gram count vectors of two folded strings, each
    ``Counter`` built for the pair."""
    if s == t:
        return 1.0
    ca = Counter(s[i : i + 2] for i in range(len(s) - 1))
    cb = Counter(t[i : i + 2] for i in range(len(t) - 1))
    if not ca or not cb:
        return 0.0
    dot = sum(n * cb[g] for g, n in ca.items())
    norm = math.sqrt(sum(n * n for n in ca.values())) * math.sqrt(
        sum(n * n for n in cb.values())
    )
    return dot / norm


def ncd_bzip2_level9(s: str, t: str) -> float:
    """NCD of two folded strings, every string compressed by bzip2 at
    level 9."""
    xa, xb = s.encode("utf-8", "surrogatepass"), t.encode("utf-8", "surrogatepass")
    ca, cb = len(bz2.compress(xa, 9)), len(bz2.compress(xb, 9))
    cab = len(bz2.compress(xa + xb, 9))
    return (cab - min(ca, cb)) / max(ca, cb)


def text_field_score(measure, a: str, b: str) -> float:
    """Score of one textual field across a pair: 0.0 when present on only
    one side, 1.0 when absent on both, else the normalized similarity."""
    from osnmatch.strsim import normalized_similarity

    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return normalized_similarity(measure, a, b)


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


def init_model(cfg: MlpConfig, rng: np.random.Generator | None = None) -> MlpModel:
    """Float32 weights drawn by ``osnmatch.mlp._init_weights`` from ``rng``
    (by default seeded with ``cfg.rng_seed``), biases zero."""
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    model = MlpModel(config=cfg, params=np.zeros(cfg.n_params, dtype=np.float32))
    _init_weights(cfg, rng, model.weights)
    return model


def adam_step_reference(model, grads: dict) -> None:
    """One bias-corrected Adam update, array by array, each operation
    allocating its result. ``model`` holds ``config``, per-layer lists
    ``weights``, ``biases``, ``adam_m_w``, ``adam_v_w``, ``adam_m_b``,
    ``adam_v_b`` and the step count ``adam_t``; the list entries are
    rebound, never written in place. Each operation runs in the dtype of
    the arrays given, float32 for the trainer's; ``m`` is zeroed where its
    magnitude is below the dtype's smallest normal value."""
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
            m_list[i] = m_list[i] * (np.abs(m_list[i]) >= np.finfo(g.dtype).tiny)
            v_list[i] = b2 * v_list[i] + (1.0 - b2) * g * g
            m_hat = m_list[i] / (1.0 - b1**t)
            v_hat = v_list[i] / (1.0 - b2**t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)


def _forward_reference(weights, biases, x, rate, rng):
    """One (n, input_dim) batch through the net with per-layer 2-D arrays,
    in the dtype of ``x``; returns (probabilities, activations,
    pre-activations, masks)."""
    activations, pre_acts, masks = [x], [], []
    a = x
    for w, b in zip(weights[:-1], biases[:-1]):
        z = a @ w + b
        pre_acts.append(z)
        a = np.maximum(z, 0.0)
        if rate > 0.0:
            keep = rng.random(a.shape, dtype=a.dtype) >= rate
            mask = (keep / (1.0 - rate)).astype(a.dtype)
            a = a * mask
            masks.append(mask)
        activations.append(a)
    z_out = a @ weights[-1] + biases[-1]
    pre_acts.append(z_out)
    shifted = z_out - z_out.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True), activations, pre_acts, masks


def _cce_reference(probs, labels) -> float:
    p = probs[np.arange(len(labels)), np.where(labels, 1, 0)]
    return float(-np.log(np.maximum(p, 1e-12)).mean())


def train_reference(cfg, x_train, y_train, x_val, y_val):
    """Train one network alone, in float32: seeded init (drawn in float64,
    then rounded), shuffling and dropout, Adam through
    ``adam_step_reference`` and early stopping on validation loss.
    Returns (the best epoch's parameters as one vector in W0, b0, W1, b1,
    ... order, [(epoch, train_loss, val_loss), ...])."""
    from types import SimpleNamespace

    x_train, x_val = x_train.astype(np.float32), x_val.astype(np.float32)
    rng = np.random.default_rng(cfg.rng_seed)
    weights, biases = [], []
    for fan_in, fan_out in cfg.layer_dims:
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32))
        biases.append(np.zeros(fan_out, dtype=np.float32))
    model = SimpleNamespace(
        config=cfg, weights=weights, biases=biases,
        adam_m_w=[np.zeros_like(w) for w in weights],
        adam_v_w=[np.zeros_like(w) for w in weights],
        adam_m_b=[np.zeros_like(b) for b in biases],
        adam_v_b=[np.zeros_like(b) for b in biases],
        adam_t=0,
    )

    def flat():
        return np.concatenate(
            [a for pair in zip(model.weights, model.biases) for a in pair], axis=None
        )

    best_val, best_params, stale, history = np.inf, None, 0, []
    n = len(x_train)
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            probs, acts, pre, masks = _forward_reference(
                model.weights, model.biases, x_train[idx], cfg.dropout_rate, rng
            )
            labels = y_train[idx]
            batch_losses.append(_cce_reference(probs, labels))
            onehot = np.zeros_like(probs)
            onehot[np.arange(len(idx)), np.where(labels, 1, 0)] = 1.0
            dz = (probs - onehot) / len(idx)
            grads = {"weights": [None] * len(weights), "biases": [None] * len(biases)}
            for layer in reversed(range(len(weights))):
                grads["weights"][layer] = acts[layer].T @ dz
                grads["biases"][layer] = dz.sum(axis=0)
                if layer == 0:
                    break
                da = dz @ model.weights[layer].T
                if masks:
                    da = da * masks[layer - 1]
                dz = da * (pre[layer - 1] > 0.0)
            adam_step_reference(model, grads)
        val_probs = _forward_reference(model.weights, model.biases, x_val, 0.0, None)[0]
        val_loss = _cce_reference(val_probs, y_val)
        history.append((epoch, float(np.mean(batch_losses)), val_loss))
        if val_loss < best_val:
            best_val, best_params, stale = val_loss, flat(), 0
        else:
            stale += 1
            if stale > cfg.early_stop_patience:
                break
    return best_params, history


def sparse_negatives_reference(twitter_users, flickr_users, positives, target, seed):
    """``target`` negatives drawn one candidate at a time, a scalar draw
    for its twitter and then its flickr user, skipping positives and
    repeats."""
    rng = np.random.default_rng(seed)
    pos_set = set(positives)
    negatives = []
    while len(negatives) < target:
        t = twitter_users[rng.integers(len(twitter_users))]
        f = flickr_users[rng.integers(len(flickr_users))]
        if (t, f) in pos_set or (t, f) in negatives:
            continue
        negatives.append((t, f))
    return negatives


def split_reference(pairs, train_fraction: float, seed: int):
    """Stratified split of a list of (t, f, label) triples into two lists,
    each class shuffled with the seed and cut at the floor."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in ([p for p in pairs if p[2]], [p for p in pairs if not p[2]]):
        if not cls:
            continue
        order = rng.permutation(len(cls))
        n_train = int(len(cls) * train_fraction)
        train.extend(cls[i] for i in order[:n_train])
        test.extend(cls[i] for i in order[n_train:])
    return train, test


def k_folds_reference(pairs, k: int, seed: int):
    """Stratified folds of a list of triples as (train, test) lists: the
    shuffled members of each class are dealt to the folds in turn."""
    rng = np.random.default_rng(seed)
    fold_members = [[] for _ in range(k)]
    for cls in ([p for p in pairs if p[2]], [p for p in pairs if not p[2]]):
        if not cls:
            continue
        order = rng.permutation(len(cls))
        for rank, i in enumerate(order):
            fold_members[rank % k].append(cls[i])
    return [
        ([p for j in range(k) if j != i for p in fold_members[j]], fold_members[i])
        for i in range(k)
    ]


def _shared_user_groups(ids):
    """The indices of the (t, f) ``ids`` linked by a shared Twitter or
    Flickr id, by breadth-first search from each index not yet reached:
    groups in order of their first index, each in index order."""
    by_user = {}
    for i, (t, f) in enumerate(ids):
        by_user.setdefault(("t", t), []).append(i)
        by_user.setdefault(("f", f), []).append(i)
    reached, groups = set(), []
    for start in range(len(ids)):
        if start in reached:
            continue
        reached.add(start)
        queue, group = deque([start]), []
        while queue:
            i = queue.popleft()
            group.append(i)
            t, f = ids[i]
            for j in by_user[("t", t)] + by_user[("f", f)]:
                if j not in reached:
                    reached.add(j)
                    queue.append(j)
        groups.append(sorted(group))
    return groups


def k_folds_user_disjoint_reference(pairs, k: int, seed: int):
    """User-disjoint folds of a list of triples as (train, test) lists, with
    its own grouping of positives, a scan of the folds for the smallest per
    group, one scalar draw per negative endpoint and a scan of every
    negative for every fold."""
    rng = np.random.default_rng(seed)
    pos = [p for p in pairs if p[2]]
    neg = [p for p in pairs if not p[2]]
    ids = [(t, f) for t, f, _ in pos]
    components = [[pos[i] for i in c] for c in _shared_user_groups(ids)]
    order = rng.permutation(len(components))
    fold_pos = [[] for _ in range(k)]
    for i in order:
        smallest = min(range(k), key=lambda j: (len(fold_pos[j]), j))
        fold_pos[smallest].extend(components[i])
    twitter_fold, flickr_fold = {}, {}
    for fold_i, members in enumerate(fold_pos):
        for t, f, _ in members:
            twitter_fold[t] = fold_i
            flickr_fold[f] = fold_i
    neg_folds = {}
    for pair in neg:
        t, f, _ = pair
        ft = twitter_fold.setdefault(t, int(rng.integers(k)))
        ff = flickr_fold.setdefault(f, int(rng.integers(k)))
        neg_folds[pair] = (ft, ff)
    folds = []
    for i in range(k):
        test = list(fold_pos[i])
        train = [p for j in range(k) if j != i for p in fold_pos[j]]
        for pair, (ft, ff) in neg_folds.items():
            if ft == i and ff == i:
                test.append(pair)
            elif ft != i and ff != i:
                train.append(pair)
        folds.append((train, test))
    return folds


def folds_json_reference(pairs, partitions) -> str:
    """The fold file as one ``json.dumps`` of the whole document, for
    (train_rows, test_rows) index arrays into ``pairs``."""
    doc = [
        {
            "fold": i,
            "train": [list(pairs[r]) for r in train_rows],
            "test": [list(pairs[r]) for r in test_rows],
        }
        for i, (train_rows, test_rows) in enumerate(partitions)
    ]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def pairs_filter_reference(rows, accounts):
    """(positive pairs, dropped count) of pairs.csv data rows, given the
    accounts as ("twitter"|"flickr", user_id): a repeat of a row already
    read is dropped, and so is a first row naming a missing profile."""
    kept, seen, dropped = [], set(), 0
    for t, f in rows:
        if (t, f) in seen:
            dropped += 1
            continue
        seen.add((t, f))
        if ("twitter", t) not in accounts or ("flickr", f) not in accounts:
            dropped += 1
            continue
        kept.append((t, f))
    return kept, dropped


def schedule_reference(sizes, batch_size):
    """One epoch's lockstep steps (start, lo, hi, b) of networks with the
    ascending fit ``sizes``: networks lo..hi-1 each take b rows from
    position ``start``."""
    steps = []
    for start in range(0, sizes[-1], batch_size):
        lo = next(r for r, n in enumerate(sizes) if n > start)
        while lo < len(sizes):
            b = min(batch_size, sizes[lo] - start)
            hi = lo + 1
            while hi < len(sizes) and min(batch_size, sizes[hi] - start) == b:
                hi += 1
            steps.append((start, lo, hi, b))
            lo = hi
    return steps


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


def temporal_features_reference(a_seconds, b_seconds, mode) -> list[float]:
    """One pair's temporal features, computed per pair with Python lists
    from each post's UTC ``datetime``: both activity masks as 0/1, then
    their Jaccard similarity."""
    from datetime import datetime, timezone

    masks = []
    for seconds in (a_seconds, b_seconds):
        counts = [0] * mode.n_bins
        for s in seconds.tolist():
            utc = datetime.fromtimestamp(s, timezone.utc)
            counts[utc.hour if mode.value == "hod" else utc.weekday()] += 1
        masks.append([c > 0 for c in counts])
    inter = sum(1 for x, y in zip(*masks) if x and y)
    union = sum(1 for x, y in zip(*masks) if x or y)
    jaccard = inter / union if union else 0.0
    return [1.0 if v else 0.0 for v in masks[0] + masks[1]] + [jaccard]
