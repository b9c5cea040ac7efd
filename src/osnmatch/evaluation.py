"""Partitioning, confusion counts, precision/recall/F1 and cross-validation.

The positive class is "same individual". Micro-averaged metrics (summed
counts over folds) are primary; the per-fold macro average is reported
alongside.

``split``, ``k_folds`` and ``k_folds_user_disjoint`` make every partition
of a ``LabeledPairSet``; ``fold_partitions`` alone picks the kind of
folds, and ``_fold_job`` each fold's seed and inner early-stopping split.
``cross_validate`` returns the out-of-fold record, a ``CrossValidation``
of each row's p(same) from the model of the fold that tests it, the
partitions, the fold models and ``train``'s epoch history; from it
``results(cv, labels)`` builds the dict that ``report.json`` holds as-is
under ``results`` and ``render_report`` renders as ``report.txt``:

    {"counts": {"tp": int, "fp": int, "fn": int, "tn": int},  # summed over folds
     "precision": float, "recall": float, "f1": float,        # micro, from counts
     "macro": {"precision": float, "recall": float, "f1": float},  # fold mean
     "per_fold": [{"fold": int, "counts": {...},
                   "precision": float, "recall": float, "f1": float}, ...]}
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dataset import Featurizer, LabeledPairSet
from .errors import DegenerateSplitError, DimensionMismatchError, TooFewExamplesError
from .mlp import DTYPE, EpochStats, FoldJob, MlpConfig, MlpModel, predict_batch, train

# share of each fold's training pairs actually fitted; the rest is held
# out for early stopping so the test fold never steers training
INNER_TRAIN_FRACTION = 0.9

Partitions = list[tuple[np.ndarray, np.ndarray]]


class CrossValidation(NamedTuple):
    p_same: np.ndarray  # (n,) p(same) from the fold testing each row; NaN if none does
    partitions: Partitions  # (train_rows, test_rows) per fold
    models: list[MlpModel]  # one per fold
    history: list[EpochStats]  # every epoch of every fold, as ``train`` returns it


def confusion(p_same, labels) -> dict[str, int]:
    """Standard confusion counts ``{"tp", "fp", "fn", "tn"}`` with positive
    = "same individual", which is predicted where p(same) >= 0.5."""
    predicted = np.asarray(p_same) >= 0.5
    labels = np.asarray(labels, dtype=bool)
    if predicted.shape != labels.shape:
        raise DimensionMismatchError(f"{len(predicted)} predictions for {len(labels)} labels")
    return {
        "tp": int(np.count_nonzero(predicted & labels)),
        "fp": int(np.count_nonzero(predicted & ~labels)),
        "fn": int(np.count_nonzero(~predicted & labels)),
        "tn": int(np.count_nonzero(~predicted & ~labels)),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(counts: dict[str, int]) -> dict:
    """``{"counts", "precision", "recall", "f1"}``: P = tp/(tp+fp),
    R = tp/(tp+fn), F1 their harmonic mean; ratios with a zero denominator
    are 0.0 by convention."""
    precision = _ratio(counts["tp"], counts["tp"] + counts["fp"])
    recall = _ratio(counts["tp"], counts["tp"] + counts["fn"])
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return {"counts": counts, "precision": precision, "recall": recall, "f1": f1}


def _shuffled_classes(s: LabeledPairSet, rows: np.ndarray, seed: int) -> list[np.ndarray]:
    """The positive ``rows`` (indices into ``s.pairs``), then the negative
    ones, each shuffled in turn by one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    labels = s.labels[rows]
    return [cls[rng.permutation(len(cls))] for cls in (rows[labels], rows[~labels])]


def split(
    s: LabeledPairSet, rows: np.ndarray, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified split of ``rows`` (indices into ``s.pairs``) into
    (train_rows, test_rows): each class, in the order of ``rows``, is
    shuffled with the seed and cut at ``train_fraction`` (floor), so the two
    sides are an exact disjoint partition of ``rows``."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    train_rows, test_rows = [], []
    for cls in _shuffled_classes(s, rows, seed):
        n_train = int(len(cls) * train_fraction)
        if len(cls) and n_train in (0, len(cls)):
            raise DegenerateSplitError(
                f"fraction {train_fraction} leaves a side without a class "
                f"(class size {len(cls)})"
            )
        train_rows.append(cls[:n_train])
        test_rows.append(cls[n_train:])
    return np.concatenate(train_rows), np.concatenate(test_rows)


def k_folds(s: LabeledPairSet, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold partition as (train_rows, test_rows) per fold, row
    indices into ``s.pairs``: every row lands in exactly one test fold and
    per-class fold sizes differ by at most one."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in _shuffled_classes(s, np.arange(len(s.labels)), seed):
        if 0 < len(cls) < k:
            raise TooFewExamplesError(
                f"a class has {len(cls)} examples, fewer than k={k}"
            )
        for i in range(k):
            members[i].append(cls[i::k])
    tests = [np.concatenate(m) for m in members]
    return [(np.concatenate(tests[:i] + tests[i + 1 :]), test) for i, test in enumerate(tests)]


def _positive_components(pairs: list[tuple[str, str]], rows: list[int]):
    """Group the positive ``rows`` whose pairs share a user (either
    endpoint) so a person can never straddle a user-disjoint partition."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in rows:
        t, f = pairs[r]
        a, b = ("t", t), ("f", f)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    components: dict[tuple[str, str], list[int]] = {}
    for r in rows:
        components.setdefault(find(("t", pairs[r][0])), []).append(r)
    return list(components.values())


def k_folds_user_disjoint(
    s: LabeledPairSet, k: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stricter k-fold, as (train_rows, test_rows) per fold, where fold-i
    test users never appear in fold-i training pairs. The groups of
    positives that share a user go, in a seeded order, each to the fold with
    the fewest positives so far (the lowest index on a tie); each endpoint
    of a negative that no positive placed gets a seeded random fold.
    Negatives with endpoints in two different folds are only used for
    training (in folds holding neither endpoint)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    pairs = s.pairs
    neg = np.flatnonzero(~s.labels)
    components = _positive_components(pairs, np.flatnonzero(s.labels).tolist())
    if len(components) < k:
        raise TooFewExamplesError(
            f"{len(components)} user groups with positives, fewer than k={k}"
        )
    order = rng.permutation(len(components))
    fold_pos: list[list[int]] = [[] for _ in range(k)]
    sizes = [0] * k
    for i in order.tolist():
        smallest = sizes.index(min(sizes))
        fold_pos[smallest].extend(components[i])
        sizes[smallest] += len(components[i])
    twitter_fold: dict[str, int] = {}
    flickr_fold: dict[str, int] = {}
    for fold_i, members in enumerate(fold_pos):
        for r in members:
            t, f = pairs[r]
            twitter_fold[t] = fold_i
            flickr_fold[f] = fold_i
    # a fold is drawn for both endpoints of every negative, used or not: row
    # i of one batch draw holds the scalar draws of negative i (twitter, then
    # flickr). The two dicts are independent, so each side takes its column
    # in turn; an endpoint already placed keeps its fold.
    draw_t, draw_f = rng.integers(k, size=(len(neg), 2)).T.tolist()
    neg_pairs = list(map(pairs.__getitem__, neg.tolist()))
    fold_t = np.array(list(map(twitter_fold.setdefault, [t for t, _ in neg_pairs], draw_t)),
                      dtype=np.intp)
    fold_f = np.array(list(map(flickr_fold.setdefault, [f for _, f in neg_pairs], draw_f)),
                      dtype=np.intp)
    pos = [np.array(members, dtype=np.intp) for members in fold_pos]
    folds = []
    for i in range(k):
        in_t, in_f = fold_t == i, fold_f == i
        test = np.concatenate([pos[i], neg[in_t & in_f]])
        train = np.concatenate([*pos[:i], *pos[i + 1 :], neg[~in_t & ~in_f]])
        folds.append((train, test))
    return folds


def _fold_job(pair_set: LabeledPairSet, fold_i: int, train_rows: np.ndarray,
              seed: int) -> FoldJob:
    fold_seed = seed ^ fold_i
    try:
        fit, stop = split(pair_set, train_rows, INNER_TRAIN_FRACTION, fold_seed)
    except DegenerateSplitError:
        # too few examples for an inner holdout; stop on training loss
        fit = stop = train_rows
    return FoldJob(fit=fit, stop=stop, seed=fold_seed)


def fold_partitions(pair_set: LabeledPairSet, k: int, seed: int,
                    user_disjoint: bool) -> Partitions:
    """The k (train_rows, test_rows) folds of ``pair_set``, user-disjoint or stratified."""
    folder = k_folds_user_disjoint if user_disjoint else k_folds
    return folder(pair_set, k, seed)


def cross_validate(cfg: MlpConfig, featurizer: Featurizer, pair_set: LabeledPairSet,
                   partitions: Partitions, seed: int) -> CrossValidation:
    """Train on each fold's training rows and score its test rows; returns
    the out-of-fold record laid out in the module docstring.

    All pairs are featurized once into one matrix; the folds are row
    indices into it, and the fold models are trained in one ``train``
    call. Per-fold seeds are derived as seed XOR fold index; within each
    fold an inner stratified slice of the training pairs serves as the
    early-stopping set.
    """
    features = featurizer(pair_set.pairs)
    jobs = [_fold_job(pair_set, i, rows, seed) for i, (rows, _) in enumerate(partitions)]
    models, history = train(cfg, features.x, pair_set.labels, jobs)
    p_same = np.full(len(pair_set.labels), np.nan, dtype=DTYPE)
    for model, (_, test) in zip(models, partitions):
        p_same[test] = predict_batch(model, features.x[test])
    return CrossValidation(p_same, partitions, models, history)


def results(cv: CrossValidation, labels: np.ndarray) -> dict:
    """The results dict laid out in the module docstring, from each fold's
    test rows of ``cv.p_same`` and ``labels``."""
    per_fold = [
        {"fold": i, **metrics(confusion(cv.p_same[test], labels[test]))}
        for i, (_, test) in enumerate(cv.partitions)
    ]
    pooled = metrics({c: sum(f["counts"][c] for f in per_fold)
                      for c in ("tp", "fp", "fn", "tn")})
    pooled["macro"] = {m: float(np.mean([f[m] for f in per_fold]))
                       for m in ("precision", "recall", "f1")}
    pooled["per_fold"] = per_fold
    return pooled


def render_report(results: dict, title: str) -> str:
    """Plain-text table of per-fold and aggregate metrics."""
    lines = [title, "-" * len(title),
             f"{'fold':>6} {'tp':>5} {'fp':>5} {'fn':>5} {'tn':>6} "
             f"{'prec':>7} {'rec':>7} {'f1':>7}"]
    rows = [(f["fold"], f) for f in results["per_fold"]] + [("micro", results)]
    for label, r in rows:
        c = r["counts"]
        lines.append(
            f"{label:>6} {c['tp']:>5} {c['fp']:>5} {c['fn']:>5} {c['tn']:>6} "
            f"{r['precision']:>7.4f} {r['recall']:>7.4f} {r['f1']:>7.4f}"
        )
    macro = results["macro"]
    lines.append(
        f"{'macro':>6} {'':>5} {'':>5} {'':>5} {'':>6} "
        f"{macro['precision']:>7.4f} {macro['recall']:>7.4f} {macro['f1']:>7.4f}"
    )
    return "\n".join(lines) + "\n"
