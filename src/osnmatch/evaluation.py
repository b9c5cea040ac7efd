"""Confusion counts, precision/recall/F1 and k-fold cross-validation.

The positive class is "same individual". Micro-averaged metrics (summed
counts over folds) are primary; the per-fold macro average is reported
alongside.

``fold_partitions`` alone picks stratified or user-disjoint folds.
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

from typing import Callable, NamedTuple

import numpy as np

from .dataset import LabeledPairSet, k_folds, k_folds_user_disjoint, split
from .errors import DegenerateSplitError, DimensionMismatchError
from .mlp import DTYPE, EpochStats, FoldJob, MlpConfig, MlpModel, predict_batch, train
from .profile_features import FeatureMatrix

# share of each fold's training pairs actually fitted; the rest is held
# out for early stopping so the test fold never steers training
INNER_TRAIN_FRACTION = 0.9

Featurizer = Callable[[list[tuple[str, str]]], FeatureMatrix]
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
