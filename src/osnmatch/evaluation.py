"""Confusion counts, precision/recall/F1 and k-fold cross-validation.

The positive class is "same individual". Micro-averaged metrics (summed
counts over folds) are primary; the per-fold macro average is reported
alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import LabeledPairSet, k_folds, k_folds_user_disjoint, split
from .errors import DegenerateSplitError, LengthMismatchError
from .mlp import FoldJob, MlpConfig, MlpModel, predict_batch, train
from .profile_features import FeatureMatrix

# share of each fold's training pairs actually fitted; the rest is held
# out for early stopping so the test fold never steers training
INNER_TRAIN_FRACTION = 0.9

Featurizer = Callable[[list[tuple[str, str, bool]]], FeatureMatrix]


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
            tn=self.tn + other.tn,
        )


@dataclass
class EvalReport:
    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float
    per_fold: list["EvalReport"] | None = None
    macro_precision: float | None = None
    macro_recall: float | None = None
    macro_f1: float | None = None


def confusion(p_same, labels) -> ConfusionCounts:
    """Standard confusion counts with positive = "same individual", which
    is predicted where p(same) >= 0.5."""
    predicted = np.asarray(p_same) >= 0.5
    labels = np.asarray(labels, dtype=bool)
    if predicted.shape != labels.shape:
        raise LengthMismatchError(f"{len(predicted)} predictions for {len(labels)} labels")
    return ConfusionCounts(
        tp=int(np.count_nonzero(predicted & labels)),
        fp=int(np.count_nonzero(predicted & ~labels)),
        fn=int(np.count_nonzero(~predicted & labels)),
        tn=int(np.count_nonzero(~predicted & ~labels)),
    )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def metrics(counts: ConfusionCounts) -> EvalReport:
    """P = tp/(tp+fp), R = tp/(tp+fn), F1 their harmonic mean; ratios with
    a zero denominator are 0.0 by convention."""
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    recall = _ratio(counts.tp, counts.tp + counts.fn)
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return EvalReport(counts=counts, precision=precision, recall=recall, f1=f1)


def _fold_job(pair_set: LabeledPairSet, fold_i: int, train_rows: np.ndarray,
              seed: int) -> FoldJob:
    fold_seed = seed ^ fold_i
    try:
        fit, stop = split(pair_set, train_rows, INNER_TRAIN_FRACTION, fold_seed)
    except DegenerateSplitError:
        # too few examples for an inner holdout; stop on training loss
        fit = stop = train_rows
    return FoldJob(fit=fit, stop=stop, seed=fold_seed)


def cross_validate(
    cfg: MlpConfig,
    featurizer: Featurizer,
    pair_set: LabeledPairSet,
    k: int,
    seed: int,
    user_disjoint: bool = False,
) -> tuple[EvalReport, list[MlpModel]]:
    """Train on k-1 folds and score the held-out fold, k times.

    All pairs are featurized once into one matrix; the folds are row
    indices into it, and the k fold models are trained in one ``train``
    call. Per-fold seeds are derived as seed XOR fold index; within each
    fold an inner stratified slice of the training pairs serves as the
    early-stopping set.
    """
    folder = k_folds_user_disjoint if user_disjoint else k_folds
    folds = folder(pair_set, k, seed)
    features = featurizer(pair_set.pairs)
    y = pair_set.labels

    jobs = [_fold_job(pair_set, i, rows, seed) for i, (rows, _) in enumerate(folds)]
    models, _ = train(cfg, features.x, y, jobs)
    total = ConfusionCounts()
    per_fold: list[EvalReport] = []
    for model, (_, test) in zip(models, folds):
        counts = confusion(predict_batch(model, features.x[test]), y[test])
        total = total + counts
        per_fold.append(metrics(counts))

    report = metrics(total)
    report.per_fold = per_fold
    report.macro_precision = float(np.mean([r.precision for r in per_fold]))
    report.macro_recall = float(np.mean([r.recall for r in per_fold]))
    report.macro_f1 = float(np.mean([r.f1 for r in per_fold]))
    return report, models


def report_as_dict(report: EvalReport) -> dict:
    """JSON-ready view of a report (fold entries flattened)."""
    out = {
        "counts": {
            "tp": report.counts.tp,
            "fp": report.counts.fp,
            "fn": report.counts.fn,
            "tn": report.counts.tn,
        },
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
    }
    if report.macro_f1 is not None:
        out["macro"] = {
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        }
    if report.per_fold is not None:
        out["per_fold"] = [
            {
                "fold": i,
                "counts": {
                    "tp": r.counts.tp,
                    "fp": r.counts.fp,
                    "fn": r.counts.fn,
                    "tn": r.counts.tn,
                },
                "precision": r.precision,
                "recall": r.recall,
                "f1": r.f1,
            }
            for i, r in enumerate(report.per_fold)
        ]
    return out


def render_report(report: EvalReport, title: str = "evaluation") -> str:
    """Plain-text table of per-fold and aggregate metrics."""
    lines = [title, "-" * len(title)]
    header = f"{'fold':>6} {'tp':>5} {'fp':>5} {'fn':>5} {'tn':>6} {'prec':>7} {'rec':>7} {'f1':>7}"
    lines.append(header)
    if report.per_fold:
        for i, r in enumerate(report.per_fold):
            c = r.counts
            lines.append(
                f"{i:>6} {c.tp:>5} {c.fp:>5} {c.fn:>5} {c.tn:>6} "
                f"{r.precision:>7.4f} {r.recall:>7.4f} {r.f1:>7.4f}"
            )
    c = report.counts
    lines.append(
        f"{'micro':>6} {c.tp:>5} {c.fp:>5} {c.fn:>5} {c.tn:>6} "
        f"{report.precision:>7.4f} {report.recall:>7.4f} {report.f1:>7.4f}"
    )
    if report.macro_f1 is not None:
        lines.append(
            f"{'macro':>6} {'':>5} {'':>5} {'':>5} {'':>6} "
            f"{report.macro_precision:>7.4f} {report.macro_recall:>7.4f} "
            f"{report.macro_f1:>7.4f}"
        )
    return "\n".join(lines) + "\n"
