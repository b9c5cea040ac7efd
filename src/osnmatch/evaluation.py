"""Confusion counts, precision/recall/F1 and k-fold cross-validation.

The positive class is "same individual". Micro-averaged metrics (summed
counts over folds) are primary; the per-fold macro average is reported
alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dataset import LabeledPairSet, k_folds, k_folds_user_disjoint, split
from .errors import DegenerateSplitError, LengthMismatchError
from .mlp import MlpConfig, MlpModel, Prediction, predict_batch, train
from .profile_features import PairFeatureVector

# share of each fold's training pairs actually fitted; the rest is held
# out for early stopping so the test fold never steers training
INNER_TRAIN_FRACTION = 0.9

Featurizer = Callable[[list[tuple[str, str, bool]]], list[PairFeatureVector]]


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


def confusion(preds: list[Prediction], labels: list[bool]) -> ConfusionCounts:
    """Standard confusion counts with positive = "same individual"."""
    if len(preds) != len(labels):
        raise LengthMismatchError(f"{len(preds)} predictions for {len(labels)} labels")
    counts = ConfusionCounts()
    for pred, label in zip(preds, labels):
        predicted = pred.predicted_same
        if predicted and label:
            counts.tp += 1
        elif predicted and not label:
            counts.fp += 1
        elif not predicted and label:
            counts.fn += 1
        else:
            counts.tn += 1
    return counts


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


def _run_fold(
    cfg: MlpConfig,
    by_pair: dict,
    fold_i: int,
    train_pairs: LabeledPairSet,
    test_pairs: LabeledPairSet,
    seed: int,
) -> tuple[MlpModel, ConfusionCounts]:
    fold_seed = seed ^ fold_i
    fold_cfg = replace(cfg, rng_seed=fold_seed)
    train_vecs = [by_pair[p] for p in train_pairs.pairs]
    try:
        fit_set, stop_set = split(train_pairs, INNER_TRAIN_FRACTION, fold_seed)
        fit_vecs = [by_pair[p] for p in fit_set.pairs]
        stop_vecs = [by_pair[p] for p in stop_set.pairs]
    except DegenerateSplitError:
        # too few examples for an inner holdout; stop on training loss
        fit_vecs = stop_vecs = train_vecs
    model, _ = train(fold_cfg, fit_vecs, stop_vecs)
    test_vecs = [by_pair[p] for p in test_pairs.pairs]
    xs = np.array([v.values for v in test_vecs])
    preds = predict_batch(model, xs)
    labels = [p[2] for p in test_pairs.pairs]
    return model, confusion(preds, labels)


def cross_validate(
    cfg: MlpConfig,
    featurizer: Featurizer,
    pair_set: LabeledPairSet,
    k: int,
    seed: int,
    user_disjoint: bool = False,
) -> tuple[EvalReport, list[MlpModel]]:
    """Train on k-1 folds and score the held-out fold, k times.

    Each pair is featurized once up front. Per-fold seeds are derived as
    seed XOR fold index; within each fold an inner stratified slice of the
    training pairs serves as the early-stopping set.
    """
    folder = k_folds_user_disjoint if user_disjoint else k_folds
    folds = folder(pair_set, k, seed)
    vectors = featurizer(pair_set.pairs)
    by_pair = {pair: vec for pair, vec in zip(pair_set.pairs, vectors)}

    total = ConfusionCounts()
    per_fold: list[EvalReport] = []
    models: list[MlpModel] = []
    for i, (train_p, test_p) in enumerate(folds):
        model, counts = _run_fold(cfg, by_pair, i, train_p, test_p, seed)
        models.append(model)
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
