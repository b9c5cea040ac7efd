"""Output checks and small statistics used by the benchmark.

Every check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import re

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def average_precision(scores: list[float], labels: list[bool]) -> float:
    """Area under the precision-recall curve as a step function.

    AP = sum over distinct score thresholds, highest first, of
    (recall gained at the threshold) x (precision at the threshold). Pairs
    with tied scores enter together, so the result does not depend on the
    order of ties.
    """
    if len(scores) != len(labels):
        raise ValueError(f"{len(scores)} scores for {len(labels)} labels")
    n_pos = sum(1 for y in labels if y)
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    ranked = sorted(zip(scores, labels), key=lambda sy: -sy[0])
    ap = 0.0
    tp = fp = 0
    i = 0
    while i < len(ranked):
        score = ranked[i][0]
        gained = 0
        while i < len(ranked) and ranked[i][0] == score:
            if ranked[i][1]:
                tp += 1
                gained += 1
            else:
                fp += 1
            i += 1
        ap += (gained / n_pos) * (tp / (tp + fp))
    return ap


def fold_counts(report: dict) -> list[tuple[int, int, int, int]]:
    """(tp, fp, fn, tn) of every fold of a report.json document."""
    return [
        (f["counts"]["tp"], f["counts"]["fp"], f["counts"]["fn"], f["counts"]["tn"])
        for f in report["results"]["per_fold"]
    ]


def check_report(report: dict) -> list[str]:
    """Confusion totals of a report.json must cover exactly the sampled
    pairs: tp+fn = n_pos and fp+tn = n_neg, in total and summed over folds."""
    problems = []
    try:
        counts = report["results"]["counts"]
        n_pos, n_neg = report["dataset"]["n_pos"], report["dataset"]["n_neg"]
        per_fold = fold_counts(report)
    except (KeyError, TypeError) as exc:
        return [f"report.json lacks {exc}"]
    if counts["tp"] + counts["fn"] != n_pos:
        problems.append(f"tp+fn = {counts['tp'] + counts['fn']}, n_pos = {n_pos}")
    if counts["fp"] + counts["tn"] != n_neg:
        problems.append(f"fp+tn = {counts['fp'] + counts['tn']}, n_neg = {n_neg}")
    summed = tuple(sum(c[i] for c in per_fold) for i in range(4))
    total = (counts["tp"], counts["fp"], counts["fn"], counts["tn"])
    if summed != total:
        problems.append(f"per-fold counts sum to {summed}, totals are {total}")
    return problems


def check_fold_partition(folds: list[dict], positives: set[tuple[str, str]]) -> list[str]:
    """User-disjoint folds: no user of a fold's test pairs appears in that
    fold's train pairs, and every ground-truth positive is in exactly one
    test fold (and no other pair is labelled positive)."""
    problems = []
    test_hits: dict[tuple[str, str], int] = {}
    for fold in folds:
        i = fold["fold"]
        test_users = {("t", t) for t, _, _ in fold["test"]}
        test_users |= {("f", f) for _, f, _ in fold["test"]}
        leaked = [
            (t, f) for t, f, _ in fold["train"]
            if ("t", t) in test_users or ("f", f) in test_users
        ]
        if leaked:
            problems.append(f"fold {i}: {len(leaked)} train pairs share a test user, "
                            f"first {leaked[0]}")
        for t, f, label in fold["test"]:
            if label:
                test_hits[(t, f)] = test_hits.get((t, f), 0) + 1
        for t, f, label in fold["train"]:
            if label and (t, f) not in positives:
                problems.append(f"fold {i}: train pair {(t, f)} labelled positive")
                break
    twice = [p for p, n in test_hits.items() if n > 1]
    if twice:
        problems.append(f"{len(twice)} positives in several test folds, first {twice[0]}")
    unknown = set(test_hits) - positives
    if unknown:
        problems.append(f"{len(unknown)} test positives are not ground truth")
    absent = positives - set(test_hits)
    if absent:
        problems.append(f"{len(absent)} positives in no test fold")
    return problems


def oracle_mismatches(field_pairs, measures, oracles) -> list[str]:
    """Each measure must equal its oracle on every field pair."""
    problems = []
    for name, fn in measures.items():
        oracle = oracles[name]
        for a, b in field_pairs:
            got, want = fn(a, b), oracle(a, b)
            if got != want:
                problems.append(f"{name}({a!r}, {b!r}) = {got}, oracle says {want}")
    return problems
