"""Tests of the benchmark's own helpers: python -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_average_precision_hand_computed():
    # ranked: + - + -  -> precision 1 at recall 1/2, 2/3 at recall 2/2
    scores = [0.9, 0.8, 0.7, 0.1]
    labels = [True, False, True, False]
    assert checks.average_precision(scores, labels) == pytest.approx(0.5 * 1 + 0.5 * 2 / 3)


def test_average_precision_ties_enter_together():
    # 0.9: one positive, then a tie at 0.5 holding one positive and one
    # negative, then a positive at 0.2:
    #   threshold 0.9: recall 1/3, precision 1/1
    #   threshold 0.5: recall 2/3, precision 2/3
    #   threshold 0.2: recall 3/3, precision 3/4
    scores = [0.5, 0.9, 0.2, 0.5]
    labels = [False, True, True, True]
    expected = (1 / 3) * 1 + (1 / 3) * (2 / 3) + (1 / 3) * (3 / 4)
    assert checks.average_precision(scores, labels) == pytest.approx(expected)
    swapped = checks.average_precision([0.5, 0.9, 0.2, 0.5], [True, True, True, False])
    assert swapped == pytest.approx(expected)


def test_average_precision_perfect_and_all_tied():
    assert checks.average_precision([0.9, 0.1, 0.8], [True, False, True]) == 1.0
    # one threshold: precision is the positive rate
    assert checks.average_precision([0.5] * 4, [True, False, False, False]) == 0.25


def _fold(i, train, test):
    return {"fold": i, "train": [list(p) for p in train], "test": [list(p) for p in test]}


POSITIVES = {("t1", "f1"), ("t2", "f2")}


def test_fold_partition_accepts_disjoint_folds():
    folds = [
        _fold(0, [("t2", "f2", True)], [("t1", "f1", True)]),
        _fold(1, [("t1", "f1", True)], [("t2", "f2", True), ("t2", "f3", False)]),
    ]
    assert checks.check_fold_partition(folds, POSITIVES) == []


def test_fold_partition_rejects_leaked_user():
    folds = [
        _fold(0, [("t2", "f2", True), ("t1", "f9", False)], [("t1", "f1", True)]),
        _fold(1, [("t1", "f1", True)], [("t2", "f2", True)]),
    ]
    problems = checks.check_fold_partition(folds, POSITIVES)
    assert len(problems) == 1 and "fold 0" in problems[0] and "test user" in problems[0]


def test_fold_partition_rejects_positive_in_two_or_no_test_folds():
    twice = [
        _fold(0, [], [("t1", "f1", True), ("t2", "f2", True)]),
        _fold(1, [], [("t2", "f2", True)]),
    ]
    assert any("several test folds" in p for p in checks.check_fold_partition(twice, POSITIVES))
    absent = [_fold(0, [("t2", "f2", True)], [("t1", "f1", True)])]
    assert any("no test fold" in p for p in checks.check_fold_partition(absent, POSITIVES))


def test_check_report_counts_must_cover_the_pairs():
    report = {
        "dataset": {"n_pos": 3, "n_neg": 5},
        "results": {
            "counts": {"tp": 2, "fn": 1, "fp": 1, "tn": 4},
            "per_fold": [
                {"counts": {"tp": 1, "fn": 1, "fp": 0, "tn": 2}},
                {"counts": {"tp": 1, "fn": 0, "fp": 1, "tn": 2}},
            ],
        },
    }
    assert checks.check_report(report) == []
    report["dataset"]["n_neg"] = 6
    assert checks.check_report(report) == ["fp+tn = 5, n_neg = 6"]


def test_oracle_mismatch_is_reported():
    measures = {"len": lambda a, b: len(a) - len(b)}
    assert checks.oracle_mismatches([("ab", "a")], measures, {"len": lambda a, b: 1}) == []
    assert checks.oracle_mismatches([("ab", "a")], measures, {"len": lambda a, b: 2})


def test_every_metric_name_is_valid():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert checks.METRIC_NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    layer = [(m.name, m.unit, m.better) for m in (*tracer.PER_LAYER, tracer.OVERHEAD)]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == layer


def test_missing_target_reports_missing_not_zero():
    t = tracer.Tracer()
    t.missing.add("strsim.editex")
    metrics = tracer.layer_metrics(t)
    assert metrics["strsim.editex.calls"] is None
    assert metrics["strsim.editex.us"] is None
    assert metrics["strsim.raw_call_frac"] is None
    assert metrics["strsim.levenshtein.calls"] == 0.0


def test_span_self_time_excludes_nested_spans():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(10_000)))
    outer = t.wrap("outer", lambda: inner() + inner())
    outer()
    assert t.calls == {"inner": 2, "outer": 1}
    assert t.self_time["outer"] == pytest.approx(t.total["outer"] - t.total["inner"])


def test_p_same_reads_predictions_and_arrays():
    class Pred:
        def __init__(self, p):
            self.probabilities = p

    np = pytest.importorskip("numpy")
    assert tracer.p_same([Pred(np.array([0.25, 0.75]))]) == [0.75]
    assert tracer.p_same(np.array([[0.6, 0.4]])) == [0.4]
    assert tracer.p_same(np.array([0.3])) == [0.3]
