import numpy as np
import pytest

from osnmatch import evaluation
from osnmatch.dataset import LabeledPairSet
from osnmatch.errors import DimensionMismatchError
from osnmatch.evaluation import confusion, cross_validate, fold_partitions, metrics, render_report
from osnmatch.mlp import MlpConfig, predict_batch
from osnmatch.profile_features import FeatureMatrix


class TestConfusion:
    def test_counts_with_inclusive_threshold(self):
        p_same = np.array([0.9, 0.5, 0.4999, 0.1, 0.7, 0.0])
        labels = [True, False, True, False, True, True]
        assert confusion(p_same, labels) == {"tp": 2, "fp": 1, "fn": 2, "tn": 1}

    def test_nan_is_not_predicted_same(self):
        assert confusion(np.array([np.nan]), [True]) == {"tp": 0, "fp": 0, "fn": 1, "tn": 0}

    def test_empty(self):
        assert confusion(np.array([]), []) == {"tp": 0, "fp": 0, "fn": 0, "tn": 0}

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            confusion(np.array([0.2, 0.8]), [True])


def _pairs(n_pos, n_neg):
    return LabeledPairSet(
        [(f"t{i}", f"f{i}") for i in range(n_pos)]
        + [(f"t{i}", f"f{i + 1}") for i in range(n_neg)],
        np.arange(n_pos + n_neg) < n_pos,
    )


class TestCrossValidate:
    def test_featurizes_once_and_scores_every_pair(self):
        pair_set = _pairs(12, 12)
        calls = []

        def featurizer(pairs):
            calls.append(list(pairs))
            # a positive pair's ids share their index
            x = np.array([[1.0, 0.9] if t[1:] == f[1:] else [0.0, 0.1] for t, f in pairs])
            return FeatureMatrix(x, ["a", "b"])

        cfg = MlpConfig(input_dim=2, hidden_nodes=8, max_epochs=2)
        cv = cross_validate(cfg, featurizer, pair_set, fold_partitions(pair_set, 3, 1, False),
                            seed=1)
        results, models = evaluation.results(cv, pair_set.labels), cv.models
        assert calls == [pair_set.pairs]
        assert all(type(pair) is tuple and len(pair) == 2 for pair in calls[0])
        assert len(models) == 3
        assert sum(results["counts"].values()) == len(pair_set.pairs)
        assert results["counts"]["tp"] + results["counts"]["fn"] == 12
        assert [f["fold"] for f in results["per_fold"]] == [0, 1, 2]


def _index_features(pairs):
    """One row per pair; a positive pair's ids share their index."""
    x = np.array([[1.0, 0.9] if t[1:] == f[1:] else [0.0, 0.1] for t, f in pairs])
    return FeatureMatrix(x, ["a", "b"])


class TestOutOfFoldRecord:
    """``cross_validate``'s record, on 12 positives and 12 negatives in 3 folds."""

    @staticmethod
    def record(user_disjoint):
        pair_set = _pairs(12, 12)
        cfg = MlpConfig(input_dim=2, hidden_nodes=8, max_epochs=2)
        partitions = fold_partitions(pair_set, 3, 1, user_disjoint)
        return pair_set, cross_validate(cfg, _index_features, pair_set, partitions, seed=1)

    @pytest.mark.parametrize("user_disjoint", [False, True], ids=["stratified", "user-disjoint"])
    def test_each_test_row_holds_its_fold_models_score(self, user_disjoint):
        pair_set, cv = self.record(user_disjoint)
        x = _index_features(pair_set.pairs).x
        assert len(cv.models) == len(cv.partitions) == 3
        for model, (_, test) in zip(cv.models, cv.partitions):
            assert cv.p_same[test].tobytes() == predict_batch(model, x[test]).tobytes()

    def test_only_rows_no_fold_tests_are_nan_and_results_skip_them(self):
        pair_set, cv = self.record(user_disjoint=True)
        tested = np.zeros(len(pair_set.labels), dtype=bool)
        for _, test in cv.partitions:
            tested[test] = True
        assert not tested.all()  # negatives whose users fall in two folds
        assert np.array_equal(np.isnan(cv.p_same), ~tested)
        want = evaluation.results(cv, pair_set.labels)
        assert sum(want["counts"].values()) == np.count_nonzero(tested)
        # no score or label of an untested row changes the results
        labels = np.where(tested, pair_set.labels, True)
        p_same = np.where(tested, cv.p_same, 1.0)
        assert evaluation.results(cv._replace(p_same=p_same), labels) == want

    def test_history_has_epochs_of_every_fold(self):
        _, cv = self.record(user_disjoint=False)
        assert sorted({stats.fold for stats in cv.history}) == [0, 1, 2]


def _two_fold_results():
    folds = [metrics({"tp": 3, "fp": 1, "fn": 1, "tn": 5}),
             metrics({"tp": 0, "fp": 0, "fn": 2, "tn": 8})]
    results = metrics({"tp": 3, "fp": 1, "fn": 3, "tn": 13})
    results["macro"] = {"precision": 0.375, "recall": 0.375, "f1": 0.375}
    results["per_fold"] = [{"fold": i, **f} for i, f in enumerate(folds)]
    return results


class TestReportViews:
    def test_dict_has_totals_macro_and_every_fold(self):
        fold_0 = {"counts": {"tp": 3, "fp": 1, "fn": 1, "tn": 5},
                  "precision": 0.75, "recall": 0.75, "f1": 0.75}
        fold_1 = {"counts": {"tp": 0, "fp": 0, "fn": 2, "tn": 8},
                  "precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert _two_fold_results() == {
            "counts": {"tp": 3, "fp": 1, "fn": 3, "tn": 13},
            "precision": 0.75,
            "recall": 0.5,
            "f1": pytest.approx(0.6),
            "macro": {"precision": 0.375, "recall": 0.375, "f1": 0.375},
            "per_fold": [{"fold": 0, **fold_0}, {"fold": 1, **fold_1}],
        }

    def test_dict_without_folds(self):
        assert metrics({"tp": 1, "fp": 0, "fn": 0, "tn": 1}) == {
            "counts": {"tp": 1, "fp": 0, "fn": 0, "tn": 1},
            "precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_text_has_a_line_per_fold_then_micro_and_macro(self):
        assert render_report(_two_fold_results(), "model=ps").splitlines() == [
            "model=ps",
            "--------",
            "  fold    tp    fp    fn     tn    prec     rec      f1",
            "     0     3     1     1      5  0.7500  0.7500  0.7500",
            "     1     0     0     2      8  0.0000  0.0000  0.0000",
            " micro     3     1     3     13  0.7500  0.5000  0.6000",
            " macro                           0.3750  0.3750  0.3750",
        ]
