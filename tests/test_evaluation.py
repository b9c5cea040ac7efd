import numpy as np
import pytest

from osnmatch.dataset import LabeledPairSet
from osnmatch.errors import LengthMismatchError
from osnmatch.evaluation import ConfusionCounts, confusion, cross_validate
from osnmatch.mlp import MlpConfig
from osnmatch.profile_features import FeatureMatrix


class TestConfusion:
    def test_counts_with_inclusive_threshold(self):
        p_same = np.array([0.9, 0.5, 0.4999, 0.1, 0.7, 0.0])
        labels = [True, False, True, False, True, True]
        assert confusion(p_same, labels) == ConfusionCounts(tp=2, fp=1, fn=2, tn=1)

    def test_nan_is_not_predicted_same(self):
        assert confusion(np.array([np.nan]), [True]) == ConfusionCounts(fn=1)

    def test_empty(self):
        assert confusion(np.array([]), []) == ConfusionCounts()

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion(np.array([0.2, 0.8]), [True])


def _pairs(n_pos, n_neg):
    return LabeledPairSet(
        pairs=[(f"t{i}", f"f{i}", True) for i in range(n_pos)]
        + [(f"t{i}", f"f{i + 1}", False) for i in range(n_neg)],
        neg_ratio=1,
        seed=0,
    )


class TestCrossValidate:
    def test_featurizes_once_and_scores_every_pair(self):
        pair_set = _pairs(12, 12)
        calls = []

        def featurizer(pairs):
            calls.append(list(pairs))
            x = np.array([[1.0, 0.9] if lbl else [0.0, 0.1] for _, _, lbl in pairs])
            return FeatureMatrix(x, ["a", "b"])

        cfg = MlpConfig(input_dim=2, hidden_nodes=8, max_epochs=2)
        report, models = cross_validate(cfg, featurizer, pair_set, 3, seed=1)
        assert calls == [pair_set.pairs]
        assert len(models) == 3
        assert report.counts.total == len(pair_set.pairs)
        assert report.counts.tp + report.counts.fn == 12
