import errno
import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import osnmatch.mlp as mlp
from osnmatch.errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    ModelFormatError,
    OsnMatchError,
    TrainingDivergedError,
)
from osnmatch.mlp import (
    FoldJob,
    MlpConfig,
    Stack,
    _Buffers,
    _batch_cce,
    _forward_batch,
    _softmax,
    adam_step,
    backward,
    load_model,
    predict_batch,
    save_model,
    train,
)

from .oracles import adam_step_reference, init_model, schedule_reference, train_reference


def toy_separable(n_per_class=100, noise=0.08, seed=0):
    """(x, y): rows drawn in the order (positive, negative), n_per_class times."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(n_per_class):
        xs.append(np.clip(rng.normal([1, 1], noise), 0, 1))
        ys.append(True)
        xs.append(np.clip(rng.normal([0, 0], noise), 0, 1))
        ys.append(False)
    return np.array(xs), np.array(ys)


def toy_xor(n_per_corner=60, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for corner, label in (((0, 0), False), ((1, 1), False), ((0, 1), True), ((1, 0), True)):
        for _ in range(n_per_corner):
            xs.append(np.clip(rng.normal(corner, noise), 0, 1))
            ys.append(label)
    return np.array(xs), np.array(ys)


def accuracy(model, data):
    x, y = data
    return float(np.mean((predict_batch(model, x) >= 0.5) == y))


def one(model, x, rng=None):
    """Probabilities and record of a single example."""
    probs, record = _forward_batch(model, np.asarray(x)[None, :],
                                   rngs=None if rng is None else [rng])
    return probs[0], record


def fit(cfg, x_train, y_train, x_val, y_val):
    """Train one network on its fit and validation rows through ``train``."""
    x = np.concatenate([x_train, x_val])
    y = np.concatenate([y_train, y_val])
    n = len(x_train)
    job = FoldJob(fit=np.arange(n), stop=np.arange(n, len(x_train) + len(x_val)),
                  seed=cfg.rng_seed)
    models, history = train(cfg, x, y, [job])
    return models[0], history


def stack_of(*models):
    """A stack holding copies of the models' parameters, one row each."""
    stack = Stack(models[0].config, len(models))
    for row, model in zip(stack.params, models):
        row[:] = model.params
    return stack


class TestInitModel:
    def test_deterministic(self):
        cfg = MlpConfig(input_dim=5, hidden_nodes=50, rng_seed=99)
        m1, m2 = init_model(cfg), init_model(cfg)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_layer_shapes(self):
        cfg = MlpConfig(input_dim=5, hidden_nodes=50)
        model = init_model(cfg)
        shapes = [w.shape for w in model.weights]
        assert shapes == [(5, 50), (50, 50), (50, 50), (50, 2)]

    def test_biases_zero(self):
        model = init_model(MlpConfig(input_dim=5, hidden_nodes=50))
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_weight_bound(self):
        cfg = MlpConfig(input_dim=4, hidden_nodes=16, rng_seed=1)
        model = init_model(cfg)
        assert np.max(np.abs(model.weights[0])) <= math.sqrt(6 / 4)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MlpConfig(input_dim=0)
        with pytest.raises(ValueError):
            MlpConfig(input_dim=5, output_dim=3)
        with pytest.raises(ValueError):
            MlpConfig(input_dim=5, dropout_rate=1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", 0.0, "learning_rate must be finite and positive"),
            ("learning_rate", -1.0, "learning_rate must be finite and positive"),
            ("learning_rate", math.nan, "learning_rate must be finite and positive"),
            ("batch_size", 0, "batch_size and max_epochs must be positive"),
            ("max_epochs", 0, "batch_size and max_epochs must be positive"),
            ("early_stop_patience", -1, "early_stop_patience must be >= 0"),
        ],
    )
    def test_invalid_training_setting(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            MlpConfig(input_dim=5, **{field: value})


class TestForward:
    def test_zero_weights_give_uniform_probs(self):
        cfg = MlpConfig(input_dim=3, hidden_nodes=4)
        model = init_model(cfg)
        for w in model.weights:
            w[:] = 0.0
        probs, _ = one(model, np.array([0.3, 0.7, 0.1]))
        assert probs == pytest.approx([0.5, 0.5])

    def test_relu_clamps_negative_preactivations(self):
        cfg = MlpConfig(input_dim=1, hidden_nodes=2, n_hidden_layers=1, rng_seed=0)
        model = init_model(cfg)
        model.weights[0][:] = [[1.0, -1.0]]
        model.biases[0][:] = [-2.0, 3.0]  # pre-acts for x=0: [-2, 3]
        _, record = one(model, np.array([0.0]))
        assert record.act[0][0].tolist() == [0.0, 3.0]

    def test_inference_deterministic(self):
        cfg = MlpConfig(input_dim=4, hidden_nodes=8, rng_seed=5)
        model = init_model(cfg)
        x = np.array([0.1, 0.9, 0.5, 0.2])
        p1, _ = one(model, x)
        p2, _ = one(model, x)
        assert np.array_equal(p1, p2)

    def test_dimension_mismatch(self):
        model = init_model(MlpConfig(input_dim=4, hidden_nodes=8))
        with pytest.raises(DimensionMismatchError):
            one(model, np.zeros(3))

    def test_probabilities_sum_to_one(self):
        cfg = MlpConfig(input_dim=4, hidden_nodes=8, rng_seed=5)
        model = init_model(cfg)
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs, _ = one(model, rng.random(4))
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_softmax_shift_invariance(self):
        z = np.array([[0.3, -1.2], [5.0, 5.0], [-3.0, 2.0]])
        shifted = _softmax(z + 7.5)
        assert np.allclose(_softmax(z), shifted, atol=1e-12)


def loss_cce(probs, label):
    """Cross-entropy of one example, through the batch loss training uses."""
    return _batch_cce(np.asarray(probs)[None, :], np.array([label]))


class TestLossCce:
    def test_uniform(self):
        assert loss_cce([0.5, 0.5], True) == pytest.approx(math.log(2))
        assert loss_cce([0.5, 0.5], False) == pytest.approx(math.log(2))

    def test_perfect(self):
        assert loss_cce([0.0, 1.0], True) == 0.0

    def test_confidently_wrong(self):
        assert loss_cce([0.9, 0.1], True) == pytest.approx(-math.log(0.1))

    def test_floor_avoids_infinity(self):
        assert loss_cce([1.0, 0.0], True) == pytest.approx(-math.log(1e-12))

    def test_batch_is_the_mean(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
        labels = np.array([True, True, False])
        expected = np.mean([loss_cce(p, lbl) for p, lbl in zip(probs, labels)])
        assert _batch_cce(probs, labels) == pytest.approx(expected)


def _dropout_rngs(mask_seed):
    """A fresh rng for each forward pass, so every pass draws the same
    dropout masks; no rng (and no dropout) without a seed."""
    return None if mask_seed is None else [np.random.default_rng(mask_seed)]


def _fd_gradient(stack, x, labels, arr, flat_idx, mask_seed, h=1e-5):
    flat = arr.reshape(-1)
    original = flat[flat_idx]
    flat[flat_idx] = original + h
    probs_p, _ = _forward_batch(stack, x, rngs=_dropout_rngs(mask_seed))
    flat[flat_idx] = original - h
    probs_m, _ = _forward_batch(stack, x, rngs=_dropout_rngs(mask_seed))
    flat[flat_idx] = original
    return float(_batch_cce(probs_p, labels)[0] - _batch_cce(probs_m, labels)[0]) / (2 * h)


def float64_stack(model):
    """A one-network stack holding ``model``'s parameters widened to
    float64, whose passes then run in float64: a float32 loss cannot
    resolve a central difference at h = 1e-5."""
    stack = stack_of(model)
    stack.params, stack.grads = stack.params.astype(np.float64), stack.grads.astype(np.float64)
    stack._index_layers()
    return stack


def _check_gradients(cfg, n_probes, seed, with_dropout):
    rng = np.random.default_rng(seed)
    stack = float64_stack(init_model(cfg))
    x = rng.random(cfg.input_dim)[None, None, :]
    labels = np.array([[True]])
    mask_seed = seed if with_dropout else None
    _, record = _forward_batch(stack, x, rngs=_dropout_rngs(mask_seed))
    backward(stack, record, labels)
    arrays = [w[0] for w in stack.weights] + [b[0] for b in stack.biases]
    grads = [g[0].reshape(-1).copy() for g in stack.grad_weights + stack.grad_biases]
    coords = [(a, g, i) for a, g in zip(arrays, grads) for i in range(a.size)]
    picks = rng.choice(len(coords), size=n_probes, replace=False)
    worst = 0.0
    for pick in picks:
        arr, grad, idx = coords[pick]
        g_a = grad[idx]
        g_n = _fd_gradient(stack, x, labels, arr, idx, mask_seed)
        if abs(g_a - g_n) <= 1e-9:
            continue
        worst = max(worst, abs(g_a - g_n) / max(abs(g_a), abs(g_n), 1e-8))
    return worst


class TestBackward:
    def test_gradient_check_no_dropout(self):
        cfg = MlpConfig(input_dim=5, hidden_nodes=50, dropout_rate=0.0, rng_seed=11)
        assert _check_gradients(cfg, n_probes=100, seed=11, with_dropout=False) <= 1e-4

    def test_gradient_check_with_dropout_masks_replayed(self):
        cfg = MlpConfig(input_dim=5, hidden_nodes=20, dropout_rate=0.5, rng_seed=13)
        assert _check_gradients(cfg, n_probes=60, seed=13, with_dropout=True) <= 1e-4

    def test_output_bias_gradient_is_probability_residual(self):
        cfg = MlpConfig(input_dim=3, hidden_nodes=4, dropout_rate=0.0)
        stack = stack_of(init_model(cfg))
        stack.params[:] = 0.0
        probs, record = _forward_batch(stack, np.zeros((1, 1, 3)))
        backward(stack, record, [[True]])
        assert stack.grad_biases[-1][0] == pytest.approx(probs[0, 0] - np.array([0.0, 1.0]))

    def test_gradient_shapes(self):
        cfg = MlpConfig(input_dim=5, hidden_nodes=7, dropout_rate=0.0)
        stack = stack_of(init_model(cfg), init_model(cfg))
        _, record = _forward_batch(stack, np.random.default_rng(0).random((2, 4, 5)))
        backward(stack, record, [[True, False, True, False]] * 2)
        for g, w in zip(stack.grad_weights, stack.weights):
            assert g.shape == w.shape
        for g, b in zip(stack.grad_biases, stack.biases):
            assert g.shape == b.shape

    def test_label_shape_mismatch(self):
        cfg = MlpConfig(input_dim=5, hidden_nodes=7, dropout_rate=0.0)
        stack = stack_of(init_model(cfg), init_model(cfg))
        _, record = _forward_batch(stack, np.zeros((2, 4, 5)))
        with pytest.raises(DimensionMismatchError):
            backward(stack, record, [[True, False, True, False]])


class TestAdamStep:
    def _zero_stack(self):
        cfg = MlpConfig(
            input_dim=1, hidden_nodes=1, n_hidden_layers=1, learning_rate=0.1,
            dropout_rate=0.0,
        )
        stack = stack_of(init_model(cfg))
        stack.params[:] = 0.0
        return stack

    def test_first_step_moves_by_lr(self):
        stack = self._zero_stack()
        stack.grad_weights[0][0, 0, 0] = 1.0
        adam_step(stack)
        # bias-corrected first step is -lr * g/|g| up to eps
        assert stack.weights[0][0, 0, 0] == pytest.approx(-0.1, rel=1e-6)

    def test_zero_gradient_no_movement(self):
        stack = self._zero_stack()
        adam_step(stack)
        assert not stack.params.any()
        assert stack.adam_t.tolist() == [1]

    def test_a_dead_units_moment_reaches_zero(self):
        # with zero gradients m decays by beta1 each step; below the smallest
        # normal float32 it is zeroed, so it never lingers as a subnormal value
        stack = self._zero_stack()
        stack.adam_m[:] = 1e-3
        tiny = np.finfo(np.float32).tiny
        for _ in range(1000):
            stack.grads[:] = 0.0
            adam_step(stack)
            m = np.abs(stack.adam_m)
            assert not np.any((m > 0) & (m < tiny))
        assert not stack.adam_m.any()

    def test_determinism(self):
        cfg = MlpConfig(input_dim=3, hidden_nodes=4, rng_seed=2)
        s1, s2 = stack_of(init_model(cfg)), stack_of(init_model(cfg))
        for s in (s1, s2):
            s.grads[:] = 0.01
            adam_step(s)
        assert np.array_equal(s1.params, s2.params)


class TestDropout:
    def test_disabled_at_inference(self):
        cfg = MlpConfig(input_dim=4, hidden_nodes=16, rng_seed=3)
        model = init_model(cfg)
        x = np.random.default_rng(1).random((5, 4))
        p1, _ = _forward_batch(model, x)
        p2, _ = _forward_batch(model, x)
        assert np.array_equal(p1, p2)

    def test_inverted_dropout_expectation(self):
        # with a single hidden layer the output is linear in the dropped
        # activation, so the mask expectation is exact and Monte Carlo
        # over 10^4 mask draws must land within 2% of the no-dropout logits
        cfg = MlpConfig(
            input_dim=5, hidden_nodes=50, n_hidden_layers=1, dropout_rate=0.5,
            rng_seed=21,
        )
        model = init_model(cfg)
        rng = np.random.default_rng(42)
        x = rng.random(5)
        base_logits = _forward_batch(model, x[None, :])[1].logits[0]
        n = 10_000
        batch = np.tile(x, (n, 1))
        _, record = _forward_batch(model, batch, rngs=[rng])
        mc_logits = record.logits.mean(axis=0)
        scale = max(1.0, float(np.linalg.norm(base_logits)))
        assert np.linalg.norm(mc_logits - base_logits) / scale <= 0.02

    def test_masks_scale_by_keep_probability(self):
        cfg = MlpConfig(input_dim=2, hidden_nodes=8, dropout_rate=0.5, rng_seed=4)
        model = init_model(cfg)
        _, record = _forward_batch(model, np.ones((1, 2)), rngs=[np.random.default_rng(0)])
        for mask in record.masks:
            assert set(np.unique(mask)).issubset({0.0, 2.0})

    def test_reused_record_carries_no_stale_masks(self):
        # the buffers are the record: a pass without rngs on buffers that
        # last held a dropout pass must not hand its masks to backward
        cfg = MlpConfig(input_dim=5, hidden_nodes=6, dropout_rate=0.5, rng_seed=7)
        stack = stack_of(init_model(cfg))
        x = np.random.default_rng(1).random((1, 4, 5))
        labels = [[True, False, True, False]]
        record = _Buffers(stack, x.shape[:-1])
        _forward_batch(stack, x, rngs=[np.random.default_rng(0)], buffers=record)
        assert record.masks
        _forward_batch(stack, x, buffers=record)
        assert record.masks == []
        backward(stack, record, labels)
        reused = stack.grads.copy()
        _, fresh = _forward_batch(stack, x)
        backward(stack, fresh, labels)
        assert np.array_equal(stack.grads, reused)

    def test_one_rng_per_network(self):
        cfg = MlpConfig(input_dim=2, hidden_nodes=4, dropout_rate=0.5)
        stack = stack_of(init_model(cfg), init_model(cfg))
        with pytest.raises(ValueError):
            _forward_batch(stack, np.ones((2, 1, 2)), rngs=[np.random.default_rng(0)])


class TestTrain:
    def test_empty_dataset(self):
        cfg = MlpConfig(input_dim=2)
        empty_x, empty_y = np.empty((0, 2)), np.empty(0, dtype=bool)
        with pytest.raises(EmptyDatasetError):
            fit(cfg, empty_x, empty_y, empty_x, empty_y)

    def test_dimension_mismatch(self):
        cfg = MlpConfig(input_dim=3)
        x, y = toy_separable(5)
        with pytest.raises(DimensionMismatchError):
            fit(cfg, x, y, x, y)

    def test_label_count_mismatch(self):
        cfg = MlpConfig(input_dim=2)
        x, y = toy_separable(5)
        with pytest.raises(DimensionMismatchError):
            fit(cfg, x, y[:-1], x, y)
        with pytest.raises(DimensionMismatchError):
            fit(cfg, x, y, x[:-1], y)

    def test_separable_toy(self):
        data = toy_separable()
        cfg = MlpConfig(input_dim=2, hidden_nodes=50, rng_seed=7, max_epochs=200)
        model, history = fit(cfg, *data, *data)
        assert accuracy(model, data) >= 0.99
        assert len(history) <= 200

    def test_xor_toy(self):
        data = toy_xor()
        cfg = MlpConfig(
            input_dim=2, hidden_nodes=50, rng_seed=7, max_epochs=200,
            early_stop_patience=30,
        )
        model, _ = fit(cfg, *data, *data)
        assert accuracy(model, data) >= 0.95

    def test_loss_decreases(self):
        data = toy_separable()
        cfg = MlpConfig(input_dim=2, hidden_nodes=50, rng_seed=7, max_epochs=60)
        _, history = fit(cfg, *data, *data)
        first = np.mean([h.train_loss for h in history[:5]])
        last = np.mean([h.train_loss for h in history[-5:]])
        assert first > last

    def test_bitwise_deterministic(self):
        data = toy_separable(30)
        cfg = MlpConfig(input_dim=2, hidden_nodes=16, rng_seed=5, max_epochs=12,
                        early_stop_patience=200)
        m1, h1 = fit(cfg, *data, *data)
        m2, h2 = fit(cfg, *data, *data)
        assert [e.train_loss for e in h1] == [e.train_loss for e in h2]
        assert [e.val_loss for e in h1] == [e.val_loss for e in h2]
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_patience_zero_stops_at_first_non_improvement(self):
        data = toy_separable(30)
        cfg = MlpConfig(input_dim=2, hidden_nodes=16, rng_seed=5, max_epochs=200,
                        early_stop_patience=0)
        _, history = fit(cfg, *data, *data)
        vals = [e.val_loss for e in history]
        # every epoch before the last must improve on the running best
        best = np.inf
        for v in vals[:-1]:
            assert v < best
            best = min(best, v)
        if len(vals) < cfg.max_epochs:
            assert vals[-1] >= best

    def test_returns_best_snapshot(self):
        data = toy_separable(30)
        cfg = MlpConfig(input_dim=2, hidden_nodes=16, rng_seed=5, max_epochs=40,
                        early_stop_patience=5)
        model, history = fit(cfg, *data, *data)
        best_val = min(e.val_loss for e in history)
        xs, ys = data
        probs, _ = _forward_batch(model, xs)
        assert _batch_cce(probs, ys) == pytest.approx(best_val)


def _noisy_rows(n, seed):
    """(x, y) with a weak signal, so validation losses wander and folds
    stop early at different epochs."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 6))
    y = x[:, 0] + rng.normal(0, 0.4, n) > 0.5
    return x, y


def _jobs(n, fit_sizes, stop_sizes, seed):
    """Jobs over disjoint-ish row sets of unequal sizes."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i, (n_fit, n_stop) in enumerate(zip(fit_sizes, stop_sizes)):
        rows = rng.permutation(n)
        jobs.append(FoldJob(fit=rows[:n_fit], stop=rows[n_fit : n_fit + n_stop],
                            seed=seed ^ i))
    return jobs


def _assert_equals_reference(cfg, x, y, jobs, models, history):
    for i, job in enumerate(jobs):
        ref_params, ref_history = train_reference(
            replace(cfg, rng_seed=job.seed), x[job.fit], y[job.fit], x[job.stop], y[job.stop]
        )
        assert models[i].config == replace(cfg, rng_seed=job.seed)
        assert np.array_equal(models[i].params, ref_params)
        got = [(e.epoch, e.train_loss, e.val_loss) for e in history if e.fold == i]
        assert got == ref_history


class TestLockstep:
    # batch 32: 3, 2, 3, 2 and 4 batches an epoch, the last ones of 6, 32,
    # 1, 1 and 1 rows
    FIT = (70, 64, 65, 33, 97)
    STOP = (20, 13, 31, 7, 25)

    @pytest.mark.parametrize(
        "dropout, patience, max_epochs",
        [(0.5, 0, 40), (0.5, 1, 40), (0.0, 1, 40), (0.0, 0, 40), (0.5, 40, 5)],
    )
    def test_equals_one_network_at_a_time(self, dropout, patience, max_epochs):
        x, y = _noisy_rows(150, 1)
        cfg = MlpConfig(input_dim=6, hidden_nodes=12, dropout_rate=dropout,
                        learning_rate=0.01, max_epochs=max_epochs,
                        early_stop_patience=patience)
        jobs = _jobs(len(x), self.FIT, self.STOP, 9)
        models, history = train(cfg, x, y, jobs)
        _assert_equals_reference(cfg, x, y, jobs, models, history)
        epochs = [sum(e.fold == i for e in history) for i in range(len(jobs))]
        if patience < max_epochs:
            assert len(set(epochs)) > 1  # the folds stopped at different epochs
        assert len(history) == sum(epochs)

    @pytest.mark.parametrize("width", [1, 2])
    def test_narrow_stacks_equal_one_network_at_a_time(self, monkeypatch, width):
        x, y = _noisy_rows(150, 2)
        cfg = MlpConfig(input_dim=6, hidden_nodes=12, learning_rate=0.01, max_epochs=6,
                        early_stop_patience=1)
        monkeypatch.setattr(mlp, "_STACK_PARAMS", width * cfg.n_params)
        assert mlp.stack_width(cfg) == width
        jobs = _jobs(len(x), self.FIT, self.STOP, 4)
        models, history = train(cfg, x, y, jobs)
        _assert_equals_reference(cfg, x, y, jobs, models, history)

    @given(st.lists(st.integers(1, 200), min_size=1, max_size=12), st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_schedule_equals_the_scan(self, sizes, batch_size):
        sizes.sort()
        assert mlp._schedule(sizes, batch_size) == schedule_reference(sizes, batch_size)

    def test_width_follows_the_parameter_count(self):
        # the temporal net stacks all its folds; the 300-unit embedding
        # net trains one network at a time
        assert mlp.stack_width(MlpConfig(input_dim=49)) >= 10
        assert mlp.stack_width(MlpConfig(input_dim=8, hidden_nodes=300)) == 1

    def test_empty_job_rows(self):
        x, y = _noisy_rows(20, 3)
        cfg = MlpConfig(input_dim=6, hidden_nodes=4)
        for fit, stop in ((np.arange(0), np.arange(5)), (np.arange(5), np.arange(0))):
            with pytest.raises(EmptyDatasetError):
                train(cfg, x, y, [FoldJob(np.arange(10), np.arange(10, 20), 0),
                                  FoldJob(fit, stop, 1)])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_no_finite_validation_loss_is_a_typed_error(self):
        x, y = _noisy_rows(40, 4)
        cfg = MlpConfig(input_dim=6, hidden_nodes=4, learning_rate=1e300, max_epochs=3,
                        early_stop_patience=0)
        with pytest.raises(TrainingDivergedError, match="fold 0: no epoch"):
            train(cfg, x, y, [FoldJob(np.arange(20), np.arange(20, 40), 1)] * 2)


class TestPredict:
    def test_threshold(self):
        # predict_batch returns the softmax's p(same) column, row by row
        cfg = MlpConfig(input_dim=2, hidden_nodes=4)
        model = init_model(cfg)
        x = np.random.default_rng(0).random((6, 2))
        probs, _ = _forward_batch(model, x)
        assert np.array_equal(predict_batch(model, x), probs[:, 1])
        assert predict_batch(model, x[:1]).shape == (1,)


class TestSaveLoad:
    def test_roundtrip_bit_exact(self, tmp_path):
        data = toy_separable(20)
        cfg = MlpConfig(input_dim=2, hidden_nodes=8, rng_seed=9, max_epochs=5,
                        early_stop_patience=100)
        model, _ = fit(cfg, *data, *data)
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.config == model.config
        assert loaded.params.dtype == np.float32
        for w1, w2 in zip(model.weights, loaded.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(model.biases, loaded.biases):
            assert np.array_equal(b1, b2)
        path2 = tmp_path / "model2.bin"
        save_model(loaded, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_float64_file_loads_rounded_and_predicts(self, tmp_path):
        # a file as a float64 model wrote it, by hand: the header that
        # save_model writes, then values float32 cannot hold exactly
        cfg = MlpConfig(input_dim=3, hidden_nodes=4, rng_seed=2)
        values = np.random.default_rng(8).uniform(-1, 1, cfg.n_params)
        values[:3] = [0.1, 1 / 3, 1 + 2.0**-40]
        assert not np.array_equal(values.astype(np.float32).astype(np.float64), values)
        header = {"format": "osnmatch-mlp/1", "config": asdict(cfg),
                  "shapes": cfg.param_shapes}
        path = tmp_path / "float64.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + values.astype("<f8").tobytes())
        loaded = load_model(str(path))
        assert loaded.params.dtype == np.float32
        assert loaded.params.tolist() == values.astype(np.float32).tolist()
        x = np.random.default_rng(9).random((5, 3))
        p = predict_batch(loaded, x)
        assert p.dtype == np.float32 and np.all((p > 0) & (p < 1))
        rounded = init_model(cfg)
        rounded.params[:] = values
        assert np.array_equal(p, predict_batch(rounded, x))

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"format": "other"}\n')
        with pytest.raises(ValueError):
            load_model(str(path))


def _interleave(weights, biases):
    """Per-layer arrays flattened in ``params`` order: W0, b0, W1, b1, ..."""
    return np.concatenate([a for pair in zip(weights, biases) for a in pair], axis=None)


class TestFlatAdam:
    @pytest.mark.parametrize("hidden_nodes", [16, 200])  # 1 chunk; several, one partial
    def test_matches_per_layer_reference_bitwise(self, hidden_nodes):
        # three networks step together, alone and in pairs, so that one
        # update meets rows with different step counts
        cfg = MlpConfig(input_dim=5, hidden_nodes=hidden_nodes, n_hidden_layers=3,
                        learning_rate=0.01)
        models = [init_model(cfg, np.random.default_rng(seed)) for seed in (3, 4, 5)]
        stack = stack_of(*models)
        assert (stack.params.size > mlp._ADAM_CHUNK) == (hidden_nodes > 16)
        refs = [
            SimpleNamespace(
                config=cfg,
                weights=[w.copy() for w in m.weights],
                biases=[b.copy() for b in m.biases],
                adam_m_w=[np.zeros_like(w) for w in m.weights],
                adam_v_w=[np.zeros_like(w) for w in m.weights],
                adam_m_b=[np.zeros_like(b) for b in m.biases],
                adam_v_b=[np.zeros_like(b) for b in m.biases],
                adam_t=0,
            )
            for m in models
        ]
        rng = np.random.default_rng(17)
        for lo, hi in [(0, 3)] * 10 + [(0, 1)] * 3 + [(2, 3)] * 2 + [(0, 3)] * 5 + [(1, 3)]:
            for r in range(lo, hi):
                grads = {
                    "weights": [rng.normal(0, 0.1, w.shape).astype(np.float32)
                                for w in models[r].weights],
                    "biases": [rng.normal(0, 0.1, b.shape).astype(np.float32)
                               for b in models[r].biases],
                }
                for view, g in zip(stack.grad_weights + stack.grad_biases,
                                   grads["weights"] + grads["biases"]):
                    view[r] = g
                adam_step_reference(refs[r], grads)
            adam_step(stack.rows(lo, hi))
        assert stack.adam_t.tolist() == [ref.adam_t for ref in refs] == [18, 16, 18]
        for r, ref in enumerate(refs):
            assert np.array_equal(stack.params[r], _interleave(ref.weights, ref.biases))
            assert np.array_equal(stack.adam_m[r], _interleave(ref.adam_m_w, ref.adam_m_b))
            assert np.array_equal(stack.adam_v[r], _interleave(ref.adam_v_w, ref.adam_v_b))

    def test_trained_model_is_bitwise_golden(self, tmp_path):
        # digest of the float32 model, which the per-layer optimizer of
        # train_reference also trains to the bit
        data = toy_separable(30)
        cfg = MlpConfig(input_dim=2, hidden_nodes=16, rng_seed=5, max_epochs=12,
                        early_stop_patience=200)
        model, _ = fit(cfg, *data, *data)
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ff6c71c6910ec127bb74111856eb9f858946932ca8a962fe5875381fbfb71227"
        )

    def test_returned_models_hold_no_adam_state(self, tmp_path):
        data = toy_separable(10)
        cfg = MlpConfig(input_dim=2, hidden_nodes=8, rng_seed=1, max_epochs=3)
        model, _ = fit(cfg, *data, *data)
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        for m in (model, load_model(str(path))):
            assert not [name for name in vars(m) if name.startswith("adam")]


class TestFlatLayout:
    def test_views_share_params(self, tmp_path):
        cfg = MlpConfig(input_dim=3, hidden_nodes=4, rng_seed=2)
        model = init_model(cfg)
        assert all(np.shares_memory(a, model.params) for a in model.weights + model.biases)
        assert np.array_equal(model.params, _interleave(model.weights, model.biases))
        model.weights[1][2, 3] = 7.5
        model.biases[2][1] = -2.25
        w1_at = 3 * 4 + 4 + 2 * 4 + 3  # W0, b0, then row 2, column 3 of W1
        b2_at = 3 * 4 + 4 + 4 * 4 + 4 + 4 * 4 + 1
        assert model.params[w1_at] == 7.5
        assert model.params[b2_at] == -2.25
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        body = path.read_bytes().split(b"\n", 1)[1]
        assert np.frombuffer(body, dtype="<f8")[[w1_at, b2_at]].tolist() == [7.5, -2.25]
        loaded = load_model(str(path))
        assert loaded.weights[1][2, 3] == 7.5 and loaded.biases[2][1] == -2.25

    def test_wrong_params_length(self):
        cfg = MlpConfig(input_dim=3, hidden_nodes=4)
        with pytest.raises(DimensionMismatchError):
            mlp.MlpModel(config=cfg, params=np.zeros(cfg.n_params + 1))


class TestLoadModelStrict:
    @pytest.fixture
    def saved(self, tmp_path):
        cfg = MlpConfig(input_dim=3, hidden_nodes=4, rng_seed=2)
        path = tmp_path / "model.bin"
        save_model(init_model(cfg), str(path))
        header, body = path.read_bytes().split(b"\n", 1)
        return path, json.loads(header), body

    @staticmethod
    def _write(path, header, body):
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)

    def _assert_rejected(self, path, fragment):
        with pytest.raises(ModelFormatError) as info:
            load_model(str(path))
        assert str(path) in str(info.value)
        assert fragment in str(info.value)

    def test_header_not_json(self, saved):
        path, _, body = saved
        path.write_bytes(b"osnmatch-mlp/1 {\n" + body)
        self._assert_rejected(path, "not JSON")

    def test_unknown_config_key(self, saved):
        path, header, body = saved
        header["config"]["momentum"] = 0.9
        self._write(path, header, body)
        self._assert_rejected(path, "momentum")

    def test_missing_config_key(self, saved):
        path, header, body = saved
        del header["config"]["adam_eps"]
        self._write(path, header, body)
        self._assert_rejected(path, "adam_eps")

    def test_shapes_disagree_with_config(self, saved):
        path, header, body = saved
        header["shapes"][0] = [4, 3]
        self._write(path, header, body)
        self._assert_rejected(path, "shapes")

    def test_truncated_parameters(self, saved):
        path, header, body = saved
        self._write(path, header, body[:-8])
        self._assert_rejected(path, "truncated")

    def test_huge_declared_network_is_not_allocated(self, saved):
        # 100,000 inputs and 50 hidden nodes declare 40 MB of parameters
        path, header, body = saved
        header["config"].update(input_dim=100_000, hidden_nodes=50)
        header["shapes"] = [list(s) for s in MlpConfig(**header["config"]).param_shapes]
        self._write(path, header, body)
        tracemalloc.start()
        try:
            self._assert_rejected(path, "truncated parameter data")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("depth", [10**8, 2**34, 2**63])
    def test_huge_declared_depth_is_not_built(self, saved, depth):
        path, header, body = saved
        header["config"]["n_hidden_layers"] = depth
        self._write(path, header, body)
        tracemalloc.start()
        try:
            self._assert_rejected(path, "do not match the config")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_trailing_bytes(self, saved):
        path, header, body = saved
        self._write(path, header, body + b"\0")
        self._assert_rejected(path, "trailing")

    def test_invalid_config_value(self, saved):
        path, header, body = saved
        header["config"]["dropout_rate"] = 1.5
        self._write(path, header, body)
        self._assert_rejected(path, "dropout_rate")

    @pytest.mark.parametrize("name, value", [("input_dim", 3.0), ("rng_seed", "x"),
                                             ("batch_size", True), ("dropout_rate", 0)])
    def test_config_value_of_the_wrong_type(self, saved, name, value):
        path, header, body = saved
        header["config"][name] = value
        self._write(path, header, body)
        self._assert_rejected(path, f"config {name} must be ")

    @pytest.mark.parametrize("config", [None, [], "config", 3])
    def test_config_not_an_object(self, saved, config):
        path, header, body = saved
        header["config"] = config
        self._write(path, header, body)
        self._assert_rejected(path, "config is not a JSON object")

    def test_header_nested_past_the_recursion_limit(self, saved):
        path, _, body = saved
        path.write_bytes(b"[" * 100_000 + b"\n" + body)
        self._assert_rejected(path, "not JSON")


CONFIG_KEYS = sorted(MlpConfig.__dataclass_fields__)
# the small numbers include the saved model's own dimensions, as floats too
CONFIG_VALUES = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.sampled_from([0, 1, 3, 4, 3.0, 4.0, 0.5]) | st.text(max_size=4)
                 | st.lists(st.integers(-2, 8), max_size=2))


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    save_model(init_model(MlpConfig(input_dim=3, hidden_nodes=4, rng_seed=2)), str(path))
    header, body = path.read_bytes().split(b"\n", 1)
    return path.with_name("fuzzed.bin"), json.loads(header), body


class TestLoadModelFuzz:
    """Whatever the file holds, load_model returns or raises an OsnMatchError."""

    @settings(max_examples=100, deadline=None)
    @given(changes=st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES, max_size=2),
           dropped=st.sets(st.sampled_from(CONFIG_KEYS), max_size=1),
           shapes=st.none() | st.lists(st.lists(st.integers(0, 5), max_size=3), max_size=4),
           extra=st.integers(-9, 9))
    def test_edited_header(self, model_file, changes, dropped, shapes, extra):
        path, header, body = model_file
        config = {k: v for k, v in {**header["config"], **changes}.items() if k not in dropped}
        edited = {**header, "config": config}
        if shapes is not None:
            edited["shapes"] = shapes
        body = body[:extra] if extra < 0 else body + b"\0" * extra
        path.write_bytes(json.dumps(edited).encode() + b"\n" + body)
        try:
            load_model(str(path))
        except OsnMatchError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_any_bytes(self, model_file, data):
        path = model_file[0]
        path.write_bytes(data)
        try:
            load_model(str(path))
        except OsnMatchError:
            pass


class TestAtomicSave:
    def test_leaves_only_the_target(self, tmp_path):
        path = tmp_path / "fold-00.bin"
        path.write_bytes(b"old")
        save_model(init_model(MlpConfig(input_dim=3, hidden_nodes=4)), str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["fold-00.bin"]
        assert load_model(str(path)).config.input_dim == 3

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "fold-00.bin"
        path.write_bytes(b"old")

        class DiskFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(bytes(data[:5]))
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(mlp, "open", lambda *a, **kw: DiskFull(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError):
            save_model(init_model(MlpConfig(input_dim=3, hidden_nodes=4)), str(path))
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["fold-00.bin"]
