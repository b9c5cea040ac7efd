"""Small feed-forward classifier, implemented from scratch on numpy.

ReLU hidden layers with inverted dropout, a 2-way softmax output, Adam on
categorical cross-entropy and early stopping on validation loss.
``train`` takes feature rows and boolean labels as arrays;
``predict_batch`` returns p(same) per row. All randomness flows from
explicit seeds, so training runs are bit-reproducible.

A model keeps its parameters in one float64 vector, ``params``, ordered
W0, b0, W1, b1, ... as on disk; ``weights[i]`` and ``biases[i]`` are
views into it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import replacing
from .errors import DimensionMismatchError, EmptyDatasetError, ModelFormatError

_PROB_FLOOR = 1e-12

# class index 1 means "same individual"
POSITIVE_CLASS = 1

# elements per pass of the Adam update: the five vectors of one pass
# (128 KiB each) stay in a core's L2 cache
_ADAM_CHUNK = 16384


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_nodes: int = 50
    n_hidden_layers: int = 3
    output_dim: int = 2
    dropout_rate: float = 0.5
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 200
    early_stop_patience: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_nodes < 1 or self.n_hidden_layers < 1:
            raise ValueError("layer dimensions must be positive")
        if self.output_dim != 2:
            raise ValueError("the classifier is binary: output_dim must be 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (
            [self.input_dim]
            + [self.hidden_nodes] * self.n_hidden_layers
            + [self.output_dim]
        )
        return list(zip(dims[:-1], dims[1:]))

    @property
    def param_shapes(self) -> list[tuple[int, ...]]:
        """Parameter shapes in ``params`` order: W0, b0, W1, b1, ..."""
        return [s for fan_in, fan_out in self.layer_dims
                for s in ((fan_in, fan_out), (fan_out,))]

    @property
    def n_params(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes)


@dataclass
class MlpModel:
    """Parameters of one network plus its Adam state.

    ``adam_m``, ``adam_v`` and ``adam_scratch`` (the flat gradient and one
    work vector) are allocated by the first ``adam_step``, so a freshly
    built or loaded model holds no optimizer memory.
    """

    config: MlpConfig
    params: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    adam_t: int = 0
    adam_scratch: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.config.n_params
        if self.params.dtype != np.float64 or self.params.shape != (n,):
            raise DimensionMismatchError(
                f"expected {n} float64 parameters, got "
                f"{self.params.dtype} {self.params.shape}"
            )
        views = []
        offset = 0
        for shape in self.config.param_shapes:
            size = math.prod(shape)
            views.append(self.params[offset : offset + size].reshape(shape))
            offset += size
        self.weights = views[0::2]
        self.biases = views[1::2]


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


def init_model(cfg: MlpConfig, rng: np.random.Generator | None = None) -> MlpModel:
    """Weights uniform in ±sqrt(6/fan_in) (He-style bound for ReLU),
    biases zero, Adam state empty."""
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    model = MlpModel(config=cfg, params=np.zeros(cfg.n_params))
    for w, (fan_in, fan_out) in zip(model.weights, cfg.layer_dims):
        bound = np.sqrt(6.0 / fan_in)
        w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    return model


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward_batch(
    model: MlpModel,
    x: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
    replay_masks: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, dict]:
    """Run a (n, input_dim) batch; returns (softmax probabilities, cache).

    With ``training`` each hidden activation is masked by inverted dropout
    (scaled by 1/keep so the expectation matches inference). ``replay_masks``
    reuses previously drawn masks, which finite-difference checks need.
    """
    cfg = model.config
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise DimensionMismatchError(
            f"expected (*, {cfg.input_dim}) inputs, got {x.shape}"
        )
    rate = cfg.dropout_rate if training else 0.0
    activations = [x]
    pre_acts = []
    masks: list[np.ndarray] = []
    a = x
    n_layers = len(model.weights)
    for layer in range(n_layers - 1):
        z = a @ model.weights[layer] + model.biases[layer]
        pre_acts.append(z)
        a = np.maximum(z, 0.0)
        if rate > 0.0:
            if replay_masks is not None:
                mask = replay_masks[layer]
            else:
                if rng is None:
                    raise ValueError("training-mode forward with dropout needs an rng")
                mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
            a = a * mask
            masks.append(mask)
        activations.append(a)
    z_out = a @ model.weights[-1] + model.biases[-1]
    pre_acts.append(z_out)
    probs = _softmax(z_out)
    cache = {
        "activations": activations,
        "pre_activations": pre_acts,
        "masks": masks,
        "probs": probs,
    }
    return probs, cache


def _batch_cce(probs: np.ndarray, labels: np.ndarray) -> float:
    idx = np.where(labels, POSITIVE_CLASS, 1 - POSITIVE_CLASS)
    p = probs[np.arange(len(labels)), idx]
    return float(-np.log(np.maximum(p, _PROB_FLOOR)).mean())


def backward(model: MlpModel, cache: dict, labels) -> dict:
    """Gradients of the mean cross-entropy over the cached batch, reusing
    the cached dropout masks. Shapes mirror the parameters."""
    labels = np.atleast_1d(np.asarray(labels, dtype=bool))
    probs = cache["probs"]
    n = probs.shape[0]
    if len(labels) != n:
        raise DimensionMismatchError(f"{len(labels)} labels for batch of {n}")
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), np.where(labels, POSITIVE_CLASS, 1 - POSITIVE_CLASS)] = 1.0
    dz = (probs - onehot) / n
    grads_w: list[np.ndarray] = [None] * len(model.weights)
    grads_b: list[np.ndarray] = [None] * len(model.biases)
    masks = cache["masks"]
    for layer in reversed(range(len(model.weights))):
        a_prev = cache["activations"][layer]
        grads_w[layer] = a_prev.T @ dz
        grads_b[layer] = dz.sum(axis=0)
        if layer == 0:
            break
        da = dz @ model.weights[layer].T
        if masks:
            da = da * masks[layer - 1]
        dz = da * (cache["pre_activations"][layer - 1] > 0.0)
    return {"weights": grads_w, "biases": grads_b}


def adam_step(model: MlpModel, grads: dict) -> MlpModel:
    """One bias-corrected Adam update, in place; returns the model.

    The gradients are flattened into one vector in ``params`` order, and
    the update runs over the whole vector, one cache-sized chunk at a
    time. Each elementwise operation and its order are those of the
    per-array form ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)``, so the results
    are the same to the bit.
    """
    cfg = model.config
    grads_w, grads_b = grads["weights"], grads["biases"]
    if len(grads_w) != len(model.weights) or len(grads_b) != len(model.biases):
        raise DimensionMismatchError(
            f"gradients for {len(grads_w)}/{len(grads_b)} arrays, "
            f"model has {len(model.weights)}/{len(model.biases)}"
        )
    flat = []
    for g_w, g_b, w, b in zip(grads_w, grads_b, model.weights, model.biases):
        if g_w.shape != w.shape or g_b.shape != b.shape:
            raise DimensionMismatchError(
                f"gradient {g_w.shape}, {g_b.shape} for layer {w.shape}, {b.shape}"
            )
        flat += (g_w, g_b)
    n = model.params.size
    # the scratch outlives the step: allocating two parameter-sized vectors
    # on every call costs more than the update on a 220k-parameter net
    if model.adam_m is None:
        model.adam_m = np.zeros(n)
        model.adam_v = np.zeros(n)
        model.adam_scratch = np.empty((2, n))
    grad, scratch = model.adam_scratch
    np.concatenate(flat, axis=None, out=grad)
    model.adam_t += 1
    t = model.adam_t
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.learning_rate
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for lo in range(0, n, _ADAM_CHUNK):
        part = slice(lo, lo + _ADAM_CHUNK)
        p, m, v = model.params[part], model.adam_m[part], model.adam_v[part]
        g, s = grad[part], scratch[part]
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=s)
        np.add(m, s, out=m)
        np.multiply(g, 1.0 - b2, out=s)
        np.multiply(s, g, out=s)
        np.multiply(v, b2, out=v)
        np.add(v, s, out=v)
        # g is spent: it now holds lr * m_hat, and s sqrt(v_hat) + eps
        np.divide(m, c1, out=g)
        np.multiply(g, lr, out=g)
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        np.add(s, eps, out=s)
        np.divide(g, s, out=g)
        np.subtract(p, g, out=p)
    return model


def train(
    cfg: MlpConfig,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
) -> tuple[MlpModel, list[EpochStats]]:
    """Mini-batch training with seeded shuffling and early stopping.

    ``x_*`` are (n, input_dim) feature rows and ``y_*`` their boolean
    same-individual labels. Stops once validation loss has not improved
    for more than ``early_stop_patience`` consecutive epochs (or at
    ``max_epochs``) and returns the parameters from the best-validation
    epoch.
    """
    if not len(x_train) or not len(x_val):
        raise EmptyDatasetError("train and validation sets must be nonempty")
    for x, y in ((x_train, y_train), (x_val, y_val)):
        if x.shape != (len(y), cfg.input_dim):
            raise DimensionMismatchError(
                f"{x.shape} features for {len(y)} labels, expected {cfg.input_dim} columns"
            )
    rng = np.random.default_rng(cfg.rng_seed)
    model = init_model(cfg, rng=rng)

    best_val = np.inf
    best_params: np.ndarray | None = None
    stale = 0
    history: list[EpochStats] = []
    n = len(x_train)
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            probs, cache = _forward_batch(model, x_train[idx], training=True, rng=rng)
            batch_losses.append(_batch_cce(probs, y_train[idx]))
            grads = backward(model, cache, y_train[idx])
            adam_step(model, grads)
        val_probs, _ = _forward_batch(model, x_val, training=False)
        val_loss = _batch_cce(val_probs, y_val)
        history.append(
            EpochStats(epoch=epoch, train_loss=float(np.mean(batch_losses)), val_loss=val_loss)
        )
        if val_loss < best_val:
            best_val = val_loss
            best_params = model.params.copy()
            stale = 0
        else:
            stale += 1
            if stale > cfg.early_stop_patience:
                break
    assert best_params is not None
    return MlpModel(config=cfg, params=best_params), history


def predict_batch(model: MlpModel, xs: np.ndarray) -> np.ndarray:
    """p(same) of every row, from an inference-mode (dropout-free) pass."""
    probs, _ = _forward_batch(model, np.asarray(xs, dtype=np.float64), training=False)
    return probs[:, POSITIVE_CLASS]


# On-disk model format "osnmatch-mlp/1": one UTF-8 JSON header line holding
# the config and parameter shapes, then the parameters as raw little-endian
# float64, row-major, ordered W0, b0, W1, b1, ... (the layout of ``params``).
FORMAT_TAG = "osnmatch-mlp/1"


def save_model(model: MlpModel, path: str) -> None:
    """Write the model atomically: into a temporary file next to ``path``,
    then renamed over it, so ``path`` is never left half-written."""
    header = {
        "format": FORMAT_TAG,
        "config": {k: getattr(model.config, k) for k in MlpConfig.__dataclass_fields__},
        "shapes": model.config.param_shapes,
    }
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(
            json.dumps(header, sort_keys=True, default=lambda o: o.item()).encode("utf-8")
        )
        fh.write(b"\n")
        fh.write(model.params.astype("<f8", copy=False).tobytes())


def load_model(path: str) -> MlpModel:
    """Inverse of save_model; Adam state starts empty.

    Raises ModelFormatError unless the file is exactly one well-formed
    header followed by exactly the parameters it declares.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise ModelFormatError(path, f"header is not JSON ({exc})") from None
        if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
            raise ModelFormatError(path, "unsupported model format")
        raw_cfg = header.get("config")
        if not isinstance(raw_cfg, dict):
            raise ModelFormatError(path, "config is not a JSON object")
        fields = MlpConfig.__dataclass_fields__.keys()
        unknown, missing = raw_cfg.keys() - fields, fields - raw_cfg.keys()
        if unknown or missing:
            raise ModelFormatError(
                path, f"config keys: unknown {sorted(unknown)}, missing {sorted(missing)}"
            )
        try:
            cfg = MlpConfig(**raw_cfg)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(path, f"bad config ({exc})") from None
        if header.get("shapes") != [list(shape) for shape in cfg.param_shapes]:
            raise ModelFormatError(
                path, f"shapes {header.get('shapes')} do not match the config"
            )
        n_bytes = 8 * cfg.n_params
        buf = bytearray(n_bytes)
        if fh.readinto(buf) != n_bytes:
            raise ModelFormatError(path, "truncated parameter data")
        if fh.read(1):
            raise ModelFormatError(path, "trailing bytes after the parameters")
    return MlpModel(config=cfg, params=np.frombuffer(buf, dtype="<f8"))
