"""Small feed-forward classifier, implemented from scratch on numpy.

ReLU hidden layers with inverted dropout, a 2-way softmax output, Adam on
categorical cross-entropy and early stopping on validation loss.
``predict_batch`` returns p(same) per row. All randomness flows from
explicit seeds, so training runs are bit-reproducible.

Training and inference run in one dtype, float32 (``DTYPE``): a model
keeps its parameters in one float32 vector, ``params``, ordered W0, b0,
W1, b1, ... as on disk, where they are stored widened to float64;
``weights[i]`` and ``biases[i]`` are views into it.

``train`` fits one network per ``FoldJob`` (the k folds of a
cross-validation), ``stack_width`` of them at a time in lockstep. It
holds them as a ``Stack``: parameters, gradients and Adam moments are
(g, n_params) arrays, one row per network, and each layer is a
(g, fan_in, fan_out) view, so one ``np.matmul`` or one elementwise pass
serves every network. Each network draws its initial weights, batch
order and dropout masks from its own generator, in the order a lone
network would, and every stacked operation computes each row exactly as
the 2-D operation does: a network's parameters and losses are the same
to the bit as when it is trained alone. The Adam state belongs to the
stack; a model holds only its config and parameters.

A forward pass records its input, activations (after dropout), dropout
masks, logits and probabilities in the ``_Buffers`` it runs in, for
``backward``; it applies dropout only when given one generator per network.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import typing
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .atomic import replacing
from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    ModelFormatError,
    TrainingDivergedError,
)

_PROB_FLOOR = 1e-12

# class index 1 means "same individual"
POSITIVE_CLASS = 1

# the dtype of every parameter, gradient, Adam moment and work array
DTYPE = np.float32

# Adam's first moment is zeroed below this magnitude, the smallest normal
# float32: a dead unit's moment decays by beta1 each step into subnormal
# values, which then never reach zero, and every operation on a subnormal
# value runs 30-40 times slower
_MOMENT_FLOOR = np.finfo(DTYPE).tiny

# elements per pass of the Adam update: the five arrays of one pass
# (256 KiB each) stay in a core's L2 cache
_ADAM_CHUNK = 65536

# networks stacked together hold at most this many parameters per buffer
# (512 KiB of float32). Stacking saves per-call overhead, which dominates a
# small net's step; a large net's step is already array-bound, and
# stacking it only multiplies its parameter-sized buffers.
_STACK_PARAMS = 1 << 17


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
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


def _layer_views(cfg: MlpConfig, params: np.ndarray) -> tuple[list, list]:
    """(weights, biases): views into ``params``, whose last axis holds the
    parameters in ``params`` order; leading axes are kept."""
    lead = params.shape[:-1]
    views = []
    offset = 0
    for shape in cfg.param_shapes:
        size = math.prod(shape)
        views.append(params[..., offset : offset + size].reshape(*lead, *shape))
        offset += size
    return views[0::2], views[1::2]


@dataclass
class MlpModel:
    """Parameters of one network."""

    config: MlpConfig
    params: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        n = self.config.n_params
        if self.params.dtype != DTYPE or self.params.shape != (n,):
            raise DimensionMismatchError(
                f"expected {n} {np.dtype(DTYPE)} parameters, got "
                f"{self.params.dtype} {self.params.shape}"
            )
        self.weights, self.biases = _layer_views(self.config, self.params)


class Stack:
    """g networks of one config with their gradients and Adam state.

    Row r of ``params``, ``grads``, ``adam_m`` and ``adam_v`` (each
    (g, n_params)) and ``adam_t[r]`` belong to network r; ``weights[i]``
    is a (g, fan_in, fan_out) view, ``biases[i]`` a (g, fan_out) view, and
    ``grad_weights``/``grad_biases`` view ``grads`` the same way.
    ``scratch`` is one chunk of work space for ``adam_step``.
    """

    def __init__(self, cfg: MlpConfig, g: int):
        n = cfg.n_params
        self.config = cfg
        self.params, self.grads, self.adam_m, self.adam_v = (
            np.zeros((g, n), dtype=DTYPE) for _ in range(4)
        )
        self.scratch = np.empty(min(g * n, _ADAM_CHUNK), dtype=DTYPE)
        self.adam_t = np.zeros(g, dtype=np.int64)
        self._index_layers()

    def _index_layers(self) -> None:
        self.weights, self.biases = _layer_views(self.config, self.params)
        self.grad_weights, self.grad_biases = _layer_views(self.config, self.grads)
        self._row_views: dict[tuple[int, int], Stack] = {}

    def rows(self, lo: int, hi: int) -> "Stack":
        """Networks lo..hi-1 as a stack sharing this one's memory."""
        view = self._row_views.get((lo, hi))
        if view is None:
            view = object.__new__(Stack)
            view.config = self.config
            view.scratch = self.scratch
            for name in ("params", "grads", "adam_m", "adam_v", "adam_t"):
                setattr(view, name, getattr(self, name)[lo:hi])
            view._index_layers()
            self._row_views[(lo, hi)] = view
        return view

    def keep(self, rows: list[int]) -> None:
        """Drop every network not in ``rows``, which become 0, 1, ..."""
        for name in ("params", "grads", "adam_m", "adam_v", "adam_t"):
            setattr(self, name, getattr(self, name)[rows])
        self._index_layers()


@dataclass
class EpochStats:
    fold: int
    epoch: int
    train_loss: float
    val_loss: float


@dataclass(frozen=True)
class FoldJob:
    """One network to train: the rows of the feature matrix it fits and
    the rows it stops early on, and the seed of its generator."""

    fit: np.ndarray
    stop: np.ndarray
    seed: int


def _init_weights(cfg: MlpConfig, rng: np.random.Generator, weights) -> None:
    """Weights uniform in ±sqrt(6/fan_in), the He-style bound for ReLU,
    drawn in float64 and rounded into ``weights``."""
    for w, (fan_in, fan_out) in zip(weights, cfg.layer_dims):
        bound = np.sqrt(6.0 / fan_in)
        w[...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class _Buffers:
    """Work arrays of one batch shape, and the record of the last forward
    pass run in them: each hidden layer's ``act``ivation (after dropout)
    and dropout ``mask``, and ``x``, ``logits``, ``probs`` and ``masks`` (the
    masks applied, [] without dropout); ``da`` and ``dz`` serve ``backward``.
    The arrays take the dtype of the parameters of ``net``, the model or
    stack they serve. A training loop keeps one per batch shape, so a step
    allocates no large array: freeing and reallocating them each step costs
    page faults."""

    def __init__(self, net: MlpModel | Stack, lead: tuple[int, ...]):
        shape, dtype = (*lead, net.config.hidden_nodes), net.params.dtype
        n = net.config.n_hidden_layers
        self.act, self.mask = ([np.empty(shape, dtype) for _ in range(n)] for _ in range(2))
        self.da, self.dz = np.empty(shape, dtype), np.empty(shape, dtype)


def _forward_batch(
    net: MlpModel | Stack,
    x: np.ndarray,
    rngs=None,
    buffers: _Buffers | None = None,
) -> tuple[np.ndarray, _Buffers]:
    """Run a batch; returns (softmax probabilities, the record).

    A model takes (n, input_dim) rows, a stack one (g, n, input_dim)
    batch per network; the rows are cast to the parameters' dtype. Given
    ``rngs``, one per network, each hidden activation is masked by
    inverted dropout (scaled by 1/keep so the expectation matches
    inference), network r drawing its masks from ``rngs[r]``. The record
    is ``buffers`` (fresh ones by default).
    """
    cfg = net.config
    lead = net.weights[0].shape[:-2]
    if x.shape[:-2] != lead or x.ndim != len(lead) + 2 or x.shape[-1] != cfg.input_dim:
        raise DimensionMismatchError(
            f"expected {(*lead, '*', cfg.input_dim)} inputs, got {x.shape}"
        )
    x = np.asarray(x, dtype=net.params.dtype)
    if buffers is None:
        buffers = _Buffers(net, x.shape[:-1])
    rate = cfg.dropout_rate if rngs is not None else 0.0
    scale = x.dtype.type(1.0 / (1.0 - rate))  # a kept unit's mask value
    a = x
    for layer, (w, b) in enumerate(zip(net.weights[:-1], net.biases[:-1])):
        a = np.matmul(a, w, out=buffers.act[layer])
        a += b[..., None, :]
        np.maximum(a, 0.0, out=a)
        if rate > 0.0:
            mask = buffers.mask[layer]
            for rng, out in zip(rngs, mask.reshape(-1, *mask.shape[-2:]), strict=True):
                rng.random(out=out, dtype=out.dtype)
            np.multiply(mask >= rate, scale, out=mask)
            a *= mask
    buffers.x = x
    buffers.logits = np.matmul(a, net.weights[-1])
    buffers.logits += net.biases[-1][..., None, :]
    buffers.probs = _softmax(buffers.logits)
    buffers.masks = buffers.mask if rate > 0.0 else []
    return buffers.probs, buffers


def _batch_cce(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean cross-entropy of each network's batch."""
    p = np.where(labels, probs[..., POSITIVE_CLASS], probs[..., 1 - POSITIVE_CLASS])
    return -np.log(np.maximum(p, _PROB_FLOOR)).mean(axis=-1)


def backward(stack: Stack, record: _Buffers, labels: np.ndarray) -> None:
    """Gradients of each network's mean cross-entropy over the batch of
    ``record``, a ``_forward_batch`` record, reusing its dropout masks,
    written into ``stack.grad_weights`` and ``stack.grad_biases``."""
    probs = record.probs
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != probs.shape[:-1]:
        raise DimensionMismatchError(f"labels {labels.shape} for batch {probs.shape[:-1]}")
    n = probs.shape[-2]
    onehot = np.zeros_like(probs)
    onehot[..., POSITIVE_CLASS] = labels
    onehot[..., 1 - POSITIVE_CLASS] = ~labels
    dz = (probs - onehot) / n
    for layer in reversed(range(len(stack.weights))):
        a_prev = record.act[layer - 1] if layer else record.x
        np.matmul(a_prev.swapaxes(-1, -2), dz, out=stack.grad_weights[layer])
        np.sum(dz, axis=-2, out=stack.grad_biases[layer])
        if layer == 0:
            break
        da = np.matmul(dz, stack.weights[layer].swapaxes(-1, -2), out=record.da)
        if record.masks:
            da *= record.masks[layer - 1]
        # a kept unit is scaled by 1/keep >= 1, so its act > 0 exactly when
        # its pre-activation is; a dropped unit's da is already (da * 0)
        dz = np.multiply(da, record.act[layer - 1] > 0.0, out=record.dz)


def adam_step(stack: Stack) -> None:
    """One bias-corrected Adam update of every network of the stack from
    ``stack.grads``, in place.

    Each run of adjacent networks with the same step count t is updated
    as one flat vector, one cache-sized chunk at a time. Each elementwise
    operation and its order are those of the per-array form
    ``m = b1*m + (1-b1)*g; m = m * (|m| >= _MOMENT_FLOOR);
    v = b2*v + (1-b2)*g*g; p -= lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)``,
    so the results are the same to the bit.
    """
    cfg = stack.config
    stack.adam_t += 1
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.learning_rate
    lo = 0
    for t, run in itertools.groupby(stack.adam_t.tolist()):
        hi = lo + len(list(run))
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        # rows lo..hi-1 are contiguous, so these are views
        flat = [np.reshape(a[lo:hi], -1, copy=False)
                for a in (stack.params, stack.adam_m, stack.adam_v, stack.grads)]
        for start in range(0, flat[0].size, _ADAM_CHUNK):
            p, m, v, g = (a[start : start + _ADAM_CHUNK] for a in flat)
            s = stack.scratch[: p.size]
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=s)
            np.add(m, s, out=m)
            np.abs(m, out=s)
            np.multiply(m, s >= _MOMENT_FLOOR, out=m)
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
        lo = hi


def stack_width(cfg: MlpConfig) -> int:
    """How many networks of ``cfg`` ``train`` steps together."""
    return max(1, _STACK_PARAMS // cfg.n_params)


def train(
    cfg: MlpConfig,
    x: np.ndarray,
    y: np.ndarray,
    jobs: list[FoldJob],
) -> tuple[list[MlpModel], list[EpochStats]]:
    """Mini-batch training with seeded shuffling and early stopping of one
    network per job, ``stack_width(cfg)`` networks at a time in lockstep.

    ``x`` is the (n, input_dim) feature matrix and ``y`` its boolean
    same-individual labels; each job names its rows. A network stops once
    its validation loss has not improved for more than
    ``early_stop_patience`` consecutive epochs (or at ``max_epochs``).
    Returns one model per job, each holding the parameters of its
    best-validation epoch and ``rng_seed`` set to the job's seed, and the
    ``EpochStats`` of every epoch trained, ``fold`` being the job's index.
    """
    if x.ndim != 2 or x.shape != (len(y), cfg.input_dim):
        raise DimensionMismatchError(
            f"{x.shape} features for {len(y)} labels, expected {cfg.input_dim} columns"
        )
    x = np.asarray(x, dtype=DTYPE)
    for job in jobs:
        if not len(job.fit) or not len(job.stop):
            raise EmptyDatasetError("train and validation sets must be nonempty")
    models: list[MlpModel] = [None] * len(jobs)
    history: list[EpochStats] = []
    width = stack_width(cfg)
    for lo in range(0, len(jobs), width):
        _train_stack(cfg, x, y, jobs, range(lo, min(lo + width, len(jobs))), models, history)
    return models, history


def _schedule(sizes: list[int], batch_size: int) -> list[tuple[int, int, int, int]]:
    """One epoch's steps as (start, lo, hi, b): networks lo..hi-1 each take
    a batch of b rows from position ``start`` of their epoch order.
    ``sizes`` ascend, so the networks sharing a batch size at a step are
    a contiguous range."""
    steps = []
    for start in range(0, sizes[-1], batch_size):
        lo = next(r for r, n in enumerate(sizes) if n > start)
        for b, run in itertools.groupby(min(batch_size, n - start) for n in sizes[lo:]):
            hi = lo + len(list(run))
            steps.append((start, lo, hi, b))
            lo = hi
    return steps


@dataclass
class _Run:
    """What training keeps of one network besides its stack row."""

    job: int
    rng: np.random.Generator
    fit: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    best_val: float = np.inf
    best: np.ndarray | None = None
    stale: int = 0


def _train_stack(cfg, x, y, jobs, ids, models, history) -> None:
    # rows in order of fit size, as _schedule needs
    runs = [
        _Run(j, np.random.default_rng(jobs[j].seed), jobs[j].fit,
             x[jobs[j].stop], y[jobs[j].stop])
        for j in sorted(ids, key=lambda j: len(jobs[j].fit))
    ]
    stack = Stack(cfg, len(runs))
    for r, run in enumerate(runs):
        _init_weights(cfg, run.rng, [w[r] for w in stack.weights])
    buffers: dict[tuple[int, int], _Buffers] = {}

    def work(shape: tuple[int, int]) -> _Buffers:
        if shape not in buffers:
            buffers[shape] = _Buffers(stack, shape)
        return buffers[shape]

    for epoch in range(1, cfg.max_epochs + 1):
        schedule = _schedule([len(run.fit) for run in runs], cfg.batch_size)
        order = np.empty((len(runs), len(runs[-1].fit)), dtype=np.intp)
        for row, run in zip(order, runs):
            row[: len(run.fit)] = run.fit[run.rng.permutation(len(run.fit))]
        batch_losses: list[list[float]] = [[] for _ in runs]
        for start, lo, hi, b in schedule:
            rows = order[lo:hi, start : start + b]
            labels = y[rows]
            part = stack.rows(lo, hi)
            probs, record = _forward_batch(part, x[rows], [run.rng for run in runs[lo:hi]],
                                           work((hi - lo, b)))
            for losses, loss in zip(batch_losses[lo:hi], _batch_cce(probs, labels).tolist()):
                losses.append(loss)
            backward(part, record, labels)
            adam_step(part)
        finished = []
        for r, run in enumerate(runs):
            val_probs, _ = _forward_batch(stack.rows(r, r + 1), run.x_val[None],
                                          buffers=work((1, len(run.x_val))))
            val_loss = float(_batch_cce(val_probs, run.y_val[None])[0])
            history.append(EpochStats(fold=run.job, epoch=epoch,
                                      train_loss=float(np.mean(batch_losses[r])),
                                      val_loss=val_loss))
            if val_loss < run.best_val:
                run.best_val, run.best, run.stale = val_loss, stack.params[r].copy(), 0
            else:
                run.stale += 1
            if run.stale > cfg.early_stop_patience or epoch == cfg.max_epochs:
                if run.best is None:
                    raise TrainingDivergedError(
                        f"fold {run.job}: no epoch reached a finite validation loss"
                    )
                models[run.job] = MlpModel(config=replace(cfg, rng_seed=jobs[run.job].seed),
                                           params=run.best)
                finished.append(r)
        if finished:
            keep = [r for r in range(len(runs)) if r not in finished]
            if not keep:
                return
            stack.keep(keep)
            runs = [runs[r] for r in keep]


def predict_batch(model: MlpModel, xs: np.ndarray) -> np.ndarray:
    """p(same) of every row, from an inference-mode (dropout-free) pass."""
    probs, _ = _forward_batch(model, np.asarray(xs))
    return probs[:, POSITIVE_CLASS]


# On-disk model format "osnmatch-mlp/1": one UTF-8 JSON header line holding
# the config and parameter shapes, then the parameters as raw little-endian
# float64, row-major, ordered W0, b0, W1, b1, ... (the layout of ``params``).
# The float32 parameters are widened exactly on save and rounded back on
# load, so a file written by a float64 model loads with rounded values.
FORMAT_TAG = "osnmatch-mlp/1"


def save_model(model: MlpModel, path: str) -> None:
    """Write the model atomically: into a temporary file next to ``path``,
    then renamed over it, so ``path`` is never left half-written."""
    header = {
        "format": FORMAT_TAG,
        "config": asdict(model.config),
        "shapes": model.config.param_shapes,
    }
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(
            json.dumps(header, sort_keys=True, default=lambda o: o.item()).encode("utf-8")
        )
        fh.write(b"\n")
        fh.write(model.params.astype("<f8", copy=False).tobytes())


def load_model(path: str) -> MlpModel:
    """Inverse of save_model.

    Raises ModelFormatError unless the file is exactly one well-formed
    header followed by exactly the parameters it declares.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except (ValueError, RecursionError) as exc:
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
        for name, want in typing.get_type_hints(MlpConfig).items():
            if type(raw_cfg[name]) is not want:  # a bool is no int, an int no float
                raise ModelFormatError(
                    path, f"config {name} must be {want.__name__}, got {raw_cfg[name]!r}"
                )
        try:
            cfg = MlpConfig(**raw_cfg)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(path, f"bad config ({exc})") from None
        shapes = header.get("shapes")
        # two shapes per layer; the count is compared first, so that a
        # header declaring a huge depth cannot make it build the list
        if (
            not isinstance(shapes, list)
            or len(shapes) != 2 * (cfg.n_hidden_layers + 1)
            or shapes != [list(shape) for shape in cfg.param_shapes]
        ):
            raise ModelFormatError(path, f"shapes {shapes} do not match the config")
        n_bytes = 8 * cfg.n_params
        # checked before the buffer is allocated, so that a header declaring
        # a huge network cannot make it allocate
        if os.fstat(fh.fileno()).st_size - fh.tell() < n_bytes:
            raise ModelFormatError(path, "truncated parameter data")
        buf = bytearray(n_bytes)
        if fh.readinto(buf) != n_bytes:
            raise ModelFormatError(path, "truncated parameter data")
        if fh.read(1):
            raise ModelFormatError(path, "trailing bytes after the parameters")
    return MlpModel(config=cfg, params=np.frombuffer(buf, dtype="<f8").astype(DTYPE))
