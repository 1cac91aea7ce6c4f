"""Brier-loss training of the parameter network.

The loss follows the censoring-aware squared-error form evaluated on the
set ``U`` of unique observed event times of the training data:

    L = sum_{t in U} sum_i [ 1(T_i <= t and d_i = 1) S(t|x_i)^2
                             + 1(T_i > t) (1 - S(t|x_i))^2 ]

Subjects censored at or before ``t`` drop out of the ``t`` term entirely.
The implementation divides by ``|U| * n`` so learning rates transfer
across dataset sizes; the optimum is unchanged.

Minibatch semantics: the inner sum runs over the batch while ``U`` stays
the full training-set event-time set, capped at ``LOSS_TIMES`` (32) times:
each batch draws one time from each of ``LOSS_TIMES`` contiguous strata of
the sorted set, which bounds the O(|U| * batch) cost without shrinking the
time range.  The cap is a training constant only; evaluation uses every
event time.

Gradients flow from the loss through the closed-form survival functions
(analytic parameter partials) into the network via its reverse pass.

Adam keeps one first- and one second-moment buffer for all trainable
arrays.  During ``fit`` the network's trainable arrays are views of one flat
parameter buffer, so each step concatenates the gradients once and updates
every weight with the same elementwise operations the per-array form makes;
the fitted network keeps those views.

``ModelConfig`` is the model config: its fields are the config file's keys,
and its checks are the only ones made on their values.  ``fit`` initializes
a network of the config's kind and hidden widths, as wide as the data has
feature columns, and returns the trained network itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fht
from .data import PreprocessRecipe
from .modelio import is_finite, is_int, read_json, refuse_unknown, require, write_json_atomic
from .network import Network, init_network

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOSS_TIMES = 32
_TILE_ELEMS = 1 << 15  # survival values per row tile of ``survival_matrix``


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """The model config file's keys, defaulting to the synthetic-benchmark
    configuration.  With hidden layers a batch holds at least two rows, which
    batch normalization needs."""

    distribution: str = "levy"
    hidden_sizes: tuple = (16, 16)
    epochs: int = 450
    batch_size: int = 256
    learning_rate: float = 0.0039

    def __post_init__(self):
        if self.distribution not in fht.KINDS:
            raise ValueError(f"'distribution' must be one of {list(fht.KINDS)}, "
                             f"got {self.distribution!r}")
        for key, low in (("epochs", 0), ("batch_size", 1)):
            value = getattr(self, key)
            if not is_int(value):
                raise ValueError(f"'{key}' must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"'{key}' must be >= {low}, got {value!r}")
        widths = self.hidden_sizes
        if not isinstance(widths, (list, tuple)) or not all(is_int(w) for w in widths):
            raise ValueError(f"'hidden_sizes' must be a list of integers, got {widths!r}")
        if not all(w >= 1 for w in widths):
            raise ValueError(f"'hidden_sizes' must hold widths >= 1, got {widths!r}")
        object.__setattr__(self, "hidden_sizes", tuple(widths))
        if widths and self.batch_size < 2:
            raise ValueError(
                f"'batch_size' must be >= 2 when 'hidden_sizes' is not empty, since batch "
                f"normalization needs two rows, got {self.batch_size!r}"
            )
        rate = self.learning_rate
        if not (is_finite(rate) and rate > 0.0):
            raise ValueError(f"'learning_rate' must be a finite number > 0, got {rate!r}")


def unique_event_times(time_obs, delta) -> np.ndarray:
    return np.unique(np.asarray(time_obs)[np.asarray(delta) == 1])


def brier_terms(surv, times, time_obs, delta):
    """Normalized loss and dLoss/dS for a precomputed survival matrix (n, |times|).

    One comparison serves both masks: subject i has ended at ``t`` when
    ``T_i <= t`` and is at risk otherwise.  The masked terms ``hit`` and
    ``miss`` serve both the loss and the gradient.
    """
    surv = np.asarray(surv, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    time_obs = np.asarray(time_obs, dtype=np.float64)
    delta = np.asarray(delta)
    if times.size == 0:
        raise ValueError("the event-time set is empty")
    if surv.min() < 0.0 or surv.max() > 1.0:
        raise ValueError("survival values must lie in [0, 1]")
    ended = time_obs[:, None] <= times
    hit = (ended & (delta[:, None] == 1)) * surv
    miss = ~ended * (1.0 - surv)
    loss = float(np.sum(hit * hit) + np.sum(miss * miss))
    d_surv = 2.0 * (hit - miss)
    scale = surv.shape[0] * times.size
    loss /= scale
    d_surv /= scale
    return loss, d_surv


class _Adam:
    """Adam on one flat parameter buffer, updated in place from one flat
    gradient per step."""

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grad):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v = self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        self.params -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _subsample_times(times_sorted, cap, rng):
    """One uniformly drawn time per contiguous stratum of the sorted set.

    The strata are those of ``np.array_split(times_sorted, cap)``: the first
    ``n % cap`` hold ``n // cap + 1`` times, the rest ``n // cap``.
    """
    n = times_sorted.size
    if n <= cap:
        return times_sorted
    q, r = divmod(n, cap)
    k = np.arange(cap)
    return times_sorted[k * q + np.minimum(k, r) + rng.integers(q + (k < r))]


def survival_and_grads(kind: fht.DistKind, param_cols: np.ndarray, times: np.ndarray):
    """Survival matrix and its two parameter partials, all (n, |times|)."""
    p = fht.make_params(kind, param_cols[:, 0:1], param_cols[:, 1:2])
    return p.survival_and_grads(times[None, :])


def model_to_dict(kind: str, payload: dict, recipe, loss_trace=()) -> dict:
    """A model file's object: the envelope all kinds share, around ``payload``."""
    return {
        "format": "fhtsurv-model",
        "version": 1,
        "kind": kind,
        "payload": payload,
        "recipe": recipe.to_dict() if recipe is not None else None,
        "loss_trace": [float(v) for v in loss_trace],
    }


def model_from_dict(obj: dict, cox: bool):
    """The payload, recipe and loss trace of a model file's object, a cox
    model's if ``cox`` is true and a network's otherwise; a ValueError names
    the envelope key at fault.  ``recipe`` and ``loss_trace`` may be absent."""
    if obj.get("format") != "fhtsurv-model" or (obj.get("kind") == "cox") != cox:
        raise ValueError(f"not a {'cox' if cox else 'network'} model file")
    if obj.get("version") != 1:
        raise ValueError(f"unsupported model file version {obj.get('version')!r}")
    refuse_unknown(obj, ("format", "version", "kind", "payload", "recipe", "loss_trace"),
                   "model file")
    payload = require(obj, "payload", "model file", dict)
    recipe = obj.get("recipe")
    if not isinstance(recipe, (dict, type(None))):
        raise ValueError(f"model file key 'recipe' must be an object or null, got {recipe!r}")
    trace = obj.get("loss_trace", [])
    if not isinstance(trace, list):
        raise ValueError(f"model file key 'loss_trace' must be a list, got {trace!r}")
    for i, value in enumerate(trace):
        if not is_finite(value):
            raise ValueError(f"model file key 'loss_trace' entry {i} must be a finite number, "
                             f"got {value!r}")
    if recipe is not None:
        recipe = _read_key("recipe", PreprocessRecipe.from_dict, recipe)
    return payload, recipe, trace


def _read_key(key, read, value):
    """``read(value)``; its ValueError is prefixed with the model-file key
    ``value`` sits under."""
    try:
        return read(value)
    except ValueError as exc:
        raise ValueError(f"model file key '{key}': {exc}") from None


@dataclass
class FittedModel:
    """Eval-mode network snapshot plus everything needed to predict; the
    distribution kind is the network's own."""

    network: Network
    recipe: object | None = None
    loss_trace: list = field(default_factory=list)

    @property
    def kind(self) -> fht.DistKind:
        return self.network.kind

    def params_for(self, x: np.ndarray) -> np.ndarray:
        params, _ = self.network.forward(np.atleast_2d(x), train=False)
        return params

    def survival_matrix(self, x: np.ndarray, times) -> np.ndarray:
        """(rows of ``x``) x ``times`` survival.  The network runs once; the
        matrix is filled in row tiles of at most ``_TILE_ELEMS`` values (at
        least one row), so the survival kernel's temporaries are tile-sized."""
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        cols = self.params_for(x)
        n = cols.shape[0]
        rows = max(1, _TILE_ELEMS // max(times.size, 1))
        out = np.empty((n, times.size))
        # one tile even without rows, so that the times are still checked
        for start in range(0, max(n, 1), rows):
            tile = cols[start : start + rows]
            p = fht.make_params(self.kind, tile[:, 0:1], tile[:, 1:2])
            out[start : start + rows] = p.survival(times[None, :])
        return out

    def to_dict(self) -> dict:
        return model_to_dict(self.kind.value, self.network.to_dict(), self.recipe,
                             self.loss_trace)

    def save(self, path) -> None:
        write_json_atomic(path, self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "FittedModel":
        payload, recipe, trace = model_from_dict(obj, cox=False)
        network = _read_key("payload", Network.from_dict, payload)
        if obj.get("kind") != network.kind.value:
            raise ValueError(f"model file says kind {obj.get('kind')!r} but its network "
                             f"payload says {network.kind.value!r}")
        return cls(network=network, recipe=recipe, loss_trace=list(trace))

    @classmethod
    def load(cls, path) -> "FittedModel":
        return cls.from_dict(read_json(path))


def fit(data, cfg: ModelConfig, seed=0, *, recipe=None) -> FittedModel:
    """Train a network of ``cfg``'s kind and hidden widths, as wide as the
    data has feature columns, on survival data; bit-reproducible for a given
    seed."""
    if data.x.shape[1] == 0:
        raise ValueError("training data has no feature column")
    n = len(data)
    if cfg.hidden_sizes and n < 2:
        raise ValueError(f"a network with hidden layers needs at least 2 training rows, "
                         f"since batch normalization needs two; got {n}")
    u_full = unique_event_times(data.time, data.delta)
    if u_full.size == 0:
        raise ValueError("training data has no uncensored subject")
    root = np.random.SeedSequence(seed)
    init_seq, shuffle_seq, times_seq = root.spawn(3)
    net = init_network(cfg.distribution, data.x.shape[1], cfg.hidden_sizes, seed=init_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    times_rng = np.random.default_rng(times_seq)

    names = net.trainable_names()
    flat = np.concatenate([net.weights[nm] for nm in names], axis=None)
    start = 0
    for nm in names:
        w = net.weights[nm]
        net.weights[nm] = flat[start : start + w.size].reshape(w.shape)
        start += w.size
    opt = _Adam(flat, cfg.learning_rate)

    trace = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_count = 0
        for start in range(0, n, cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            if sel.size < 2 and net.hidden:
                continue  # batch-norm variance undefined for a singleton batch
            u_batch = _subsample_times(u_full, LOSS_TIMES, times_rng)
            param_cols, cache = net.forward(data.x[sel], train=True)
            if not np.all(np.isfinite(param_cols)):
                raise TrainingDivergedError(
                    f"non-finite parameters at epoch {epoch}, batch offset {start}"
                )
            surv, g0, g1 = survival_and_grads(net.kind, param_cols, u_batch)
            loss, d_surv = brier_terms(surv, u_batch, data.time[sel], data.delta[sel])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}"
                )
            d_cols = np.stack(
                [(d_surv * g0).sum(axis=1), (d_surv * g1).sum(axis=1)], axis=1
            )
            grads = net.backward(cache, d_cols)
            opt.step(np.concatenate([grads[nm] for nm in names], axis=None))
            epoch_loss += loss * sel.size
            epoch_count += sel.size
        trace.append(epoch_loss / max(epoch_count, 1))
    return FittedModel(network=net, recipe=recipe, loss_trace=trace)
