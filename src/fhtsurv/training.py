"""Brier-loss training of the parameter network.

The loss follows the censoring-aware squared-error form evaluated on the
set ``U`` of unique observed event times of the training data:

    L = sum_{t in U} sum_i [ 1(T_i <= t and d_i = 1) S(t|x_i)^2
                             + 1(T_i > t) (1 - S(t|x_i))^2 ]

Subjects censored at or before ``t`` drop out of the ``t`` term entirely.
The implementation divides by ``|U| * n`` so learning rates transfer
across dataset sizes; the optimum is unchanged.

Minibatch semantics: the inner sum runs over the batch while ``U`` stays
the full training-set event-time set, capped (default 256) by drawing one
time per contiguous stratum of the sorted set each batch, which bounds the
O(|U| * batch) cost without shrinking the time range.

Gradients flow from the loss through the closed-form survival functions
(analytic parameter partials) into the network via its reverse pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fht
from .fht import DistKind
from .modelio import read_json, write_json_atomic
from .network import Network, NetworkSpec, init_network

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int = 0
    eval_time_cap: int | None = 256

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.eval_time_cap is not None and self.eval_time_cap < 1:
            raise ValueError("eval_time_cap must be >= 1 or None")


def unique_event_times(time_obs, delta) -> np.ndarray:
    return np.unique(np.asarray(time_obs)[np.asarray(delta) == 1])


def brier_terms(surv, times, time_obs, delta):
    """Normalized loss and dLoss/dS for a precomputed survival matrix (n, |times|)."""
    surv = np.asarray(surv, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    time_obs = np.asarray(time_obs, dtype=np.float64)
    delta = np.asarray(delta)
    if times.size == 0:
        raise ValueError("the event-time set is empty")
    if np.any(surv < 0.0) or np.any(surv > 1.0):
        raise ValueError("survival values must lie in [0, 1]")
    event_before = (time_obs[:, None] <= times[None, :]) & (delta[:, None] == 1)
    at_risk = time_obs[:, None] > times[None, :]
    loss = float(np.sum(event_before * surv**2) + np.sum(at_risk * (1.0 - surv) ** 2))
    d_surv = 2.0 * (event_before * surv - at_risk * (1.0 - surv))
    scale = surv.shape[0] * times.size
    loss /= scale
    d_surv /= scale
    return loss, d_surv


class _Adam:
    def __init__(self, arrays, lr):
        self.lr = lr
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.t = 0

    def step(self, arrays, grads):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            a -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _subsample_times(times_sorted, cap, rng):
    """One uniformly drawn time per contiguous stratum of the sorted set.

    The strata are those of ``np.array_split(times_sorted, cap)``: the first
    ``n % cap`` hold ``n // cap + 1`` times, the rest ``n // cap``.
    """
    n = times_sorted.size
    if cap is None or n <= cap:
        return times_sorted
    q, r = divmod(n, cap)
    k = np.arange(cap)
    return times_sorted[k * q + np.minimum(k, r) + rng.integers(q + (k < r))]


def survival_and_grads(kind: DistKind, param_cols: np.ndarray, times: np.ndarray):
    """Survival matrix and its two parameter partials, all (n, |times|)."""
    p = fht.make_params(kind, param_cols[:, 0:1], param_cols[:, 1:2])
    return fht.survival_and_grads(kind, p, times[None, :])


@dataclass
class FittedModel:
    """Eval-mode network snapshot plus everything needed to predict."""

    network: Network
    kind: DistKind
    recipe: object | None = None
    loss_trace: list = field(default_factory=list)

    def params_for(self, x: np.ndarray) -> np.ndarray:
        params, _ = self.network.forward(np.atleast_2d(x), train=False)
        return params

    def survival_matrix(self, x: np.ndarray, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        cols = self.params_for(x)
        p = fht.make_params(self.kind, cols[:, 0:1], cols[:, 1:2])
        return fht.survival(self.kind, p, times[None, :])

    def to_dict(self) -> dict:
        return {
            "format": "fhtsurv-model",
            "version": 1,
            "kind": self.kind.value,
            "payload": self.network.to_dict(),
            "recipe": self.recipe.to_dict() if self.recipe is not None else None,
            "loss_trace": [float(v) for v in self.loss_trace],
        }

    def save(self, path) -> None:
        write_json_atomic(path, self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "FittedModel":
        if obj.get("format") != "fhtsurv-model" or obj.get("kind") == "cox":
            raise ValueError("not a network model file")
        recipe = None
        if obj.get("recipe") is not None:
            from .data import PreprocessRecipe

            recipe = PreprocessRecipe.from_dict(obj["recipe"])
        return cls(
            network=Network.from_dict(obj["payload"]),
            kind=DistKind(obj["kind"]),
            recipe=recipe,
            loss_trace=list(obj.get("loss_trace", [])),
        )

    @classmethod
    def load(cls, path) -> "FittedModel":
        return cls.from_dict(read_json(path))


def fit(data, kind: DistKind, net_spec: NetworkSpec, cfg: TrainConfig, recipe=None) -> FittedModel:
    """Train a network on survival data; bit-reproducible for a given seed."""
    kind = DistKind(kind)
    n = len(data)
    if data.x.shape[1] != net_spec.input_dim:
        raise ValueError(
            f"data has {data.x.shape[1]} feature columns but the network expects "
            f"input_dim {net_spec.input_dim}"
        )
    u_full = unique_event_times(data.time, data.delta)
    if u_full.size == 0:
        raise ValueError("training data has no uncensored subject")
    root = np.random.SeedSequence(cfg.seed)
    init_seq, shuffle_seq, times_seq = root.spawn(3)
    net = init_network(net_spec, seed=init_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    times_rng = np.random.default_rng(times_seq)

    arrays = net.trainable_arrays()
    opt = _Adam(arrays, cfg.learning_rate)

    trace = []
    names = net.trainable_names()
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_count = 0
        for start in range(0, n, cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            if sel.size < 2 and net_spec.hidden:
                continue  # batch-norm variance undefined for a singleton batch
            u_batch = _subsample_times(u_full, cfg.eval_time_cap, times_rng)
            try:
                param_cols, cache = net.forward(data.x[sel], train=True)
            except ValueError as exc:
                raise TrainingDivergedError(
                    f"non-finite activations at epoch {epoch}, batch offset {start}: {exc}"
                ) from exc
            if not np.all(np.isfinite(param_cols)):
                raise TrainingDivergedError(
                    f"non-finite parameters at epoch {epoch}, batch offset {start}"
                )
            surv, g0, g1 = survival_and_grads(kind, param_cols, u_batch)
            loss, d_surv = brier_terms(surv, u_batch, data.time[sel], data.delta[sel])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}"
                )
            d_cols = np.stack(
                [(d_surv * g0).sum(axis=1), (d_surv * g1).sum(axis=1)], axis=1
            )
            grads = net.backward(cache, d_cols)
            opt.step(arrays, [grads[nm] for nm in names])
            epoch_loss += loss * sel.size
            epoch_count += sel.size
        trace.append(epoch_loss / max(epoch_count, 1))
    return FittedModel(network=net.copy(), kind=kind, recipe=recipe, loss_trace=trace)
