"""Feedforward network mapping covariates to constrained diffusion parameters.

Architecture per hidden layer: affine, then batch normalization, then
dropout (when enabled, it sits between the normalization and the
activation), then the activation.  The output layer is affine into two raw
values that a link layer squeezes onto the parameter domain:

    x0 = softplus(r0) + eps        (always)
    D  = softplus(r1) + eps        (driftless kind)
    mu = -(softplus(r1) + eps)     (drifted kind)

with eps = 1e-6, so any finite raw output yields valid parameters.
Softplus is used instead of exp to keep the link gradient bounded.

Initialization: He fan-in scaling for relu/elu layers, Glorot for tanh,
zero biases, batch-norm scale 1 / shift 0, and the output bias chosen so an
untrained network starts near x0 = 1 and D = 1 (or mu = -0.1), which keeps
the initial survival curves away from the saturated regions of erf/Phi.

Everything is plain numpy with explicit reverse-mode gradients; there is no
autodiff.  Training-mode forward passes consume the network's own dropout
RNG and update batch-norm running statistics (momentum 0.9, variance
epsilon 1e-5, biased batch variance); eval-mode passes are pure functions
of the weights and input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fht import DistKind
from .modelio import decode_array, encode_array

LINK_EPS = 1e-6
BN_EPS = 1e-5
BN_MOMENTUM = 0.9
_ACTIVATIONS = ("relu", "elu", "tanh")
N_DIST_PARAMS = 2


@dataclass(frozen=True)
class LayerSpec:
    width: int
    activation: str = "relu"
    dropout: float = 0.0

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("layer width must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden: tuple
    kind: DistKind

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        object.__setattr__(self, "kind", DistKind(self.kind))


def softplus(r):
    return np.logaddexp(0.0, r)


def _sigmoid(r):
    return 0.5 * (1.0 + np.tanh(0.5 * r))


def _inv_softplus(y):
    # exact inverse of softplus for y > 0
    return np.log(np.expm1(y))


def link_forward(kind: DistKind, raw: np.ndarray) -> np.ndarray:
    """Map raw network outputs (n, 2) onto the valid parameter domain."""
    out = softplus(raw) + LINK_EPS
    if kind == DistKind.INVERSE_GAUSSIAN:
        out[:, 1] = -out[:, 1]
    return out


def link_backward(kind: DistKind, raw: np.ndarray, d_params: np.ndarray) -> np.ndarray:
    d_raw = d_params * _sigmoid(raw)
    if kind == DistKind.INVERSE_GAUSSIAN:
        d_raw[:, 1] = -d_raw[:, 1]
    return d_raw


def _act_forward(name, x):
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "elu":
        return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))
    return np.tanh(x)


def _act_backward(name, x, out, d_out):
    if name == "relu":
        return d_out * (x > 0.0)
    if name == "elu":
        return d_out * np.where(x > 0.0, 1.0, out + 1.0)
    return d_out * (1.0 - out * out)


class Network:
    """Parameter container with explicit forward/backward passes."""

    def __init__(self, spec: NetworkSpec, weights, dropout_rng=None):
        self.spec = spec
        self.weights = weights  # dict name -> ndarray
        self._dropout_rng = dropout_rng or np.random.default_rng(0)

    # ------------------------------------------------------------------
    # construction and parameter access

    @property
    def kind(self) -> DistKind:
        return self.spec.kind

    def trainable_names(self):
        names = []
        for i in range(len(self.spec.hidden)):
            names += [f"h{i}.w", f"h{i}.b", f"h{i}.gamma", f"h{i}.beta"]
        names += ["out.w", "out.b"]
        return names

    def trainable_arrays(self):
        return [self.weights[n] for n in self.trainable_names()]

    def copy(self) -> "Network":
        return Network(
            self.spec,
            {k: v.copy() for k, v in self.weights.items()},
            np.random.default_rng(0),
        )

    # ------------------------------------------------------------------
    # forward / backward

    def forward(self, x: np.ndarray, train: bool = False):
        """Map a batch (n, input_dim) to parameters (n, 2) plus a cache.

        Train mode samples dropout masks from the network's RNG and updates
        batch-norm running statistics; eval mode is deterministic.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ValueError(f"expected batch of shape (n, {self.spec.input_dim})")
        if not np.all(np.isfinite(x)):
            raise ValueError("batch contains non-finite values")
        n = x.shape[0]
        cache = {"x": x, "train": train, "layers": []}
        a = x
        for i, layer in enumerate(self.spec.hidden):
            lc = {"a_in": a}
            z = a @ self.weights[f"h{i}.w"] + self.weights[f"h{i}.b"]
            if train:
                if n < 2:
                    raise ValueError("batch size must be >= 2 to train with batch norm")
                m = z.mean(axis=0)
                v = z.var(axis=0)
                inv_std = 1.0 / np.sqrt(v + BN_EPS)
                zhat = (z - m) * inv_std
                rm, rv = self.weights[f"h{i}.run_mean"], self.weights[f"h{i}.run_var"]
                rm *= BN_MOMENTUM
                rm += (1.0 - BN_MOMENTUM) * m
                rv *= BN_MOMENTUM
                rv += (1.0 - BN_MOMENTUM) * v
            else:
                inv_std = 1.0 / np.sqrt(self.weights[f"h{i}.run_var"] + BN_EPS)
                zhat = (z - self.weights[f"h{i}.run_mean"]) * inv_std
            y = self.weights[f"h{i}.gamma"] * zhat + self.weights[f"h{i}.beta"]
            lc.update(zhat=zhat, inv_std=inv_std)
            if train and layer.dropout > 0.0:
                mask = self._dropout_rng.random(y.shape) >= layer.dropout
                y = y * mask / (1.0 - layer.dropout)
                lc["mask"] = mask
            lc["act_in"] = y
            a = _act_forward(layer.activation, y)
            lc["act_out"] = a
            cache["layers"].append(lc)
        raw = a @ self.weights["out.w"] + self.weights["out.b"]
        cache["a_last"] = a
        cache["raw"] = raw
        params = link_forward(self.kind, raw.copy())
        return params, cache

    def backward(self, cache, d_params: np.ndarray):
        """Accumulate gradients for every trainable given dLoss/dParams.

        Returns a dict name -> gradient aligned with ``trainable_names``.
        """
        d_params = np.asarray(d_params, dtype=np.float64)
        if d_params.shape != cache["raw"].shape:
            raise ValueError("gradient shape does not match the cached forward pass")
        train = cache["train"]
        grads = {}
        d_raw = link_backward(self.kind, cache["raw"], d_params)
        grads["out.w"] = cache["a_last"].T @ d_raw
        grads["out.b"] = d_raw.sum(axis=0)
        d_a = d_raw @ self.weights["out.w"].T
        for i in range(len(self.spec.hidden) - 1, -1, -1):
            layer = self.spec.hidden[i]
            lc = cache["layers"][i]
            d_y = _act_backward(layer.activation, lc["act_in"], lc["act_out"], d_a)
            if train and layer.dropout > 0.0:
                d_y = d_y * lc["mask"] / (1.0 - layer.dropout)
            zhat, inv_std = lc["zhat"], lc["inv_std"]
            grads[f"h{i}.gamma"] = (d_y * zhat).sum(axis=0)
            grads[f"h{i}.beta"] = d_y.sum(axis=0)
            d_zhat = d_y * self.weights[f"h{i}.gamma"]
            if train:
                d_z = inv_std * (
                    d_zhat
                    - d_zhat.mean(axis=0)
                    - zhat * (d_zhat * zhat).mean(axis=0)
                )
            else:
                d_z = d_zhat * inv_std
            grads[f"h{i}.w"] = lc["a_in"].T @ d_z
            grads[f"h{i}.b"] = d_z.sum(axis=0)
            d_a = d_z @ self.weights[f"h{i}.w"].T
        return grads

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {
            "format": "fhtsurv-network",
            "version": 1,
            "kind": self.kind.value,
            "input_dim": self.spec.input_dim,
            "hidden": [
                {"width": l.width, "activation": l.activation, "dropout": l.dropout}
                for l in self.spec.hidden
            ],
            "arrays": {k: encode_array(v) for k, v in sorted(self.weights.items())},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Network":
        if obj.get("format") != "fhtsurv-network":
            raise ValueError("not a network file")
        if obj.get("version") != 1:
            raise ValueError(f"unsupported network version {obj.get('version')!r}")
        for i, h in enumerate(obj["hidden"]):
            # older model files carry a per-layer flag; only batch-normalized layers load
            if h.get("batch_norm", True) is not True:
                raise ValueError(
                    f"hidden layer {i}: batch_norm={h['batch_norm']!r} is not supported; "
                    "every hidden layer applies batch normalization"
                )
        spec = NetworkSpec(
            input_dim=obj["input_dim"],
            hidden=tuple(
                LayerSpec(width=h["width"], activation=h["activation"], dropout=h["dropout"])
                for h in obj["hidden"]
            ),
            kind=DistKind(obj["kind"]),
        )
        weights = {k: decode_array(v) for k, v in obj["arrays"].items()}
        return cls(spec, weights)


def init_network(spec: NetworkSpec, seed=0) -> Network:
    """Reproducibly initialize a network (see module docstring for scheme)."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    w_seq, d_seq = root.spawn(2)
    rng = np.random.default_rng(w_seq)
    weights = {}
    fan_in = spec.input_dim
    for i, layer in enumerate(spec.hidden):
        if layer.activation == "tanh":
            std = np.sqrt(2.0 / (fan_in + layer.width))
        else:
            std = np.sqrt(2.0 / fan_in)
        weights[f"h{i}.w"] = rng.normal(0.0, std, size=(fan_in, layer.width))
        weights[f"h{i}.b"] = np.zeros(layer.width)
        weights[f"h{i}.gamma"] = np.ones(layer.width)
        weights[f"h{i}.beta"] = np.zeros(layer.width)
        weights[f"h{i}.run_mean"] = np.zeros(layer.width)
        weights[f"h{i}.run_var"] = np.ones(layer.width)
        fan_in = layer.width
    weights["out.w"] = rng.normal(
        0.0, np.sqrt(2.0 / (fan_in + N_DIST_PARAMS)), size=(fan_in, N_DIST_PARAMS)
    )
    second = 1.0 if spec.kind == DistKind.LEVY else 0.1
    weights["out.b"] = np.array(
        [_inv_softplus(1.0 - LINK_EPS), _inv_softplus(second - LINK_EPS)]
    )
    return Network(spec, weights, np.random.default_rng(d_seq))
