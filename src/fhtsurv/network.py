"""Feedforward network mapping covariates to constrained diffusion parameters.

Architecture per hidden layer: affine, then batch normalization, then ReLU.
The output layer is affine into two raw values that a link layer squeezes
onto the parameter domain:

    x0     = softplus(r0) + eps                 (always)
    second = sign * (softplus(r1) + eps)        (D, or the drift mu)

with eps = 1e-6 and ``sign`` the parameter struct's ``second_sign`` (+1
for the diffusion D, -1 for the drift mu), so any finite raw output yields
valid parameters.  Softplus is used instead of exp to keep the link
gradient bounded.

Initialization: He fan-in scaling for the hidden layers and Glorot for the
output layer, zero biases, batch-norm scale 1 / shift 0, and the output
bias chosen so an untrained network starts near x0 = 1 and a second
parameter of magnitude ``second_init`` (D = 1, or mu = -0.1), which keeps
the initial survival curves away from the saturated regions of erf/Phi.

A network is its kind plus its weight arrays, whose shapes define the
architecture: the input and hidden widths are read from the weight
matrices, and a missing, extra or misshapen array is refused by name.

Everything is plain numpy with explicit reverse-mode gradients; there is no
autodiff.  Training-mode forward passes update batch-norm running
statistics (momentum 0.9, variance epsilon 1e-5, biased batch variance);
eval-mode passes are pure functions of the weights and input.
"""

from __future__ import annotations

import numpy as np

from .fht import DistKind, params_class
from .modelio import decode_array, encode_array, refuse_unknown, require

LINK_EPS = 1e-6
BN_EPS = 1e-5
BN_MOMENTUM = 0.9
N_DIST_PARAMS = 2
# per-layer keys of older model files, with the one value each still loads
_FIXED_LAYER_KEYS = {"batch_norm": True, "activation": "relu", "dropout": 0.0}


def _shapes(input_dim, hidden):
    """Each weight array's name and shape for these widths, in layer order."""
    shapes = {}
    fan_in = input_dim
    for i, width in enumerate(hidden):
        shapes[f"h{i}.w"] = (fan_in, width)
        for name in ("b", "gamma", "beta", "run_mean", "run_var"):
            shapes[f"h{i}.{name}"] = (width,)
        fan_in = width
    shapes["out.w"] = (fan_in, N_DIST_PARAMS)
    shapes["out.b"] = (N_DIST_PARAMS,)
    return shapes


def _architecture(weights):
    """Input and hidden widths read from the weight matrices; a ValueError names
    the first array that is missing, extra, misshapen or of a width below 1."""
    matrices = [f"h{i}.w" for i in range(len(weights)) if f"h{i}.w" in weights] + ["out.w"]
    for name in matrices:
        if name not in weights:
            raise ValueError(f"missing array '{name}'")
        if weights[name].ndim != 2 or 0 in weights[name].shape:
            raise ValueError(f"array '{name}' has shape {weights[name].shape}, expected a "
                             "matrix with every width >= 1")
    input_dim = weights[matrices[0]].shape[0]
    hidden = tuple(weights[name].shape[1] for name in matrices[:-1])
    expected = _shapes(input_dim, hidden)
    for name in [*expected, *sorted(set(weights) - set(expected))]:
        if name not in weights or name not in expected:
            raise ValueError(f"{'missing' if name in expected else 'unexpected'} array '{name}'")
        if weights[name].shape != expected[name]:
            raise ValueError(f"array '{name}' has shape {weights[name].shape}, "
                             f"expected {expected[name]}")
    return input_dim, hidden


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
    out[:, 1] *= params_class(kind).second_sign
    return out


def link_backward(kind: DistKind, raw: np.ndarray, d_params: np.ndarray) -> np.ndarray:
    d_raw = d_params * _sigmoid(raw)
    d_raw[:, 1] *= params_class(kind).second_sign
    return d_raw


class Network:
    """Parameter container with explicit forward/backward passes; its input and
    hidden widths are read from the weight arrays, checked on construction."""

    def __init__(self, kind, weights):
        self.kind = DistKind(kind)
        self.weights = weights  # dict name -> ndarray
        self.input_dim, self.hidden = _architecture(weights)

    def trainable_names(self):
        return [name for name in _shapes(self.input_dim, self.hidden)
                if not name.endswith((".run_mean", ".run_var"))]

    # ------------------------------------------------------------------
    # forward / backward

    def forward(self, x: np.ndarray, train: bool = False):
        """Map a batch (n, input_dim) to parameters (n, 2) plus a cache.

        Train mode normalizes with batch statistics and updates the batch-norm
        running statistics; eval mode is a pure function of weights and input.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected batch of shape (n, {self.input_dim})")
        if not np.all(np.isfinite(x)):
            raise ValueError("batch contains non-finite values")
        n = x.shape[0]
        cache = {"train": train, "layers": []}
        a = x
        for i in range(len(self.hidden)):
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
            lc.update(zhat=zhat, inv_std=inv_std, act_in=y)
            a = np.maximum(y, 0.0)
            cache["layers"].append(lc)
        raw = a @ self.weights["out.w"] + self.weights["out.b"]
        cache["a_last"] = a
        cache["raw"] = raw
        params = link_forward(self.kind, raw)
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
        for i in range(len(self.hidden) - 1, -1, -1):
            lc = cache["layers"][i]
            d_y = d_a * (lc["act_in"] > 0.0)
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
            "input_dim": self.input_dim,
            "hidden": [{"width": w} for w in self.hidden],
            "arrays": {k: encode_array(v) for k, v in sorted(self.weights.items())},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Network":
        if obj.get("format") != "fhtsurv-network":
            raise ValueError("not a network file")
        if obj.get("version") != 1:
            raise ValueError(f"unsupported network version {obj.get('version')!r}")
        refuse_unknown(obj, ("format", "version", "kind", "input_dim", "hidden", "arrays"),
                       "network file")
        hidden = require(obj, "hidden", "network file", list)
        for i, h in enumerate(hidden):
            if not isinstance(h, dict):
                raise ValueError(f"network file key 'hidden': layer {i} is not an object: {h!r}")
            for key, value in _FIXED_LAYER_KEYS.items():
                if key in h and h[key] != value:
                    raise ValueError(
                        f"hidden layer {i}: {key}={h[key]!r} is not supported; every "
                        "hidden layer is batch-normalized ReLU without dropout"
                    )
        arrays = require(obj, "arrays", "network file", dict)
        net = cls(require(obj, "kind", "network file"),
                  {k: decode_array(v, k) for k, v in arrays.items()})
        declared = [obj.get("input_dim"), *(h.get("width") for h in hidden)]
        # JSON integers only: True == 1 and 8.0 == 8 would pass the comparison
        if declared != [net.input_dim, *net.hidden] or any(type(w) is not int for w in declared):
            raise ValueError(f"network file declares input then hidden widths {declared}, but "
                             f"its arrays have {[net.input_dim, *net.hidden]}")
        return net


def init_network(kind, input_dim, hidden, seed=0) -> Network:
    """Reproducibly initialize a network (see module docstring for scheme)."""
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(root.spawn(1)[0])
    net = Network(kind, {name: np.zeros(shape) for name, shape in _shapes(input_dim, hidden).items()})
    for name, w in net.weights.items():
        if name.endswith(".w"):
            fan = sum(w.shape) if name == "out.w" else w.shape[0]
            w[...] = rng.normal(0.0, np.sqrt(2.0 / fan), size=w.shape)
        elif name.endswith((".gamma", ".run_var")):
            w[...] = 1.0
    second = params_class(kind).second_init
    net.weights["out.b"][...] = [_inv_softplus(1.0 - LINK_EPS), _inv_softplus(second - LINK_EPS)]
    return net
