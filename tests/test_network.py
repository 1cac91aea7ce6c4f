import numpy as np
import pytest

from fhtsurv.fht import DistKind
from fhtsurv.network import (
    LINK_EPS,
    Network,
    init_network,
    link_forward,
    softplus,
)


def small_net(kind=DistKind.LEVY, seed=0):
    return init_network(kind, 3, (5, 4), seed=seed)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = small_net(seed=42)
        b = small_net(seed=42)
        assert a.weights.keys() == b.weights.keys()
        for k in a.weights:
            assert np.array_equal(a.weights[k], b.weights[k])

    def test_different_seeds_differ(self):
        a = small_net(seed=1)
        b = small_net(seed=2)
        assert any(not np.array_equal(a.weights[k], b.weights[k]) for k in a.weights)

    def test_fan_in_scaling_variance(self):
        # He scaling: pre-activation variance about 2x input variance
        rng = np.random.default_rng(0)
        net = init_network(DistKind.LEVY, 64, (64,), seed=5)
        x = rng.standard_normal((10000, 64))
        z = x @ net.weights["h0.w"] + net.weights["h0.b"]
        ratio = z.var() / 2.0
        assert 0.5 < ratio < 2.0

    def test_initial_params_near_targets(self):
        x = np.zeros((4, 3))
        levy = small_net(DistKind.LEVY)
        cols, _ = levy.forward(x)
        assert np.allclose(cols[:, 0], 1.0, atol=1e-9)
        assert np.allclose(cols[:, 1], 1.0, atol=1e-9)
        ig = small_net(DistKind.INVERSE_GAUSSIAN)
        cols, _ = ig.forward(x)
        assert np.allclose(cols[:, 0], 1.0, atol=1e-9)
        assert np.allclose(cols[:, 1], -0.1, atol=1e-9)


class TestLink:
    def test_constraints_hold_over_wide_raw_range(self):
        raw = np.stack(np.meshgrid(np.linspace(-50, 50, 41), np.linspace(-50, 50, 41)), -1).reshape(-1, 2)
        levy = link_forward(DistKind.LEVY, raw.copy())
        assert np.all(levy[:, 0] > 0) and np.all(levy[:, 1] > 0)
        ig = link_forward(DistKind.INVERSE_GAUSSIAN, raw.copy())
        assert np.all(ig[:, 0] > 0) and np.all(ig[:, 1] < 0)

    def test_zero_weight_network_constant_params(self):
        net = small_net()
        for name in net.trainable_names():
            net.weights[name][...] = 0.0
        x = np.random.default_rng(1).normal(size=(6, 3))
        cols, _ = net.forward(x)
        expect = softplus(0.0) + LINK_EPS
        assert np.allclose(cols, [[expect, expect]] * 6)


class TestForward:
    def test_eval_deterministic(self):
        net = small_net(seed=9)
        x = np.random.default_rng(2).normal(size=(5, 3))
        a, _ = net.forward(x)
        b, _ = net.forward(x)
        assert np.array_equal(a, b)

    def test_train_batchnorm_standardizes_preactivations(self):
        net = small_net(seed=11)
        x = np.random.default_rng(3).normal(size=(8, 3)) * 3.0 + 1.0
        _, cache = net.forward(x, train=True)
        zhat = cache["layers"][0]["zhat"]
        assert np.allclose(zhat.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(zhat.var(axis=0), 1.0, atol=1e-3)

    def test_train_batch_of_one_rejected(self):
        net = small_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 3)), train=True)

    def test_running_stats_converge_and_eval_stabilizes(self):
        # epochs over a fixed dataset drive the running statistics to a
        # periodic fixed point; successive-epoch eval outputs stabilize
        net = small_net(seed=8)
        rng = np.random.default_rng(6)
        batches = [rng.normal(size=(32, 3)) + 0.5 for _ in range(8)]
        probe = rng.normal(size=(16, 3))
        prev = None
        drift = None
        for _ in range(30):
            for b in batches:
                net.forward(b, train=True)
            out, _ = net.forward(probe)
            if prev is not None:
                drift = np.max(np.abs(out - prev))
            prev = out
        assert drift < 1e-3

    def test_shape_validation(self):
        net = small_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros((4, 7)))
        with pytest.raises(ValueError):
            net.forward(np.array([[np.nan, 0.0, 0.0]]))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        net = small_net(seed=1)
        x = np.random.default_rng(7).normal(size=(4, 3))
        _, cache = net.forward(x)
        grads = net.backward(cache, np.zeros((4, 2)))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_shape_mismatch_rejected(self):
        net = small_net(seed=1)
        x = np.random.default_rng(7).normal(size=(4, 3))
        _, cache = net.forward(x)
        with pytest.raises(ValueError):
            net.backward(cache, np.zeros((3, 2)))

    def test_single_affine_layer_matches_least_squares_gradient(self):
        # no hidden layers: raw = x @ W + b; take dL/draw for L = 0.5 ||raw - y||^2
        net = init_network(DistKind.LEVY, 2, (), seed=2)
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        y = np.array([[0.5, 0.1], [0.2, 0.4]])
        _, cache = net.forward(x)
        raw = cache["raw"]
        # bypass the link chain: pass dL/dparams that cancels the link slope
        from fhtsurv.network import _sigmoid

        d_raw_target = raw - y
        grads = net.backward(cache, d_raw_target / _sigmoid(raw))
        assert np.allclose(grads["out.w"], x.T @ d_raw_target, atol=1e-12)
        assert np.allclose(grads["out.b"], d_raw_target.sum(axis=0), atol=1e-12)

    @pytest.mark.parametrize("train", [False, True])
    def test_finite_difference_full_network(self, train):
        # quadratic loss on the linked parameters; train mode exercises the
        # batch-statistics path of the normalization backward
        rng = np.random.default_rng(10)
        net = init_network(DistKind.LEVY, 3, (4, 3), seed=13)
        x = rng.normal(size=(6, 3))
        target = rng.random((6, 2)) + 0.5
        base = {k: v.copy() for k, v in net.weights.items()}

        def restore():
            for k, v in base.items():
                net.weights[k][...] = v

        def loss_of():
            cols, cache = net.forward(x, train=train)
            return 0.5 * np.sum((cols - target) ** 2), cache, cols

        _, cache, cols = loss_of()
        grads = net.backward(cache, cols - target)
        restore()
        h = 1e-6
        worst = 0.0
        for name in net.trainable_names():
            w = net.weights[name]
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = w[ix]
                w[ix] = orig + h
                lp, _, _ = loss_of()
                restore()
                w[ix] = orig - h
                lm, _, _ = loss_of()
                restore()
                fd = (lp - lm) / (2 * h)
                scale = max(abs(fd), abs(grads[name][ix]))
                if scale > 1e-6:
                    worst = max(worst, abs(fd - grads[name][ix]) / scale)
        assert worst < 1e-4


class TestSerialization:
    def test_round_trip_bit_exact(self):
        net = small_net(DistKind.INVERSE_GAUSSIAN, seed=21)
        # push the running stats away from init so they round-trip too
        net.forward(np.random.default_rng(0).normal(size=(16, 3)), train=True)
        obj = net.to_dict()
        assert obj["hidden"] == [{"width": 5}, {"width": 4}]
        clone = Network.from_dict(obj)
        assert (clone.kind, clone.input_dim, clone.hidden) == (DistKind.INVERSE_GAUSSIAN, 3, (5, 4))
        for k in net.weights:
            assert np.array_equal(net.weights[k], clone.weights[k]), k

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            Network.from_dict({"format": "something-else"})

    def test_batch_norm_key_of_older_files(self):
        net = small_net(seed=3)
        obj = net.to_dict()
        assert all("batch_norm" not in h for h in obj["hidden"])
        for h in obj["hidden"]:
            h["batch_norm"] = True
        assert Network.from_dict(obj).hidden == (5, 4)
        obj["hidden"][1]["batch_norm"] = False
        with pytest.raises(ValueError, match="hidden layer 1"):
            Network.from_dict(obj)

    @pytest.mark.parametrize("key,value,other", [("activation", "relu", "elu"), ("dropout", 0.0, 0.5)])
    def test_layer_keys_of_older_files(self, key, value, other):
        net = small_net(seed=3)
        obj = net.to_dict()
        for h in obj["hidden"]:
            h[key] = value
        assert Network.from_dict(obj).hidden == (5, 4)
        obj["hidden"][1][key] = other
        with pytest.raises(ValueError, match=f"hidden layer 1: {key}="):
            Network.from_dict(obj)


class TestSpec:
    """The arrays define the architecture; a file's declared widths must match them."""

    @pytest.mark.parametrize("hidden", [(0,), (4, -1), (2.5,), ("8",), (True,)])
    def test_bad_widths_rejected(self, hidden):
        # the arrays take the nearest valid widths, so only the declared type or value is wrong
        obj = init_network(DistKind.LEVY, 3, tuple(max(1, int(w)) for w in hidden)).to_dict()
        for layer, width in zip(obj["hidden"], hidden):
            layer["width"] = width
        with pytest.raises(ValueError, match="network file declares input then hidden widths"):
            Network.from_dict(obj)

    @pytest.mark.parametrize("input_dim,hidden,name", [(0, (4,), "h0.w"), (3, (4, 0), "h1.w"),
                                                       (0, (), "out.w")])
    def test_zero_width_named(self, input_dim, hidden, name):
        with pytest.raises(ValueError, match=f"array '{name}' has shape"):
            init_network(DistKind.LEVY, input_dim, hidden)
