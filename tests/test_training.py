import types

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtsurv import fht
from fhtsurv.data import SurvivalData
from fhtsurv.metrics import kaplan_meier
from fhtsurv.network import init_network
from fhtsurv.training import (
    LOSS_TIMES,
    FittedModel,
    ModelConfig,
    TrainingDivergedError,
    _Adam,
    _subsample_times,
    brier_terms,
    fit,
    survival_and_grads,
    unique_event_times,
)


def event_terms(surv_of, d):
    """``brier_terms`` on the survival matrix ``surv_of(times)`` over the
    unique event times of ``d`` (a scalar fills the whole matrix)."""
    times = unique_event_times(d.time, d.delta)
    surv = np.broadcast_to(np.asarray(surv_of(times), dtype=float), (len(d), times.size))
    return brier_terms(surv, times, d.time, d.delta)


class TestBrierLoss:
    def test_single_subject_hand_value(self):
        d = SurvivalData(np.zeros((1, 1)), np.array([1.0]), np.array([1]), ["f"])
        loss, grad = event_terms(lambda ts: 0.5, d)
        assert loss == pytest.approx(0.25)  # n * |U| = 1, so the raw sum
        assert grad.shape == (1, 1)

    def test_two_subject_hand_value(self):
        # events/censoring: (d=1, T=1), (d=0, T=2); S = 0.5; U = {1}
        d = SurvivalData(np.zeros((2, 1)), np.array([1.0, 2.0]), np.array([1, 0]), ["f"])
        loss, _ = event_terms(lambda ts: 0.5, d)
        assert loss == pytest.approx(0.5 / 2)  # raw sum 0.5 over n * |U| = 2 terms

    def test_oracle_step_predictor_zero_loss(self):
        times = np.array([1.0, 2.0, 3.0])
        d = SurvivalData(np.zeros((3, 1)), times, np.ones(3, dtype=int), ["f"])

        loss, _ = event_terms(lambda ts: (times[:, None] > ts[None, :]).astype(float), d)
        assert loss == 0.0

    def test_censored_before_first_event_no_gradient(self):
        d = SurvivalData(np.zeros((2, 1)), np.array([2.0, 1.0]), np.array([1, 0]), ["f"])
        _, grad = event_terms(lambda ts: 0.4, d)  # U = {2}, censored at 1 <= 2
        assert np.all(grad[1] == 0.0)

    def test_subject_order_invariance(self):
        rng = np.random.default_rng(0)
        n = 20
        d = SurvivalData(np.zeros((n, 1)), rng.uniform(0.1, 5, n), rng.integers(0, 2, n), ["f"])
        if not (d.delta == 1).any():
            d.delta[0] = 1
        s_vals = rng.random(n)

        loss1, _ = event_terms(lambda ts: s_vals[:, None], d)
        perm = rng.permutation(n)
        loss2, _ = event_terms(lambda ts: s_vals[perm, None], d[perm])
        assert loss1 == pytest.approx(loss2, rel=1e-12)

    def test_duplicate_times_deduplicated(self):
        d = SurvivalData(np.zeros((3, 1)), np.array([1.0, 1.0, 2.0]), np.array([1, 1, 1]), ["f"])
        assert unique_event_times(d.time, d.delta).size == 2

    def test_empty_event_set_rejected(self):
        d = SurvivalData(np.zeros((2, 1)), np.array([1.0, 2.0]), np.array([0, 0]), ["f"])
        with pytest.raises(ValueError):
            event_terms(lambda ts: 0.5, d)

    def test_gradient_matches_finite_difference_of_terms(self):
        rng = np.random.default_rng(3)
        surv = rng.random((4, 3))
        times = np.array([0.5, 1.0, 2.0])
        tobs = np.array([0.7, 3.0, 1.5, 0.2])
        delta = np.array([1, 0, 1, 1])
        loss, grad = brier_terms(surv, times, tobs, delta)
        h = 1e-7
        for i in range(4):
            for j in range(3):
                sp = surv.copy()
                sp[i, j] += h
                lp, _ = brier_terms(sp, times, tobs, delta)
                sp[i, j] -= 2 * h
                lm, _ = brier_terms(sp, times, tobs, delta)
                fd = (lp - lm) / (2 * h)
                assert abs(fd - grad[i, j]) < 1e-6


    def test_equals_the_two_mask_formula_bit_for_bit(self):
        # records at a loss time, censored before and after loss times, and
        # survival values at exactly 0 and 1
        rng = np.random.default_rng(4)
        times = np.array([0.5, 1.0, 2.0, 4.0])
        tobs = np.concatenate([[1.0, 2.0, 0.3, 1.5, 5.0, 4.0, 0.5], rng.uniform(0.1, 5.0, 57)])
        delta = np.concatenate([[1, 1, 0, 0, 0, 0, 1], rng.integers(0, 2, 57)])
        surv = rng.random((tobs.size, times.size))
        surv[0, :2] = (0.0, 1.0)
        loss, grad = brier_terms(surv, times, tobs, delta)
        ref_loss, ref_grad = oracles.brier_terms_two_masks(surv, times, tobs, delta)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("value", [-5e-324, -0.5, 1.0 + 2.0**-52, 2.0])
    def test_refuses_survival_outside_the_unit_interval(self, value):
        surv = np.full((3, 2), 0.5)
        surv[1, 1] = value
        for terms in (brier_terms, oracles.brier_terms_two_masks):
            with pytest.raises(ValueError, match=r"survival values must lie in \[0, 1\]"):
                terms(surv, np.array([1.0, 2.0]), np.array([0.5, 1.5, 3.0]), np.array([1, 0, 1]))


class TestAdam:
    SHAPES = [(3, 5), (5,), (5, 4), (1,), (4, 2), (2,)]

    def test_flat_buffer_step_equals_the_per_array_loop(self):
        rng = np.random.default_rng(8)
        arrays = [rng.normal(size=shape) for shape in self.SHAPES]
        ref = oracles.AdamPerArray(arrays, 0.01)
        flat = np.concatenate([a.copy() for a in arrays], axis=None)
        opt = _Adam(flat, 0.01)
        for _ in range(7):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=a.shape) for a in arrays]
            ref.step(arrays, grads)
            opt.step(np.concatenate(grads, axis=None))
            for got, want in [(flat, arrays), (opt.m, ref.m), (opt.v, ref.v)]:
                assert np.array_equal(got, np.concatenate(want, axis=None))

    def test_fitted_weights_view_one_buffer_and_reload_bit_exactly(self, tmp_path):
        m = fit(toy_data(), toy_cfg(epochs=3, batch_size=32, learning_rate=0.01), seed=2)
        trainable = [m.network.weights[nm] for nm in m.network.trainable_names()]
        assert all(w.base is not None and w.base is trainable[0].base for w in trainable)
        m.save(tmp_path / "m.json")
        loaded = FittedModel.load(tmp_path / "m.json")
        assert loaded.to_dict() == m.to_dict()
        for k, w in m.network.weights.items():
            assert np.array_equal(loaded.network.weights[k], w), k


def toy_data(n=120, seed=0, censor_frac=0.2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    t = np.exp(0.4 * x[:, 0]) * rng.exponential(1.0, n) + 0.01
    delta = (rng.random(n) > censor_frac).astype(int)
    return SurvivalData(x, t, delta, [f"f{i}" for i in range(4)])


def toy_net(seed=0):
    return init_network(fht.DistKind.LEVY, 4, (8,), seed=seed)


def toy_cfg(epochs, batch_size, learning_rate, kind=fht.DistKind.LEVY):
    return ModelConfig(kind.value, (8,), epochs, batch_size, learning_rate)


def subsample_loop_ref(times_sorted, cap, rng):
    """The strata drawn one at a time, as ``np.array_split`` cuts them."""
    if times_sorted.size <= cap:
        return times_sorted
    return np.array([b[rng.integers(b.size)] for b in np.array_split(times_sorted, cap)])


class TestSubsampleTimes:
    @pytest.mark.parametrize("cap", [1, 7, 100, 256, 763, 764, 765, 2000])
    def test_same_picks_and_stream_as_per_stratum_loop(self, cap):
        times = np.sort(np.random.default_rng(3).uniform(0.1, 10.0, 764))
        ours, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(50):
            got = _subsample_times(times, cap, ours)
            assert np.array_equal(got, subsample_loop_ref(times, cap, ref))
        # both generators advanced alike, so later batches stay aligned
        assert ours.integers(1 << 30) == ref.integers(1 << 30)

    def test_one_time_per_stratum(self):
        times = np.arange(10.0)
        picks = _subsample_times(times, 4, np.random.default_rng(0))
        # strata of array_split(range(10), 4): [0,1,2] [3,4,5] [6,7] [8,9]
        for p, (lo, hi) in zip(picks, [(0, 2), (3, 5), (6, 7), (8, 9)]):
            assert lo <= p <= hi


class TestLossTimes:
    """``fit`` evaluates each batch's loss at min(|U|, LOSS_TIMES) times."""

    @staticmethod
    def kernel_times(monkeypatch, d, cfg):
        import fhtsurv.training as tr_mod

        seen = []
        original = tr_mod.survival_and_grads

        def recording(kind, cols, times):
            seen.append(times.copy())
            return original(kind, cols, times)

        monkeypatch.setattr(tr_mod, "survival_and_grads", recording)
        fit(d, cfg, seed=4)
        return seen

    def test_one_time_per_stratum_above_the_cap(self, monkeypatch):
        d = toy_data(3 * LOSS_TIMES + 7, seed=5)
        u = unique_event_times(d.time, d.delta)
        assert u.size > LOSS_TIMES
        seen = self.kernel_times(monkeypatch, d, toy_cfg(2, 128, 0.01))
        assert len(seen) == 2 * -(-len(d) // 128)
        strata = np.array_split(u, LOSS_TIMES)
        for times in seen:
            assert times.size == LOSS_TIMES
            assert all(t in stratum for t, stratum in zip(times, strata))
        # a fresh draw each batch
        assert len({times.tobytes() for times in seen}) == len(seen)

    def test_every_event_time_below_the_cap(self, monkeypatch):
        d = toy_data(LOSS_TIMES, seed=1)
        u = unique_event_times(d.time, d.delta)
        assert u.size < LOSS_TIMES
        seen = self.kernel_times(monkeypatch, d, toy_cfg(3, LOSS_TIMES // 2, 0.01))
        assert len(seen) == 3 * 2
        assert all(np.array_equal(times, u) for times in seen)


class TestFit:
    def test_bit_reproducible(self):
        d = toy_data()
        cfg = toy_cfg(epochs=4, batch_size=32, learning_rate=0.01)
        m1 = fit(d, cfg, seed=5)
        m2 = fit(d, cfg, seed=5)
        for k in m1.network.weights:
            assert np.array_equal(m1.network.weights[k], m2.network.weights[k])
        assert m1.loss_trace == m2.loss_trace

    def test_zero_epochs_returns_initialized_network(self):
        d = toy_data()
        m = fit(d, toy_cfg(epochs=0, batch_size=32, learning_rate=0.01), seed=5)
        ref = toy_net(seed=np.random.SeedSequence(5).spawn(3)[0])
        for k in ref.weights:
            assert np.array_equal(m.network.weights[k], ref.weights[k])

    def test_requires_an_event(self):
        d = toy_data()
        d.delta[:] = 0
        with pytest.raises(ValueError):
            fit(d, toy_cfg(1, 32, 0.01))

    @pytest.mark.parametrize("rate", [0.0, -0.01, np.inf, np.nan])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="'learning_rate' must be a finite number > 0"):
            ModelConfig(learning_rate=rate)

    def test_divergence_aborts_with_diagnostic(self, monkeypatch):
        # the stable links and saturating survival make organic blow-ups
        # essentially impossible, so inject a poisoned batch to exercise the
        # abort path directly
        import fhtsurv.training as tr_mod

        original = tr_mod.survival_and_grads

        def poisoned(kind, cols, times):
            surv, g0, g1 = original(kind, cols, times)
            surv = surv.copy()
            surv[0, 0] = np.nan
            return surv, g0, g1

        monkeypatch.setattr(tr_mod, "survival_and_grads", poisoned)
        d = toy_data()
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            fit(d, toy_cfg(epochs=2, batch_size=64, learning_rate=0.01))

    def test_marginal_survival_tracks_kaplan_meier(self):
        # exponential times, covariates carry no signal: the fitted marginal
        # survival should sit near the KM estimate of the same sample.  The
        # drifted kind is used: its hazard can flatten like the data's,
        # whereas driftless hitting times always have t^(-1/2) tails.  The
        # comparison window is the interquartile time range; at very early
        # times every diffusion first-passage law has vanishing hazard, so a
        # gap against the constant-hazard sample there is structural.
        rng = np.random.default_rng(42)
        n = 400
        d = SurvivalData(
            rng.normal(size=(n, 3)) * 0.01,
            rng.exponential(1.0, n) + 1e-3,
            np.ones(n, dtype=int),
            ["a", "b", "c"],
        )
        cfg = toy_cfg(epochs=300, batch_size=128, learning_rate=0.03,
                      kind=fht.DistKind.INVERSE_GAUSSIAN)
        m = fit(d, cfg, seed=2)
        km = kaplan_meier(d.time, d.delta)
        grid = np.quantile(d.time, np.linspace(0.25, 0.75, 20))
        model_marginal = m.survival_matrix(d.x, grid).mean(axis=0)
        km_vals = km.eval(grid)
        assert np.max(np.abs(model_marginal - km_vals)) < 0.05

    def test_loss_decreases_early_for_most_seeds(self):
        from fhtsurv.data import NonPhConfig, generate_nonph

        d = generate_nonph(NonPhConfig(n_raw=1500, n_keep=320, seed=3))
        ok = 0
        for seed in range(10):
            m = fit(d, toy_cfg(epochs=10, batch_size=64, learning_rate=0.005), seed=seed)
            diffs = np.diff(m.loss_trace)
            if np.all(diffs < 0):
                ok += 1
        assert ok >= 9

    @pytest.mark.parametrize("kind", [fht.DistKind.LEVY, fht.DistKind.INVERSE_GAUSSIAN])
    def test_both_kinds_train(self, kind):
        d = toy_data(80, seed=1)
        m = fit(d, toy_cfg(epochs=3, batch_size=32, learning_rate=0.01, kind=kind), seed=1)
        s = m.survival_matrix(d.x[:5], np.array([0.5, 1.0, 2.0]))
        assert np.all((s >= 0) & (s <= 1))
        assert np.all(np.diff(s, axis=1) <= 1e-12)


class TestModelConfig:
    @pytest.mark.parametrize("key,value", [("epochs", 2.5), ("batch_size", True),
                                           ("hidden_sizes", (True,)), ("hidden_sizes", "16"),
                                           ("distribution", "gamma")])
    def test_names_the_field_it_rejects(self, key, value):
        with pytest.raises(ValueError, match=f"^'{key}' must be"):
            ModelConfig(**{key: value})

    def test_numpy_integers_train_and_save(self):
        cfg = ModelConfig(hidden_sizes=[np.int64(8)], epochs=np.int64(1), batch_size=np.int32(32))
        assert cfg.hidden_sizes == (8,)
        m = fit(toy_data(40, seed=1), cfg)
        assert FittedModel.from_dict(m.to_dict()).network.hidden == (8,)

    def test_batch_of_one_needs_no_hidden_layer(self):
        with pytest.raises(ValueError, match="'batch_size' must be >= 2 when 'hidden_sizes'"):
            ModelConfig(hidden_sizes=(4,), batch_size=1)
        d = toy_data(40, seed=1)
        m = fit(d, ModelConfig(hidden_sizes=(), epochs=2, batch_size=1, learning_rate=0.01))
        assert all(loss > 0.0 for loss in m.loss_trace)
        untrained = init_network(fht.DistKind.LEVY, 4, (),
                                 seed=np.random.SeedSequence(0).spawn(3)[0])
        assert not np.array_equal(m.network.weights["out.w"], untrained.weights["out.w"])

    def test_hidden_layers_need_two_rows(self):
        # a lone row would be skipped as a singleton batch in every epoch
        d = toy_data(40, seed=1)
        d = d[np.flatnonzero(d.delta == 1)[:1]]
        with pytest.raises(ValueError, match="at least 2 training rows.*got 1"):
            fit(d, ModelConfig(epochs=3, batch_size=4))
        m = fit(d, ModelConfig(hidden_sizes=(), epochs=3, batch_size=4, learning_rate=0.01))
        assert all(loss > 0.0 for loss in m.loss_trace)


class TestPredict:
    def test_limit_at_small_time(self):
        d = toy_data(60, seed=2)
        m = fit(d, toy_cfg(2, 32, 0.01), seed=3)
        assert m.survival_matrix(d.x[:1], 1e-9)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_manual_composition(self):
        d = toy_data(60, seed=2)
        m = fit(d, toy_cfg(2, 32, 0.01), seed=3)
        x = d.x[:7]
        ts = np.array([0.3, 1.2, 4.0])
        cols, _ = m.network.forward(x)
        manual = fht.LevyParams(cols[:, 0:1], cols[:, 1:2]).survival(ts[None, :])
        assert np.max(np.abs(manual - m.survival_matrix(x, ts))) < 1e-12

    @pytest.mark.parametrize("kind", [fht.DistKind.LEVY, fht.DistKind.INVERSE_GAUSSIAN])
    @pytest.mark.parametrize("n,m,tiles", [
        (250, 300, 3),  # 109 rows a tile, the last one short
        (1, 50, 1),
        (3, 40_000, 3),  # more times than a tile holds: one row a tile
    ])
    def test_tiled_matrix_equals_whole(self, kind, n, m, tiles, monkeypatch):
        model = fit(toy_data(60, seed=5), toy_cfg(1, 32, 0.01, kind), seed=3)
        x = toy_data(n, seed=6).x
        times = np.geomspace(0.01, 20.0, m)
        cols = model.params_for(x)
        whole = fht.make_params(kind, cols[:, 0:1], cols[:, 1:2]).survival(times[None, :])
        calls = []

        def counted(*args):
            calls.append(args[1].shape[0])
            return fht.make_params(*args)

        monkeypatch.setattr("fhtsurv.training.fht", types.SimpleNamespace(make_params=counted))
        assert np.array_equal(model.survival_matrix(x, times), whole)
        assert len(calls) == tiles and sum(calls) == n

    def test_no_rows_still_checks_times(self):
        m = fit(toy_data(60, seed=2), toy_cfg(2, 32, 0.01), seed=3)
        assert m.survival_matrix(np.zeros((0, 4)), [1.0, 2.0]).shape == (0, 2)
        with pytest.raises(fht.FhtDomainError, match="t must be finite"):
            m.survival_matrix(np.zeros((0, 4)), [-1.0])

    def test_monotone_over_grid(self):
        d = toy_data(60, seed=4)
        m = fit(d, toy_cfg(2, 32, 0.01, fht.DistKind.INVERSE_GAUSSIAN), seed=3)
        s = m.survival_matrix(d.x[:1], np.geomspace(0.01, 20, 50))[0]
        assert np.all(np.diff(s) <= 1e-15)


class TestModelFile:
    def test_kind_is_the_networks(self):
        kind = fht.DistKind.INVERSE_GAUSSIAN
        m = fit(toy_data(40, seed=1), toy_cfg(1, 32, 0.01, kind))
        assert m.kind is kind
        back = FittedModel.from_dict(m.to_dict())
        assert back.kind is kind and back.to_dict() == m.to_dict()

    def test_envelope_version_must_be_1(self):
        obj = dict(fit(toy_data(40, seed=1), toy_cfg(1, 32, 0.01)).to_dict(), version=99)
        with pytest.raises(ValueError, match="unsupported model file version 99"):
            FittedModel.from_dict(obj)

    @pytest.mark.parametrize("edit", [
        {"recipe": None},
        {"loss_trace": []},
        {"loss_trace": [1, 0.5]},
    ], ids=["null-recipe", "empty-trace", "integer-entry"])
    def test_envelope_keys_that_still_load(self, edit):
        m = fit(toy_data(40, seed=1), toy_cfg(1, 32, 0.01))
        obj = {**m.to_dict(), **edit}
        back = FittedModel.from_dict(obj)
        assert back.recipe is None and back.loss_trace == obj["loss_trace"]
        assert back.to_dict() == {**obj, "loss_trace": [float(v) for v in obj["loss_trace"]]}

    def test_recipe_and_loss_trace_may_be_absent(self):
        obj = fit(toy_data(40, seed=1), toy_cfg(1, 32, 0.01)).to_dict()
        del obj["recipe"], obj["loss_trace"]
        back = FittedModel.from_dict(obj)
        assert back.recipe is None and back.loss_trace == []

    def test_envelope_kind_must_match_payload(self):
        obj = {"format": "fhtsurv-model", "version": 1, "kind": "invgauss",
               "payload": toy_net().to_dict(), "recipe": None, "loss_trace": []}
        with pytest.raises(ValueError, match="'invgauss'.*'levy'"):
            FittedModel.from_dict(obj)


class TestEndToEndGradient:
    @pytest.mark.parametrize("kind", [fht.DistKind.LEVY, fht.DistKind.INVERSE_GAUSSIAN])
    def test_brier_gradients_match_finite_differences(self, kind):
        # 4 subjects, 2 hidden ReLU layers, batch norm in train mode, as fit
        # differentiates it: batch statistics, never the running ones
        rng = np.random.default_rng(8)
        net = init_network(kind, 3, (5, 4), seed=7)
        x = rng.normal(size=(4, 3))
        tobs = np.array([0.5, 1.0, 2.0, 3.0])
        delta = np.array([1, 0, 1, 1])
        times = unique_event_times(tobs, delta)

        def loss_and_grads():
            cols, cache = net.forward(x, train=True)
            surv, g0, g1 = survival_and_grads(kind, cols, times)
            loss, d_surv = brier_terms(surv, times, tobs, delta)
            d_cols = np.stack([(d_surv * g0).sum(1), (d_surv * g1).sum(1)], axis=1)
            return loss, net.backward(cache, d_cols)

        _, grads = loss_and_grads()
        h = 1e-5
        worst = 0.0
        for name in net.trainable_names():
            w = net.weights[name]
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = w[ix]
                w[ix] = orig + h
                lp, _ = loss_and_grads()
                w[ix] = orig - h
                lm, _ = loss_and_grads()
                w[ix] = orig
                fd = (lp - lm) / (2 * h)
                scale = max(abs(fd), abs(grads[name][ix]))
                if scale > 1e-8:
                    worst = max(worst, abs(fd - grads[name][ix]) / scale)
        assert worst < 1e-4
