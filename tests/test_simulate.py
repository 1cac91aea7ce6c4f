import os

import numpy as np
import pytest
from scipy import special, stats

from fhtsurv import fht
from fhtsurv import simulate as sim
from fhtsurv.simulate import (
    SimConfig,
    _bridge_crossings,
    _first_fine_crossings,
    empirical_survival,
    simulate_fpt,
    write_samples_csv,
)

import oracles


def z_scores(params, cfg, t_grid):
    emp = empirical_survival(simulate_fpt(params, cfg), t_grid)
    closed = np.asarray(params.survival(np.asarray(t_grid)), dtype=float)
    se = np.sqrt(closed * (1 - closed) / cfg.n_paths)
    return (emp - closed) / se


class TestSimulate:
    def test_frozen_process_never_absorbed(self):
        cfg = SimConfig(n_paths=500, dt=1e-3, t_max=1.0, seed=0)
        s = simulate_fpt(fht.LevyParams(1.0, 1e-12), cfg)
        assert s.dtype == np.float64 and s.shape == (500,)
        assert np.all(np.isinf(s))

    def test_levy_bridge_matches_closed_form(self):
        cfg = SimConfig(n_paths=20000, dt=1e-3, t_max=2.0, seed=42, bridge_correction=True)
        z = z_scores(fht.LevyParams(1.0, 1.0), cfg, [0.25, 0.5, 1.0, 2.0])
        assert np.max(np.abs(z)) < 3.0

    def test_ig_bridge_matches_closed_form(self):
        cfg = SimConfig(n_paths=20000, dt=1e-3, t_max=2.0, seed=43, bridge_correction=True)
        z = z_scores(fht.InvGaussParams(1.0, -0.5), cfg, [0.25, 0.5, 1.0, 2.0])
        assert np.max(np.abs(z)) < 3.0

    def test_mean_hitting_time_matches_inverse_gaussian_mean(self):
        # E[T] = x0/|mu|; variance 2*D*x0/|mu|^3
        cfg = SimConfig(n_paths=10000, dt=1e-3, t_max=30.0, seed=3, bridge_correction=True)
        s = simulate_fpt(fht.InvGaussParams(1.0, -1.0), cfg)
        finite = np.isfinite(s)
        assert finite.mean() > 0.999
        mean = s[finite].mean()
        se = np.sqrt(2.0 / cfg.n_paths)
        assert abs(mean - 1.0) < 3 * se

    def test_naive_overestimates_survival_and_bridge_corrects(self):
        p = fht.LevyParams(1.0, 1.0)
        cf = float(p.survival(1.0))
        naive = simulate_fpt(p, SimConfig(20000, 5e-2, 1.0, 5, False))
        bridged = simulate_fpt(p, SimConfig(20000, 5e-2, 1.0, 5, True))
        s_naive = empirical_survival(naive, [1.0])[0]
        s_bridge = empirical_survival(bridged, [1.0])[0]
        assert s_naive - cf > 0.03  # coarse-step boundary bias
        assert abs(s_bridge - cf) < 0.02

    def test_bias_shrinks_with_dt_naive(self):
        p = fht.LevyParams(1.0, 1.0)
        cf = float(p.survival(1.0))
        coarse = simulate_fpt(p, SimConfig(40000, 4e-2, 1.0, 9, False))
        fine = simulate_fpt(p, SimConfig(40000, 1e-2, 1.0, 9, False))
        err_coarse = abs(empirical_survival(coarse, [1.0])[0] - cf)
        err_fine = abs(empirical_survival(fine, [1.0])[0] - cf)
        assert err_fine < err_coarse

    def test_seeded_bit_reproducible(self):
        cfg = SimConfig(n_paths=5000, dt=1e-2, t_max=1.0, seed=7, bridge_correction=True)
        a = simulate_fpt(fht.LevyParams(1.0, 1.0), cfg)
        b = simulate_fpt(fht.LevyParams(1.0, 1.0), cfg)
        assert np.array_equal(a, b)

    def test_result_independent_of_worker_count(self):
        base = dict(n_paths=40000, dt=1e-2, t_max=1.0, seed=7, bridge_correction=True)
        a = simulate_fpt(fht.LevyParams(1.0, 1.0), SimConfig(**base, n_jobs=1))
        b = simulate_fpt(fht.LevyParams(1.0, 1.0), SimConfig(**base, n_jobs=2))
        assert np.array_equal(a, b)

    def test_workers_start_no_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("a worker process was started")

        base = dict(n_paths=2 * sim._BLOCK_PATHS, dt=1e-1, t_max=1.0, seed=7,
                    bridge_correction=True)
        a = simulate_fpt(fht.LevyParams(1.0, 1.0), SimConfig(**base, n_jobs=1))
        monkeypatch.setattr(os, "fork", no_fork)
        b = simulate_fpt(fht.LevyParams(1.0, 1.0), SimConfig(**base, n_jobs=2))
        assert np.array_equal(a, b)

    def test_no_more_workers_than_blocks(self, monkeypatch):
        # a stand-in pool that records its size and maps serially
        import fhtsurv.simulate as sim_mod

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim_mod, "ThreadPoolExecutor", SerialPool)
        base = dict(n_paths=2 * sim_mod._BLOCK_PATHS, dt=1e-1, t_max=1.0, seed=7,
                    bridge_correction=True)
        a = simulate_fpt(fht.LevyParams(1.0, 1.0), SimConfig(**base, n_jobs=4))
        assert sizes == [2]
        b = simulate_fpt(fht.LevyParams(1.0, 1.0), SimConfig(**base, n_jobs=1))
        assert np.array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_paths=0)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, t_max=-1.0)


def binned_chi_square_p(a, b, n_bins=20):
    """p-value of a two-sample chi-square test on hit times; the bins are
    quantiles of the pooled finite times, survivors form one more bin."""
    pooled = np.concatenate([a, b])
    edges = np.unique(np.quantile(pooled[np.isfinite(pooled)], np.linspace(0, 1, n_bins + 1)[1:-1]))

    def cells(x):
        finite = np.bincount(np.searchsorted(edges, x[np.isfinite(x)], side="right"),
                             minlength=edges.size + 1)
        return np.append(finite, np.isinf(x).sum())

    table = np.array([cells(a), cells(b)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


class TestAgainstFineStepSampler:
    """The coarse-step sampler against the former one-step-per-dt kernel."""

    @pytest.mark.parametrize("bridge", [True, False])
    @pytest.mark.parametrize("kind, params", [
        (fht.DistKind.LEVY, fht.LevyParams(1.0, 1.0)),
        (fht.DistKind.INVERSE_GAUSSIAN, fht.InvGaussParams(1.0, -0.5)),
    ])
    def test_same_law_as_fine_steps(self, kind, params, bridge, monkeypatch):
        assert params.kind is kind
        cfg = SimConfig(100000, 1e-2, 5.0, 21, bridge)
        ref_cfg = SimConfig(100000, 1e-2, 5.0, 22, bridge)
        ours = simulate_fpt(params, cfg)
        # the reference kernel run on the simulator's own blocks and substreams
        monkeypatch.setattr(sim, "_run_block", oracles.fine_fpt_reference)
        ref = simulate_fpt(params, ref_cfg)
        assert binned_chi_square_p(ours, ref) > 0.01


class TestBridgeStep:
    """The exact in-step sampler of bridge mode, for fixed step ends."""

    D, DT = 1.0, 1e-4
    N_FINE = sim._BRIDGE_STEPS
    SCALE = D * DT * N_FINE  # D h

    def crossings(self, a, b, n, seed):
        return _bridge_crossings(np.random.default_rng(seed), np.full(n, a), np.full(n, b),
                                 self.SCALE, self.N_FINE)

    @pytest.mark.parametrize("a, b", [(0.2, 0.1), (0.05, 0.6), (0.5, 0.02)])
    def test_crossing_frequency(self, a, b):
        n = 200000
        freq = np.mean(self.crossings(a, b, n, 61) > 0)
        p = np.exp(-a * b / self.SCALE)
        assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("b", [0.1, 0.0, -0.15])
    def test_hit_step_law_matches_dyadic_refinement(self, b):
        n, a = 20000, 0.2
        ours = self.crossings(a, b, n, 62)
        assert ours.min() >= (1 if b <= 0.0 else 0) and ours.max() <= self.N_FINE
        ref = oracles.dyadic_first_crossings(np.random.default_rng(63), np.full(n, a),
                                             np.full(n, b), self.D, self.DT, self.N_FINE, True)
        as_times = [np.where(x > 0, x, np.inf) for x in (ours, ref)]
        assert binned_chi_square_p(*as_times) > 0.01

    def test_end_at_zero_has_the_limiting_law(self):
        # b = 0: x = lam / Z**2, so P(hit step <= j) = erfc(sqrt(lam (n - j) / (2 j)))
        n, a = 100000, 0.2
        lam = a * a / (2.0 * self.SCALE)
        hit = self.crossings(a, 0.0, n, 64)
        edges = np.arange(64, self.N_FINE + 1, 64)
        cdf = special.erfc(np.sqrt(lam * (self.N_FINE - edges) / (2.0 * edges)))
        observed = np.bincount(np.searchsorted(edges, hit, side="left"), minlength=edges.size)
        expected = n * np.diff(cdf, prepend=0.0)
        assert observed.sum() == n
        assert stats.chisquare(observed, expected).pvalue > 0.01

    def test_no_bridge_refinement_is_the_reference(self):
        rng = np.random.default_rng(65)
        left, right = rng.uniform(0.0, 0.05, 3000), rng.uniform(-0.05, 0.05, 3000)
        ours = _first_fine_crossings(np.random.default_rng(66), left, right, self.D, self.DT)
        ref = oracles.dyadic_first_crossings(np.random.default_rng(66), left, right, self.D,
                                             self.DT, sim._FINE_STEPS, False)
        assert np.array_equal(ours, ref)


# bridge-mode coarse steps: the former 32 dt and the module's own
COARSE_STEPS = [32, sim._BRIDGE_STEPS]


class TestGridEdges:
    @pytest.mark.parametrize("n_fine", COARSE_STEPS)
    def test_steps_not_a_multiple_of_the_coarse_step(self, n_fine, monkeypatch):
        # two coarse steps and a partial one that runs past t_max
        monkeypatch.setattr(sim, "_BRIDGE_STEPS", n_fine)
        dt = 0.32 / n_fine
        n_steps = 2 * n_fine + 5 * n_fine // 32
        cfg = SimConfig(n_paths=40000, dt=dt, t_max=n_steps * dt, seed=31)
        p = fht.LevyParams(1.0, 1.0)
        hits = simulate_fpt(p, cfg)
        finite = hits[np.isfinite(hits)]
        assert finite.size > 0
        assert np.array_equal(finite, np.round(finite / dt) * dt)
        assert finite.max() <= n_steps * dt
        z = z_scores(p, cfg, np.array([n_fine // 2, n_fine, 2 * n_fine, n_steps]) * dt)
        assert np.max(np.abs(z)) < 3.0

    @pytest.mark.parametrize("n_fine", COARSE_STEPS)
    def test_hits_inside_the_first_coarse_step(self, n_fine, monkeypatch):
        # the knee x0**2 / (4 D) lies a fifth of the way into the first step
        monkeypatch.setattr(sim, "_BRIDGE_STEPS", n_fine)
        dt = 0.0032 / n_fine
        cfg = SimConfig(n_paths=40000, dt=dt, t_max=2 * n_fine * dt, seed=32)
        z = z_scores(fht.LevyParams(0.05, 1.0), cfg,
                     np.array([n_fine // 8, n_fine // 2, 3 * n_fine // 2]) * dt)
        assert np.max(np.abs(z)) < 3.0


class TestEmpiricalSurvival:
    def test_starts_at_one_and_nonincreasing(self):
        s = np.array([0.5, 1.5, np.inf, 2.5])
        grid = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        vals = empirical_survival(s, grid)
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 0)

    def test_manual_count(self):
        s = np.array([0.2, 0.4, 0.4, 1.0, np.inf, np.inf, 3.0, 0.9, 2.0, 1.5])
        assert empirical_survival(s, [0.4])[0] == pytest.approx(0.7)
        assert empirical_survival(s, [1.0])[0] == pytest.approx(0.5)
        assert empirical_survival(s, [5.0])[0] == pytest.approx(0.2)

    def test_survivors_count_beyond_t_max(self):
        s = np.array([np.inf, 1.0])
        assert empirical_survival(s, [2.0])[0] == pytest.approx(0.5)


def test_sample_dump(tmp_path):
    s = np.array([0.5, np.inf])
    path = tmp_path / "samples.csv"
    write_samples_csv(s, str(path))
    lines = path.read_text().splitlines()
    assert lines == ["hit_time", "0.5", "inf"]
