import numpy as np
import pytest
from scipy import stats

from fhtsurv import fht
from fhtsurv.simulate import (
    SimConfig,
    _block_tasks,
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

    def test_no_more_workers_than_blocks(self, monkeypatch):
        # a stand-in pool that records its size and maps serially, so no
        # process is started
        import fhtsurv.simulate as sim_mod

        sizes = []

        class SerialPool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(sim_mod, "ProcessPoolExecutor", SerialPool)
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
    def test_same_law_as_fine_steps(self, kind, params, bridge):
        assert params.kind is kind
        cfg = SimConfig(100000, 1e-2, 5.0, 21, bridge)
        ref_cfg = SimConfig(100000, 1e-2, 5.0, 22, bridge)
        ref = np.concatenate([oracles.fine_fpt_reference(t) for t in _block_tasks(params, ref_cfg)])
        ours = simulate_fpt(params, cfg)
        assert binned_chi_square_p(ours, ref) > 0.01


class TestGridEdges:
    def test_steps_not_a_multiple_of_the_coarse_step(self):
        # 37 dt steps: the last coarse step runs past t_max
        dt = 0.01
        cfg = SimConfig(n_paths=40000, dt=dt, t_max=0.37, seed=31)
        p = fht.LevyParams(1.0, 1.0)
        hits = simulate_fpt(p, cfg)
        finite = hits[np.isfinite(hits)]
        assert finite.size > 0
        assert np.array_equal(finite, np.round(finite / dt) * dt)
        assert finite.max() <= 37 * dt
        z = z_scores(p, cfg, np.array([10, 20, 30, 37]) * dt)
        assert np.max(np.abs(z)) < 3.0

    def test_hits_inside_the_first_coarse_step(self):
        dt = 1e-4
        cfg = SimConfig(n_paths=40000, dt=dt, t_max=64 * dt, seed=32)
        z = z_scores(fht.LevyParams(0.05, 1.0), cfg, np.array([4, 16, 48]) * dt)
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
