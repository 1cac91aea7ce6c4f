import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtsurv import fht
from fhtsurv.data import SurvivalData
from fhtsurv.interpret import (
    _QUERY_BLOCK,
    AxisSpec,
    _metric_coords,
    default_axes,
    idw_time,
    risk_grid,
)
from fhtsurv.training import ModelConfig, fit

import oracles


def idw_at(q, src, times):
    """The interpolated time at one point, as the 1x1 grid it spans."""
    return idw_time([q[0]], [q[1]], src, times)[0, 0]


def idw_diagonal(qs, src, times):
    """The interpolated times at the points ``qs``: the diagonal of the grid
    whose i-th x and i-th y value are those of ``qs[i]``."""
    return np.diagonal(idw_time(qs[:, 0], qs[:, 1], src, times))


class TestIdw:
    def test_single_source_everywhere(self):
        src = np.array([[1.0, 2.0]])
        times = np.array([3.5])
        for q in ([0.0, 0.0], [5.0, -2.0], [1.0, 2.0]):
            assert idw_at(q, src, times) == pytest.approx(3.5)

    def test_equidistant_pair_averages(self):
        src = np.array([[0.0, 1.0], [0.0, -1.0]])
        times = np.array([2.0, 4.0])
        assert idw_at([0.0, 0.0], src, times) == pytest.approx(3.0)

    def test_exact_match_returns_source_time(self):
        src = np.array([[1.0, 1.0], [2.0, 2.0]])
        times = np.array([5.0, 9.0])
        assert idw_at([2.0, 2.0], src, times) == pytest.approx(9.0)

    def test_matches_independent_scalar_implementation(self):
        rng = np.random.default_rng(0)
        src = rng.normal(size=(5, 2))
        times = rng.uniform(0.5, 9.0, 5)
        qs = rng.normal(size=(50, 2))
        for q, ours in zip(qs, idw_diagonal(qs, src, times)):
            ref = oracles.idw_ref(q, src, times)
            assert abs(ours - ref) < 1e-12

    def test_convex_combination(self):
        rng = np.random.default_rng(1)
        src = rng.normal(size=(20, 2))
        times = rng.uniform(1.0, 7.0, 20)
        qs = rng.normal(size=(100, 2)) * 3
        vals = idw_time(qs[:, 0], qs[:, 1], src, times)
        assert np.all(vals >= times.min() - 1e-12)
        assert np.all(vals <= times.max() + 1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        src = rng.normal(size=(9, 2))
        times = rng.uniform(1.0, 7.0, 9)
        q = rng.normal(size=(4, 2))
        a = idw_time(q[:, 0], q[:, 1], src, times)
        perm = rng.permutation(9)
        b = idw_time(q[:, 0], q[:, 1], src[perm], times[perm])
        assert np.allclose(a, b, atol=1e-12)

    def test_distance_scaling_invariance(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(7, 2))
        times = rng.uniform(1.0, 7.0, 7)
        q = rng.normal(size=(3, 2))
        base = idw_time(q[:, 0], q[:, 1], src, times)
        scaled = idw_time(17.3 * q[:, 0], 17.3 * q[:, 1], 17.3 * src, times)
        assert np.allclose(base, scaled, atol=1e-12)

    def test_memory_bounded_by_query_block(self):
        rng = np.random.default_rng(5)
        src = rng.normal(size=(1_000, 2))
        times = rng.uniform(0.5, 9.0, 1_000)
        for side in (100, 1000):
            xs, ys = rng.normal(size=side), rng.normal(size=side)
            tracemalloc.start()
            try:
                idw_time(xs, ys, src, times)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6, side

    def test_exact_hits_across_block_boundaries(self):
        rng = np.random.default_rng(6)
        n = 3 * _QUERY_BLOCK + 5
        xs, ys = rng.normal(size=n) * 2, rng.normal(size=3) * 2
        src = rng.normal(size=(40, 2))
        times = rng.uniform(0.5, 9.0, 40)
        hits = {(0, 0): 3, (_QUERY_BLOCK - 1, 1): 17, (_QUERY_BLOCK, 1): 25, (n - 1, 2): 8}
        for (col, row), k in hits.items():
            src[k] = xs[col], ys[row]
        src[39] = src[17]  # a duplicated source point
        vals = idw_time(xs, ys, src, times)
        for (col, row), k in hits.items():
            assert vals[row, col] == times[src[:, 0] == src[k, 0]].mean()
        for row in range(3):
            for col in range(n):
                ref = oracles.idw_ref([xs[col], ys[row]], src, times)
                assert abs(vals[row, col] - ref) < 1e-12

    def test_points_need_two_coordinates(self):
        with pytest.raises(ValueError, match="2 coordinates"):
            idw_time(np.zeros(4), np.zeros(3), np.ones((5, 3)), np.ones(5))

    def test_axes_must_be_vectors(self):
        with pytest.raises(ValueError, match="1-D"):
            idw_time(np.zeros((4, 2)), np.zeros(3), np.ones((5, 2)), np.ones(5))

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            idw_time(np.zeros(1), np.zeros(1), np.zeros((0, 2)), np.zeros(0))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
    def test_interpolation_bounds_property(self, n_src, seed):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(n_src, 2))
        times = rng.uniform(0.1, 10.0, n_src)
        q = rng.normal(size=2) * 2
        v = idw_at(q, src, times)
        assert times.min() - 1e-9 <= v <= times.max() + 1e-9


class TestGridMatchesPointQueries:
    """The grid evaluation reproduces the former point-query form bit for bit
    wherever the matrix-vector product ``w @ t`` sees the same rows in both:
    when every column block of the grid is a whole block of the point-query
    form (a width that is a multiple of ``_QUERY_BLOCK``), and, without exact
    hits, when both forms hand it row counts that are multiples of 4.
    OpenBLAS sums a row of its four-row kernel and a remainder row in
    different orders, so other layouts agree to a few ulps."""

    @staticmethod
    def hit_sources(rng, xs, ys, n_src=300):
        """Sources with exact hits on both sides of the first column-block
        boundary, one within 1e-13 of a grid point, and a duplicated one."""
        src = np.column_stack([rng.uniform(xs.min(), xs.max(), n_src),
                               rng.uniform(ys.min(), ys.max(), n_src)])
        src[0] = xs[_QUERY_BLOCK - 1], ys[0]
        src[1] = xs[_QUERY_BLOCK], ys[0]
        src[2] = xs[_QUERY_BLOCK], ys[-1]
        src[3] = xs[0] + 1e-13, ys[1]
        src[4] = src[1]
        return src

    @pytest.mark.parametrize("nx, ny", [(2 * _QUERY_BLOCK, 3), (3 * _QUERY_BLOCK, 7)])
    def test_linear_axes_with_hits(self, nx, ny):
        rng = np.random.default_rng(nx * 31 + ny)
        xs, ys = np.linspace(-1.0, 2.0, nx), np.linspace(0.5, 3.0, ny)
        src = self.hit_sources(rng, xs, ys)
        times = rng.uniform(0.2, 9.0, src.shape[0])
        grid = idw_time(xs, ys, src, times)
        assert np.array_equal(grid, oracles.idw_grid_points(xs, ys, src, times))
        assert grid[0, _QUERY_BLOCK - 1] == times[0]
        assert grid[0, _QUERY_BLOCK] == 0.5 * (times[1] + times[4])
        assert grid[1, 0] == times[3]

    def test_log_axis_with_hits(self):
        rng = np.random.default_rng(9)
        ax = AxisSpec("diffusion", 0.01, 40.0, "log", 2 * _QUERY_BLOCK)
        xs = ax.metric(ax.grid())
        assert np.array_equal(xs, np.log(ax.grid()))
        ys = np.linspace(0.2, 5.0, 6)
        src = self.hit_sources(rng, xs, ys)
        times = rng.uniform(0.2, 9.0, src.shape[0])
        grid = idw_time(xs, ys, src, times)
        assert np.array_equal(grid, oracles.idw_grid_points(xs, ys, src, times))
        assert grid[-1, _QUERY_BLOCK] == times[2]

    @pytest.mark.parametrize("nx, ny", [(1, 1), (8, 5), (100, 100)])
    def test_small_grids(self, nx, ny):
        rng = np.random.default_rng(nx + ny)
        xs, ys = rng.normal(size=nx), rng.normal(size=ny)
        src = rng.normal(size=(50, 2))
        times = rng.uniform(0.2, 9.0, 50)
        grid = idw_time(xs, ys, src, times)
        assert np.array_equal(grid, oracles.idw_grid_points(xs, ys, src, times))

    @pytest.mark.parametrize("nx, ny", [(_QUERY_BLOCK + 1, 3), (2 * _QUERY_BLOCK + 5, 4)])
    def test_other_layouts_agree_to_a_few_ulps(self, nx, ny):
        rng = np.random.default_rng(nx * 31 + ny)
        xs, ys = np.linspace(-1.0, 2.0, nx), np.linspace(0.5, 3.0, ny)
        src = self.hit_sources(rng, xs, ys)
        times = rng.uniform(0.2, 9.0, src.shape[0])
        grid = idw_time(xs, ys, src, times)
        ref = oracles.idw_grid_points(xs, ys, src, times)
        assert np.all(np.abs(grid - ref) <= 8 * np.spacing(ref))
        assert grid[0, _QUERY_BLOCK] == ref[0, _QUERY_BLOCK] == 0.5 * (times[1] + times[4])

    @pytest.mark.parametrize("kind", [fht.DistKind.LEVY, fht.DistKind.INVERSE_GAUSSIAN])
    @pytest.mark.parametrize("resolution", [8, 100, 200])
    def test_risk_grid(self, kind, resolution):
        model, data = tiny_model(kind)
        rmap = risk_grid(model, data, resolution=resolution)
        assert np.array_equal(rmap.grid, oracles.risk_grid_points(model, data, resolution))


class TestAxes:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            AxisSpec("x", 1.0, 1.0)
        with pytest.raises(ValueError):
            AxisSpec("x", -1.0, 2.0, "log")
        with pytest.raises(ValueError):
            AxisSpec("x", 0.0, 1.0, "weird")

    def test_log_axis_grid(self):
        ax = AxisSpec("d", 0.01, 100.0, "log", 5)
        assert np.allclose(ax.grid(), [0.01, 0.1, 1.0, 10.0, 100.0])

    def test_default_axes_enclose_small_samples(self):
        rng = np.random.default_rng(4)
        params = np.column_stack([rng.uniform(0.5, 3, 60), rng.uniform(0.2, 2, 60)])
        axes = default_axes(fht.DistKind.LEVY, params)
        assert axes[0].lo < params[:, 0].min() and axes[0].hi > params[:, 0].max()
        assert axes[1].lo < params[:, 1].min() and axes[1].hi > params[:, 1].max()
        assert axes[1].scale == "log"
        ig_axes = default_axes(fht.DistKind.INVERSE_GAUSSIAN, np.column_stack([params[:, 0], -params[:, 1]]))
        assert ig_axes[1].scale == "linear"


def tiny_model(kind=fht.DistKind.LEVY, n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    t = np.exp(0.5 * x[:, 0]) * rng.exponential(1.0, n) + 0.01
    delta = (rng.random(n) > 0.2).astype(int)
    data = SurvivalData(x, t, delta, ["a", "b", "c"])
    model = fit(data, ModelConfig(kind.value, (6,), 3, 32, 0.01), seed=1)
    return model, data


class TestRiskGrid:
    def test_grid_values_within_source_times(self):
        model, data = tiny_model()
        rmap = risk_grid(model, data, resolution=16)
        src_times = data.time[data.delta == 1]
        assert rmap.grid.shape == (16, 16)
        assert rmap.grid.min() >= src_times.min() - 1e-9
        assert rmap.grid.max() <= src_times.max() + 1e-9
        assert rmap.n_sources == int((data.delta == 1).sum())

    def test_cell_at_source_point_equals_its_time(self):
        model, data = tiny_model()
        params = model.params_for(data.x)
        unc = np.flatnonzero(data.delta == 1)
        j = unc[0]
        axes = default_axes(model.kind, params, resolution=8)
        q = _metric_coords(params[j : j + 1], axes)[0]
        src = _metric_coords(params[unc], axes)
        assert idw_at(q, src, data.time[unc]) == pytest.approx(float(data.time[j]))

    def test_overlay_defaults_to_training_records(self):
        model, data = tiny_model()
        rmap = risk_grid(model, data, resolution=8)
        assert rmap.overlay_params.shape == (len(data), 2)
        assert np.array_equal(rmap.overlay_delta, data.delta)

    def test_requires_uncensored_source(self):
        model, data = tiny_model()
        data.delta[:] = 0
        with pytest.raises(ValueError):
            risk_grid(model, data, resolution=8)

    def test_csv_export(self, tmp_path):
        model, data = tiny_model()
        rmap = risk_grid(model, data, resolution=8)
        gpath = tmp_path / "grid.csv"
        opath = tmp_path / "overlay.csv"
        rmap.write_csv(str(gpath), str(opath))
        lines = gpath.read_text().splitlines()
        assert lines[0].startswith("# x_axis:")
        assert lines[3].split(",") == ["x0", "diffusion", "time"]
        assert len(lines) == 4 + 64
        olines = opath.read_text().splitlines()
        assert olines[0].split(",") == ["x0", "diffusion", "time", "event"]
        assert len(olines) == 1 + len(data)

    def test_nonph_parameter_cloud_spreads(self):
        # the synthetic benchmark should not collapse onto a line in
        # parameter space: leading principal component explains < 99%
        from fhtsurv.data import NonPhConfig, generate_nonph, stratified_split_indices

        data = generate_nonph(NonPhConfig(seed=21, n_raw=2000, n_keep=800))
        train_idx, test_idx = stratified_split_indices(data.delta, 0.2, seed=0)
        train, test = data[train_idx], data[test_idx]
        model = fit(train, ModelConfig("levy", (16, 16), 60, 256, 0.0039), seed=2)
        params = model.params_for(test.x)
        coords = np.column_stack([params[:, 0], np.log(params[:, 1])])
        coords -= coords.mean(axis=0)
        cov = np.cov(coords.T)
        eig = np.sort(np.linalg.eigvalsh(cov))
        assert eig[-1] / eig.sum() < 0.99
