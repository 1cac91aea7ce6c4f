"""Parameter-space risk maps via inverse-distance-weighted event times.

Every trained subject with an observed event is a point in the model's
two-dimensional parameter space; a query point's interpolated event time is

    T(p) = sum_i w_i T_i / sum_i w_i,   w_i = 1 / sqrt(d(p, p_i)),

a convex combination of the source times that acts as a risk proxy across
the whole plane.  A query closer than 1e-12 to a source takes that source's
time (the formula's limit), or the mean time of the sources it coincides
with.

The queries of a map form the product grid of its two axes, and the grid
is evaluated as such, in column blocks of at most ``_QUERY_BLOCK`` x
values.  A block's squared x offsets to every source are formed once; each
grid row then adds its source-length squared y offsets into one reused
(block x sources) buffer, so a squared distance is the same sum of two
squares as for a lone point, and the working memory is O(block x sources)
float64 values however large the grid; no per-point coordinates or
(queries x sources) difference arrays are formed.

Distances are Euclidean in the coordinates of the map's axes.  The second
parameter axis is on log scale where the parameter struct's
``second_log_axis`` says so (the driftless kind's diffusion, whose learned
range spans decades); otherwise both axes are raw.

The driftless law depends on ``(x0, D)`` only through ``x0^2/D``, so Levy
risk is constant along every curve of constant ``x0^2/D`` (a straight line
of slope 2 in ``(log x0, log D)``); subjects spread along such a curve
differ in their parameters but not in their predicted survival.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fht import DistKind, param_names, params_class

EXACT_MATCH_DIST = 1e-12
_QUERY_BLOCK = 128


def idw_time(xs, ys, source_params, source_times):
    """Interpolated event times over the product grid of ``xs`` and ``ys``
    (convex in the source times), with Euclidean distances between the given
    coordinates; ``grid[i, j]`` is the time at ``(xs[j], ys[i])``.

    The grid is evaluated in column blocks of at most ``_QUERY_BLOCK`` x
    values.  A block's squared x offsets ``(x - sx)^2`` are formed once, and
    each grid row adds its source-length ``(y - sy)^2`` into one reused
    ``(block, sources)`` buffer, so the working memory is that buffer, the
    block's x offsets and the weights, whatever the size of the grid.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    source_params = np.atleast_2d(np.asarray(source_params, dtype=np.float64))
    source_times = np.asarray(source_times, dtype=np.float64)
    if xs.ndim != 1 or ys.ndim != 1:
        raise ValueError("grid axes must be 1-D arrays of coordinates")
    if source_params.shape[0] == 0:
        raise ValueError("source set is empty")
    if source_params.shape[1] != 2:
        raise ValueError("source points need 2 coordinates each")
    if not np.all(source_times > 0.0):
        raise ValueError("source times must be > 0")
    out = np.empty((ys.size, xs.size))
    buf = np.empty((min(xs.size, _QUERY_BLOCK), source_params.shape[0]))
    for start in range(0, xs.size, _QUERY_BLOCK):
        dx = xs[start : start + _QUERY_BLOCK, None] - source_params[:, 0]
        dx *= dx
        sq = buf[: dx.shape[0]]
        for y, row in zip(ys, out[:, start : start + _QUERY_BLOCK]):
            dy = y - source_params[:, 1]
            dy *= dy
            dist = np.sqrt(np.add(dx, dy, out=sq), out=sq)
            hit = dist.min(axis=1) < EXACT_MATCH_DIST
            for i in np.flatnonzero(hit):
                row[i] = source_times[dist[i] < EXACT_MATCH_DIST].mean()
            w = dist[~hit] if hit.any() else dist
            np.sqrt(w, out=w)
            np.divide(1.0, w, out=w)
            row[~hit] = (w @ source_times) / w.sum(axis=1)
    return out


@dataclass(frozen=True)
class AxisSpec:
    name: str
    lo: float
    hi: float
    scale: str = "linear"  # or "log"
    resolution: int = 200

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("axis needs hi > lo")
        if self.scale not in ("linear", "log"):
            raise ValueError("scale must be 'linear' or 'log'")
        if self.scale == "log" and self.lo <= 0.0:
            raise ValueError("log axis needs lo > 0")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.resolution)
        return np.linspace(self.lo, self.hi, self.resolution)

    def metric(self, values) -> np.ndarray:
        """``values`` in the coordinate distances are measured in: their log
        on a log axis."""
        return np.log(values) if self.scale == "log" else values


def _num(v) -> str:
    """Shortest text that round-trips a float, also for numpy scalars
    (whose own repr is ``np.float64(...)`` under numpy 2)."""
    return repr(float(v))


@dataclass
class RiskMap:
    """Interpolated event-time grid plus the subject overlay used to build it."""

    x_axis: AxisSpec
    y_axis: AxisSpec
    grid: np.ndarray  # (y_resolution, x_resolution)
    n_sources: int
    overlay_params: np.ndarray  # (n, 2) raw parameter coordinates
    overlay_times: np.ndarray
    overlay_delta: np.ndarray

    def write_csv(self, grid_path, overlay_path) -> None:
        xg, yg = self.x_axis.grid(), self.y_axis.grid()
        with open(grid_path, "w", encoding="utf-8") as fh:
            for ax, nm in ((self.x_axis, "x_axis"), (self.y_axis, "y_axis")):
                fh.write(
                    f"# {nm}: name={ax.name} scale={ax.scale} "
                    f"min={_num(ax.lo)} max={_num(ax.hi)} resolution={ax.resolution}\n"
                )
            fh.write(f"# n_sources: {self.n_sources}\n")
            fh.write(f"{self.x_axis.name},{self.y_axis.name},time\n")
            for iy, yv in enumerate(yg):
                for ix, xv in enumerate(xg):
                    fh.write(f"{_num(xv)},{_num(yv)},{_num(self.grid[iy, ix])}\n")
        with open(overlay_path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.x_axis.name},{self.y_axis.name},time,event\n")
            for (px, py), t, d in zip(self.overlay_params, self.overlay_times, self.overlay_delta):
                fh.write(f"{_num(px)},{_num(py)},{_num(t)},{int(d)}\n")


def default_axes(kind: DistKind, params: np.ndarray, resolution=200):
    """Axes spanning the 1st-99th percentile of the parameters, padded 10%,
    then widened if needed so every training point lies inside the grid.

    The second axis is on log scale where the kind's ``second_log_axis``
    says so.
    """
    log_second = params_class(kind).second_log_axis
    axes = []
    for j, name in enumerate(param_names(kind)):
        col = params[:, j]
        log_axis = j == 1 and log_second
        if log_axis:
            col = np.log(col)
        lo, hi = np.percentile(col, [1.0, 99.0])
        pad = 0.1 * max(hi - lo, 1e-12)
        lo = min(lo - pad, float(col.min()) - 1e-12)
        hi = max(hi + pad, float(col.max()) + 1e-12)
        if log_axis:
            axes.append(AxisSpec(name, float(np.exp(lo)), float(np.exp(hi)), "log", resolution))
        else:
            axes.append(AxisSpec(name, float(lo), float(hi), "linear", resolution))
    return tuple(axes)


def _metric_coords(points: np.ndarray, axes) -> np.ndarray:
    return np.stack([ax.metric(points[:, j]) for j, ax in enumerate(axes)], axis=1)


def risk_grid(model, train_data, resolution=200, overlay_data=None) -> RiskMap:
    """Interpolated event-time map over the model's parameter plane.

    Sources are the uncensored training subjects' predicted parameters and
    observed times; the overlay lists every subject of ``overlay_data``
    (default: the training data) for external plotting.
    """
    params = model.params_for(train_data.x)
    uncensored = train_data.delta == 1
    if not uncensored.any():
        raise ValueError("need at least one uncensored training record")
    axes = default_axes(model.kind, params, resolution=resolution)
    x_axis, y_axis = axes
    grid = idw_time(x_axis.metric(x_axis.grid()), y_axis.metric(y_axis.grid()),
                    _metric_coords(params[uncensored], axes), train_data.time[uncensored])

    if overlay_data is None:
        overlay_params, overlay_times, overlay_delta = params, train_data.time, train_data.delta
    else:
        overlay_params = model.params_for(overlay_data.x)
        overlay_times, overlay_delta = overlay_data.time, overlay_data.delta
    return RiskMap(
        x_axis=x_axis,
        y_axis=y_axis,
        grid=grid,
        n_sources=int(uncensored.sum()),
        overlay_params=overlay_params,
        overlay_times=overlay_times,
        overlay_delta=overlay_delta,
    )
