"""Parameter-space risk maps via inverse-distance-weighted event times.

Every trained subject with an observed event is a point in the model's
two-dimensional parameter space; a query point's interpolated event time is

    T(p) = sum_i w_i T_i / sum_i w_i,   w_i = 1 / sqrt(d(p, p_i)),

a convex combination of the source times that acts as a risk proxy across
the whole plane.  A query closer than 1e-12 to a source takes that source's
time (the formula's limit), or the mean time of the sources it coincides
with.

Queries are evaluated in fixed blocks of ``_QUERY_BLOCK`` rows, one
coordinate at a time, so the working memory is O(block x sources) float64
values however many queries a map has; no (queries x sources x 2)
difference array is formed.

Distances are Euclidean in the coordinates of the map's axes.  The second
parameter axis is on log scale for the driftless kind (its learned range
spans decades) and both axes are raw for the drifted kind.

The driftless law depends on ``(x0, D)`` only through ``x0^2/D``, so Levy
risk is constant along every curve of constant ``x0^2/D`` (a straight line
of slope 2 in ``(log x0, log D)``); subjects spread along such a curve
differ in their parameters but not in their predicted survival.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fht import DistKind, param_names

EXACT_MATCH_DIST = 1e-12
_QUERY_BLOCK = 128


def idw_time(query, source_params, source_times):
    """Interpolate event times at query points (convex in the source times),
    with Euclidean distances between the given coordinates.

    Queries are evaluated ``_QUERY_BLOCK`` rows at a time, so the working
    memory is one ``(block, sources)`` array of squared distances and its
    weights whatever the number of queries.
    """
    source_params = np.atleast_2d(np.asarray(source_params, dtype=np.float64))
    source_times = np.asarray(source_times, dtype=np.float64)
    if source_params.shape[0] == 0:
        raise ValueError("source set is empty")
    if not np.all(source_times > 0.0):
        raise ValueError("source times must be > 0")
    query = np.asarray(query, dtype=np.float64)
    scalar = query.ndim == 1
    queries = np.atleast_2d(query)
    if queries.shape[1] != 2 or source_params.shape[1] != 2:
        raise ValueError("query and source points need 2 coordinates each")
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], _QUERY_BLOCK):
        q = queries[start : start + _QUERY_BLOCK]
        block = out[start : start + _QUERY_BLOCK]
        sq = q[:, 0:1] - source_params[:, 0]
        sq *= sq
        dy = q[:, 1:2] - source_params[:, 1]
        dy *= dy
        sq += dy
        dist = np.sqrt(sq, out=sq)
        hit = dist.min(axis=1) < EXACT_MATCH_DIST
        for i in np.flatnonzero(hit):
            block[i] = source_times[dist[i] < EXACT_MATCH_DIST].mean()
        w = dist[~hit] if hit.any() else dist
        np.sqrt(w, out=w)
        np.divide(1.0, w, out=w)
        block[~hit] = (w @ source_times) / w.sum(axis=1)
    return float(out[0]) if scalar else out


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

    def write_csv(self, grid_path, overlay_path=None) -> None:
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
        if overlay_path is not None:
            with open(overlay_path, "w", encoding="utf-8") as fh:
                fh.write(f"{self.x_axis.name},{self.y_axis.name},time,event\n")
                for (px, py), t, d in zip(
                    self.overlay_params, self.overlay_times, self.overlay_delta
                ):
                    fh.write(f"{_num(px)},{_num(py)},{_num(t)},{int(d)}\n")


def default_axes(kind: DistKind, params: np.ndarray, resolution=200):
    """Axes spanning the 1st-99th percentile of the parameters, padded 10%,
    then widened if needed so every training point lies inside the grid.

    The second axis is on log scale for the driftless kind.
    """
    axes = []
    for j, name in enumerate(param_names(kind)):
        col = params[:, j]
        log_axis = j == 1 and kind == DistKind.LEVY
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
    cols = []
    for j, ax in enumerate(axes):
        col = points[:, j]
        cols.append(np.log(col) if ax.scale == "log" else col)
    return np.stack(cols, axis=1)


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
    qx, qy = np.meshgrid(x_axis.grid(), y_axis.grid())
    queries = _metric_coords(np.stack([qx.ravel(), qy.ravel()], axis=1), axes)
    src_coords = _metric_coords(params[uncensored], axes)
    grid = idw_time(queries, src_coords, train_data.time[uncensored]).reshape(qx.shape)

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
