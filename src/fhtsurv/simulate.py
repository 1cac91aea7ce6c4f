"""Monte Carlo first-passage simulator used as an empirical oracle.

The latent process ``dX = mu dt + sqrt(2 D) dW`` starts at ``x0 > 0`` and is
absorbed at zero.  Hit times are multiples of ``dt``: a path is absorbed in
the first ``dt`` step whose end is at or below zero or, with the
Brownian-bridge correction, in the first ``dt`` step in which the continuous
path crosses zero.  Given step ends ``a, b > 0`` that has probability
``exp(-a b / (D dt))``, which is exact for arithmetic Brownian motion, so
bridge-corrected hit times have the law of ``ceil(tau / dt) dt`` for the
continuous first-passage time ``tau``.

Paths are not stepped per ``dt``.  They move on a coarse grid of
``2**_COARSE_LOG2`` ``dt`` steps by exact Gaussian transitions, and a coarse
step from ``a`` to ``b`` over time ``h`` is refined only where its own
crossing probability ``exp(-a b / (D h))`` is at least ``exp(-40)``
(``a b < 40 D h``, which includes ``b <= 0``), up to the path's first coarse
point at or below zero.  Refinement fills in the ``dt`` points by dyadic
Brownian-bridge midpoints (a sub-interval of length ``h`` gets mean
``(left + right) / 2`` and variance ``D h / 2``) and applies the per-``dt``
test above; the hit is the first crossing in the earliest crossed coarse
step.  A ``dt`` point at or below zero implies a crossing of the continuous
path, so the steps left coarse hide a hit with probability below
``exp(-40)`` in either mode (P. Glasserman, *Monte Carlo Methods in
Financial Engineering*, 2004, section 3.1; A. Beskos and G. O. Roberts,
*Exact simulation of diffusions*, Ann. Appl. Probab. 15, 2005).

Paths are split into fixed-size blocks, each driven by its own spawned RNG
substream, so results are bit-identical for a given seed regardless of how
many worker processes are used.  Within a block the coarse walk is advanced
in vectorized chunks of steps; absorbed paths are compacted away between
chunks.  Gaussian increments use float32 (positions stay float64), whose
rounding is orders of magnitude below Monte Carlo noise.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import multiprocessing
import numpy as np

from .fht import DistKind, coefficients

_BLOCK_PATHS = 8192
# coarse steps per vectorized chunk
_CHUNK_STEPS = 256
# a coarse step spans 2**_COARSE_LOG2 dt steps
_COARSE_LOG2 = 5
_FINE_STEPS = 1 << _COARSE_LOG2
# Coarse steps refined per batch; bounds the fine-path arrays to a few MB.
_REFINE_STEPS = 8192
# A step from a to b over time h crosses zero with probability
# exp(-a b / (D h)), below exp(-40) ~ 4e-18 where a*b >= 40*D*h; only steps
# under that bound are refined or given an exponential deviate.
_BRIDGE_LOG_BOUND = 40.0


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt: float = 1e-4
    t_max: float = 10.0
    seed: int = 0
    bridge_correction: bool = True
    n_jobs: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise ValueError("dt must be finite and > 0")
        if not (self.t_max > 0.0 and np.isfinite(self.t_max)):
            raise ValueError("t_max must be finite and > 0")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")


@dataclass(frozen=True)
class FptSamples:
    """Per-path hitting times; ``inf`` marks paths alive at ``t_max``."""

    hit_times: np.ndarray
    t_max: float

    @property
    def n_paths(self):
        return self.hit_times.size


def _first_fine_crossings(rng, left, right, diff, dt, bridge):
    """Refine coarse steps from ``left`` to ``right`` (> 0) onto the dt grid.

    The interior dt points are drawn as dyadic Brownian-bridge midpoints, and
    the per-dt crossing test is then applied to the fine path.  Returns, per
    coarse step, the 1-based index of its first crossed dt step, 0 if none.
    """
    first = np.zeros(left.size, dtype=np.int64)
    scale = diff * dt
    for lo in range(0, left.size, _REFINE_STEPS):
        hi = min(lo + _REFINE_STEPS, left.size)
        # one column per coarse step, one row per dt point
        fine = np.empty((_FINE_STEPS + 1, hi - lo))
        fine[0] = left[lo:hi]
        fine[-1] = right[lo:hi]
        h = _FINE_STEPS
        while h > 1:
            # midpoint of a sub-interval of h dt steps: mean of its ends,
            # variance D h dt / 2
            mid = fine[h // 2 :: h]
            np.add(fine[:-1:h], fine[h::h], out=mid)
            mid *= 0.5
            noise = rng.standard_normal(mid.shape, dtype=np.float32)
            noise *= np.float32(np.sqrt(scale * h / 2.0))
            mid += noise
            h //= 2
        if bridge:
            ab = fine[:-1] * fine[1:]
            mask = ab < _BRIDGE_LOG_BOUND * scale
            crossed = np.zeros_like(mask)
            # "<=" so that a step ending at or below zero always crosses
            crossed[mask] = ab[mask] <= scale * rng.standard_exponential(np.count_nonzero(mask))
        else:
            crossed = fine[1:] <= 0.0
        first[lo:hi] = np.where(crossed.any(axis=0), crossed.argmax(axis=0) + 1, 0)
    return first


def _run_block(args):
    """Simulate one block of paths; returns hit times with inf for survivors."""
    n_block, x0, mu, diff, dt, n_steps, bridge, seed_seq = args
    rng = np.random.Generator(np.random.Philox(seed_seq))
    span = _FINE_STEPS * dt
    sigma = np.sqrt(2.0 * diff * span)
    # drift of the coarse walk in standard-normal units
    ramp = (mu * span / sigma * np.arange(1, _CHUNK_STEPS + 1)).astype(np.float32)
    thresh = _BRIDGE_LOG_BOUND * diff * span
    # a coarse step needs refining only if one of its ends lies below this
    level = np.sqrt(thresh)
    n_coarse = -(-n_steps // _FINE_STEPS)

    hit = np.full(n_block, np.inf)
    alive_idx = np.arange(n_block)
    pos = np.full(n_block, x0, dtype=np.float64)
    buf = np.empty(n_block * _CHUNK_STEPS, dtype=np.float32)
    step = 0
    while step < n_coarse and alive_idx.size:
        k = min(_CHUNK_STEPS, n_coarse - step)
        n_alive = alive_idx.size
        # Coarse positions are pos + sigma * walk; only rows that come near
        # the barrier are ever reconstructed in process units.
        walk = buf[: n_alive * k].reshape(n_alive, k)
        rng.standard_normal(dtype=np.float32, out=walk)
        np.cumsum(walk, axis=1, out=walk)
        if mu != 0.0:
            walk += ramp[:k]
        low = pos + sigma * np.minimum(walk.min(axis=1), 0.0).astype(np.float64)
        sub = np.flatnonzero(low < level)
        keep = np.ones(n_alive, dtype=bool)
        if sub.size:
            pts = np.empty((sub.size, k + 1))
            pts[:, 0] = pos[sub]
            ends = pts[:, 1:]
            ends[:] = walk[sub]
            ends *= sigma
            ends += pos[sub, None]
            refine = pts[:, :-1] * ends < thresh
            # a row has crossed by its first end at or below zero
            refine[:, 1:] &= ~np.logical_or.accumulate(ends[:, :-1] <= 0.0, axis=1)
            row, col = np.nonzero(refine)
            first = _first_fine_crossings(rng, pts[row, col], ends[row, col], diff, dt, bridge)
            crossed = first > 0
            row, col, first = row[crossed], col[crossed], first[crossed]
            # the earliest crossed coarse step of each row
            rows, at = np.unique(row, return_index=True)
            fine_step = (step + col[at]) * _FINE_STEPS + first[at]
            dead = sub[rows]
            inside = fine_step <= n_steps
            hit[alive_idx[dead[inside]]] = fine_step[inside] * dt
            keep[dead] = False
        alive_idx = alive_idx[keep]
        pos = pos[keep] + sigma * walk[keep, -1].astype(np.float64)
        step += k
    return hit


def _block_tasks(kind, params, cfg):
    x0, mu, diff = map(float, coefficients(kind, params))
    n_steps = int(np.ceil(cfg.t_max / cfg.dt - 1e-9))
    root = np.random.SeedSequence(cfg.seed)
    n_blocks = (cfg.n_paths + _BLOCK_PATHS - 1) // _BLOCK_PATHS
    tasks = []
    remaining = cfg.n_paths
    for child in root.spawn(n_blocks):
        nb = min(_BLOCK_PATHS, remaining)
        remaining -= nb
        tasks.append((nb, x0, mu, diff, cfg.dt, n_steps, cfg.bridge_correction, child))
    return tasks


def _run_tasks(tasks, n_jobs):
    if n_jobs > 1 and len(tasks) > 1:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=n_jobs, mp_context=ctx) as pool:
            return list(pool.map(_run_block, tasks))
    return [_run_block(t) for t in tasks]


def simulate_fpt(kind: DistKind, params, cfg: SimConfig) -> FptSamples:
    """Sample first-passage times for every path under the given config."""
    parts = _run_tasks(_block_tasks(kind, params, cfg), cfg.n_jobs)
    return FptSamples(hit_times=np.concatenate(parts), t_max=cfg.t_max)


def simulate_many(runs, n_jobs=1):
    """Run several (kind, params, cfg) simulations on one worker pool.

    Results are identical to calling :func:`simulate_fpt` per run; pooling
    the blocks just avoids idle workers between runs.
    """
    all_tasks = []
    bounds = []
    for kind, params, cfg in runs:
        tasks = _block_tasks(kind, params, cfg)
        bounds.append((len(all_tasks), len(all_tasks) + len(tasks)))
        all_tasks.extend(tasks)
    parts = _run_tasks(all_tasks, n_jobs)
    return [
        FptSamples(hit_times=np.concatenate(parts[lo:hi]), t_max=cfg.t_max)
        for (lo, hi), (_, _, cfg) in zip(bounds, runs)
    ]


def empirical_survival(samples: FptSamples, t_grid) -> np.ndarray:
    """Fraction of paths with hitting time strictly beyond each grid time."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    if samples.hit_times.size == 0:
        raise ValueError("no samples")
    finite_sorted = np.sort(samples.hit_times)
    n = samples.hit_times.size
    counts = np.searchsorted(finite_sorted, t_grid, side="right")
    return 1.0 - counts / n


def write_samples_csv(samples: FptSamples, path):
    """Single-column dump; survivors are written as the string 'inf'."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("hit_time\n")
        for v in samples.hit_times:
            fh.write(("inf" if np.isinf(v) else repr(float(v))) + "\n")
