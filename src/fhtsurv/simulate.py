"""Monte Carlo first-passage simulator used as an empirical oracle.

Paths follow the Euler-Maruyama update ``X_{k+1} = X_k + mu dt +
sqrt(2 D dt) xi`` and are absorbed at the first step whose endpoint is at or
below zero.  Optionally a Brownian-bridge correction also absorbs paths that
dip below zero inside a step: conditional on endpoints ``a, b > 0`` the
within-step crossing probability is ``exp(-a b / (D dt))``, which for the
Gaussian transition of (arithmetic) Brownian motion is exact.

Paths are split into fixed-size blocks, each driven by its own spawned RNG
substream, so results are bit-identical for a given seed regardless of how
many worker processes are used.  Within a block the walk is advanced in
vectorized chunks of steps; absorbed paths are compacted away between
chunks.  Increments use float32 (the carry between chunks stays float64),
whose rounding is orders of magnitude below Monte Carlo noise.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import multiprocessing
import numpy as np

from .fht import DistKind, coefficients

_BLOCK_PATHS = 8192
_CHUNK_STEPS = 256
# Bridge crossings with a*b > 40*D*dt have probability < exp(-40) ~ 4e-18;
# exponential deviates are only drawn where the product is below this bound.
_BRIDGE_LOG_BOUND = 40.0


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt: float = 1e-4
    t_max: float = 10.0
    seed: int = 0
    bridge_correction: bool = False
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


def _run_block(args):
    """Simulate one block of paths; returns hit times with inf for survivors."""
    n_block, x0, mu, diff, dt, n_steps, bridge, seed_seq = args
    rng = np.random.Generator(np.random.Philox(seed_seq))
    sigma = np.sqrt(2.0 * diff * dt)
    bridge_scale = diff * dt
    thresh = _BRIDGE_LOG_BOUND * bridge_scale
    # A path whose previous position and whole chunk stay above this level
    # cannot produce any pair product below thresh, so it needs no bridge
    # checks.  Bridge off: crossing requires the path to reach zero.  The
    # small margin absorbs float32 rounding so the prefilter stays a
    # superset of the rows that could possibly cross.
    guard = np.sqrt(thresh) + 1e-4 if bridge else 1e-4

    hit = np.full(n_block, np.inf)
    alive_idx = np.arange(n_block)
    pos = np.full(n_block, x0, dtype=np.float64)
    buf = np.empty(n_block * _CHUNK_STEPS, dtype=np.float32)
    step = 0
    while step < n_steps and alive_idx.size:
        k = min(_CHUNK_STEPS, n_steps - step)
        n_alive = alive_idx.size
        # The walk is accumulated in standard-normal units; positions are
        # pos + sigma * walk + mu * dt * step.  Only candidate rows are ever
        # reconstructed in process units.
        walk = buf[: n_alive * k].reshape(n_alive, k)
        rng.standard_normal(dtype=np.float32, out=walk)
        np.cumsum(walk, axis=1, out=walk)
        drift_floor = min(mu * dt * k, 0.0)
        floor = pos + sigma * walk.min(axis=1).astype(np.float64) + drift_floor
        cand = (floor < guard) | (pos < guard)

        absorbed_rows = np.zeros(n_alive, dtype=bool)
        first_step = np.zeros(n_alive, dtype=np.int64)
        if cand.any():
            sub = np.flatnonzero(cand)
            p_sub = sigma * walk[sub].astype(np.float64)
            p_sub += pos[sub, None]
            if mu != 0.0:
                p_sub += mu * dt * np.arange(1, k + 1)
            if bridge:
                ab = np.empty_like(p_sub)
                ab[:, 0] = pos[sub] * p_sub[:, 0]
                np.multiply(p_sub[:, :-1], p_sub[:, 1:], out=ab[:, 1:])
                mask = ab < thresh
                crossed = np.zeros_like(mask)
                n_draw = int(mask.sum())
                if n_draw:
                    exp_draws = rng.standard_exponential(n_draw)
                    crossed[mask] = ab[mask] < bridge_scale * exp_draws
            else:
                crossed = p_sub <= 0.0
            row_hit = crossed.any(axis=1)
            absorbed_rows[sub] = row_hit
            first_step[sub] = crossed.argmax(axis=1)

        if absorbed_rows.any():
            rows = np.flatnonzero(absorbed_rows)
            hit[alive_idx[rows]] = (step + first_step[rows] + 1) * dt
            keep = ~absorbed_rows
            alive_idx = alive_idx[keep]
            pos = pos[keep] + sigma * walk[keep, -1].astype(np.float64) + mu * dt * k
        else:
            pos += sigma * walk[:, -1].astype(np.float64) + mu * dt * k
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
