"""Monte Carlo first-passage simulator used as an empirical oracle.

The latent process ``dX = mu dt + sqrt(2 D) dW`` starts at ``x0 > 0`` and is
absorbed at zero.  Hit times are multiples of ``dt``.  With the
Brownian-bridge correction a path is absorbed in the ``dt`` step in which the
continuous path first reaches zero, so hit times have the law of
``ceil(tau / dt) dt`` for the continuous first-passage time ``tau``; without
it, at the first point of the ``dt`` grid at or below zero.  ``(x0, mu, D)``
are the ``coefficients()`` of the parameter struct passed to
``simulate_fpt``.

Paths are not stepped per ``dt``.  They move on a coarse grid by exact
Gaussian transitions, and only coarse steps from ``a`` to ``b`` over time
``h`` whose crossing probability ``exp(-a b / (D h))`` is at least
``exp(-40)`` (``a b < 40 D h``, which includes ``b <= 0``) are examined, up
to the path's first coarse point at or below zero.  The steps left out hide
a hit with probability below ``exp(-40)`` in either mode.

With the bridge correction a coarse step spans ``2**_BRIDGE_LOG2`` ``dt``
steps and both questions about it are answered exactly (P. Glasserman,
*Monte Carlo Methods in Financial Engineering*, 2004, section 3.1;
A. Beskos and G. O. Roberts, *Exact simulation of diffusions*, Ann. Appl.
Probab. 15, 2005).  Given its ends, the path inside a step is a Brownian
bridge, whatever the drift, so it crosses zero with probability
``exp(-a b / (D h))`` for ``b > 0``: the test is ``a b <= D h E`` with
``E ~ Exp(1)``, which an end ``b <= 0`` always passes.  By the reflection
principle the first-passage density from ``a`` is ``a (4 pi D s**3)**-1/2
exp(-a**2 / (4 D s))``, and dividing its product with the free density from
zero to ``b`` by the bridge density gives the law of the hit time ``s`` of a
crossing step::

    p(s) ~ s**-3/2 (h - s)**-1/2 exp(-a**2 / (4 D s) - b**2 / (4 D (h - s)))

With ``x = s / (h - s)`` this is ``x**-3/2 exp(-a**2 / (4 D h x) - b**2 x /
(4 D h))``, the inverse Gaussian law ``Wald(a / |b|, a**2 / (2 D h))``, which
tends to ``a**2 / (2 D h) / Z**2`` for standard normal ``Z`` as ``b -> 0``.
So ``s = h x / (1 + x)`` is drawn directly, and the hit is the ``dt`` step
``ceil(s / dt)``.  A step then costs the same whatever its length.

Without the correction the hit is the first ``dt`` point at or below zero,
whose law given the step's ends has no closed form, so a coarse step spans
``2**_COARSE_LOG2`` ``dt`` steps and each examined one is refined: its
``dt`` points are filled in by dyadic Brownian-bridge midpoints (a
sub-interval of length ``h`` gets mean ``(left + right) / 2`` and variance
``D h / 2``).  In either mode the hit lies in the earliest crossed coarse
step.

Paths are split into fixed-size blocks, each driven by its own spawned RNG
substream.  ``simulate_fpt`` runs the blocks of one setting on
``SimConfig.n_jobs`` worker threads, and its result is bit-identical for a
given seed whatever that number.  Threads suffice because a block's work is
numpy's RNG fills and array passes, which release the interpreter lock, so
no process is forked and nothing is pickled.  Within a block the coarse walk
is advanced in vectorized chunks of steps; absorbed paths are compacted away
between chunks.  Gaussian increments use float32 (positions stay float64),
whose rounding is orders of magnitude below Monte Carlo noise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

_BLOCK_PATHS = 8192
# coarse steps per vectorized chunk
_CHUNK_STEPS = 256
# A coarse step spans 2**_COARSE_LOG2 dt steps without the bridge correction,
# where each refined one costs a normal per dt point, and 2**_BRIDGE_LOG2 with
# it, where a step costs the same whatever its length (ROADMAP's Baseline has
# the timings that chose 2**11).
_COARSE_LOG2 = 5
_FINE_STEPS = 1 << _COARSE_LOG2
_BRIDGE_LOG2 = 11
_BRIDGE_STEPS = 1 << _BRIDGE_LOG2
# Coarse steps refined per batch; bounds the fine-path arrays to a few MB.
_REFINE_STEPS = 8192
# A step from a to b over time h crosses zero with probability
# exp(-a b / (D h)), below exp(-40) ~ 4e-18 where a*b >= 40*D*h; only steps
# under that bound are refined or bridge-tested.
_BRIDGE_LOG_BOUND = 40.0


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt: float = 1e-4
    t_max: float = 5.0
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


def _first_fine_crossings(rng, left, right, diff, dt):
    """Refine coarse steps from ``left`` to ``right`` (> 0) onto the dt grid.

    The interior dt points are drawn as dyadic Brownian-bridge midpoints.
    Returns, per coarse step, the 1-based index of its first dt point at or
    below zero, 0 if none.
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
        crossed = fine[1:] <= 0.0
        first[lo:hi] = np.where(crossed.any(axis=0), crossed.argmax(axis=0) + 1, 0)
    return first


def _bridge_crossings(rng, left, right, scale, n_fine):
    """Bridge-test steps from ``left`` (> 0) to ``right`` over a time ``h`` of
    ``n_fine`` dt steps, ``scale = D h``, and place each crossing.

    Returns, per step, the 1-based index of the dt step in which the
    continuous path first reaches zero, 0 if it does not.  The hit time is
    ``h x / (1 + x)`` with ``x ~ Wald(left / |right|, left**2 / (2 scale))``,
    drawn by Michael, Schucany and Haas's transformation with one rejection,
    written without cancellation and in terms of ``1 / x`` and ``|right| /
    left``, so that ``right == 0`` gives the limiting law ``x = left**2 /
    (2 scale) / Z**2`` with no special case.
    """
    first = np.zeros(left.size, dtype=np.int64)
    # "<=" so that a step ending at or below zero always crosses
    crossed = left * right <= scale * rng.standard_exponential(left.size)
    a = left[crossed]
    inv_mean = np.abs(right[crossed]) / a
    lam4 = 2.0 * a * a / scale
    z = np.abs(rng.standard_normal(a.size))
    inv_x = z + np.sqrt(z * z + lam4 * inv_mean)
    inv_x *= inv_x
    inv_x /= lam4
    # keep x with probability mean / (mean + x), else take mean**2 / x
    flip = rng.random(a.size) * (inv_x + inv_mean) > inv_x
    inv_x[flip] = inv_mean[flip] ** 2 / inv_x[flip]
    first[crossed] = np.clip(np.ceil(n_fine / (1.0 + inv_x)), 1, n_fine)
    return first


def _run_block(n_block, seed_seq, x0, mu, diff, dt, n_steps, bridge):
    """Simulate ``n_block`` paths on the RNG substream ``seed_seq``; returns
    hit times with inf for survivors."""
    rng = np.random.Generator(np.random.Philox(seed_seq))
    n_fine = _BRIDGE_STEPS if bridge else _FINE_STEPS
    span = n_fine * dt
    sigma = np.sqrt(2.0 * diff * span)
    # drift of the coarse walk in standard-normal units
    ramp = (mu * span / sigma * np.arange(1, _CHUNK_STEPS + 1)).astype(np.float32)
    thresh = _BRIDGE_LOG_BOUND * diff * span
    # a coarse step is a candidate only if one of its ends lies below this
    level = np.sqrt(thresh)
    n_coarse = -(-n_steps // n_fine)

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
            cand = pts[:, :-1] * ends < thresh
            # a row has crossed by its first end at or below zero
            cand[:, 1:] &= ~np.logical_or.accumulate(ends[:, :-1] <= 0.0, axis=1)
            row, col = np.nonzero(cand)
            if bridge:
                first = _bridge_crossings(rng, pts[row, col], ends[row, col], diff * span, n_fine)
            else:
                first = _first_fine_crossings(rng, pts[row, col], ends[row, col], diff, dt)
            crossed = first > 0
            row, col, first = row[crossed], col[crossed], first[crossed]
            # the earliest crossed coarse step of each row
            rows, at = np.unique(row, return_index=True)
            fine_step = (step + col[at]) * n_fine + first[at]
            dead = sub[rows]
            inside = fine_step <= n_steps
            hit[alive_idx[dead[inside]]] = fine_step[inside] * dt
            keep[dead] = False
        alive_idx = alive_idx[keep]
        pos = pos[keep] + sigma * walk[keep, -1].astype(np.float64)
        step += k
    return hit


def simulate_fpt(params, cfg: SimConfig) -> np.ndarray:
    """float64 first-passage times, ``inf`` where a path outlives ``cfg.t_max``,
    of the diffusion whose parameter struct (``LevyParams`` or
    ``InvGaussParams``) is given, on ``cfg.n_jobs`` worker threads, but no
    more than there are blocks."""
    x0, mu, diff = map(float, params.coefficients())
    n_steps = int(np.ceil(cfg.t_max / cfg.dt - 1e-9))
    sizes = [min(_BLOCK_PATHS, cfg.n_paths - lo) for lo in range(0, cfg.n_paths, _BLOCK_PATHS)]
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(sizes))
    run = partial(_run_block, x0=x0, mu=mu, diff=diff, dt=cfg.dt, n_steps=n_steps,
                  bridge=cfg.bridge_correction)
    workers = min(cfg.n_jobs, len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, sizes, seeds))
    else:
        parts = list(map(run, sizes, seeds))
    return np.concatenate(parts)


def empirical_survival(hit_times, t_grid) -> np.ndarray:
    """Fraction of paths with hitting time strictly beyond each grid time."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    if hit_times.size == 0:
        raise ValueError("no samples")
    return 1.0 - np.searchsorted(np.sort(hit_times), t_grid, side="right") / hit_times.size


def write_samples_csv(hit_times, path):
    """Single-column dump; survivors are written as the string 'inf'."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("hit_time\n")
        fh.writelines(f"{v!r}\n" for v in hit_times.tolist())
