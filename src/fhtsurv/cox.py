"""Cox proportional-hazards baseline.

Newton-Raphson on the log partial likelihood with Breslow handling of tied
event times, a step-halving line search so the likelihood never decreases,
and a small ridge term on the Hessian diagonal for numerical stability.
The baseline cumulative hazard is the Breslow estimator, giving
``S(t|x) = exp(-H0(t) * exp(beta.x))``.

Fitting expects standardized features (the preprocessing pipeline produces
them); it does not enforce this but convergence diagnostics assume sane
scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modelio import (
    decode_array, encode_array, is_finite, is_int, refuse_unknown, require, write_json_atomic,
)
from .training import model_from_dict, model_to_dict

RIDGE_EPS = 1e-9
MAX_ITER = 100  # Newton iterations before fit_cox gives up
# the model file's payload: its arrays, then its scalars with the check each passes
PAYLOAD_ARRAYS = ("beta", "baseline_times", "baseline_cumhaz")
PAYLOAD_SCALARS = {
    "n_iter": (lambda v: is_int(v) and v >= 0, "an integer >= 0"),
    "grad_norm": (is_finite, "a finite number"),
    "log_likelihood": (is_finite, "a finite number"),
}


class CoxConvergenceError(RuntimeError):
    pass


@dataclass
class CoxModel:
    beta: np.ndarray
    baseline_times: np.ndarray
    baseline_cumhaz: np.ndarray
    n_iter: int
    grad_norm: float
    log_likelihood: float
    recipe: object | None = None

    def cumulative_hazard(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        idx = np.searchsorted(self.baseline_times, times, side="right") - 1
        return np.where(idx < 0, 0.0, self.baseline_cumhaz[np.maximum(idx, 0)])

    def survival_matrix(self, x: np.ndarray, times) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h0 = self.cumulative_hazard(times)
        risk = np.exp(x @ self.beta)
        return np.exp(-np.outer(risk, h0))

    def to_dict(self) -> dict:
        payload = {key: encode_array(getattr(self, key)) for key in PAYLOAD_ARRAYS}
        payload.update((key, getattr(self, key)) for key in PAYLOAD_SCALARS)
        return model_to_dict("cox", payload, self.recipe)

    def save(self, path) -> None:
        write_json_atomic(path, self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "CoxModel":
        p, recipe, _ = model_from_dict(obj, cox=True)
        # older payloads also carry "converged", always true as an unconverged fit raises
        refuse_unknown(p, (*PAYLOAD_ARRAYS, *PAYLOAD_SCALARS, "converged"), "cox payload")
        fields = {key: decode_array(require(p, key, "cox payload"), key) for key in PAYLOAD_ARRAYS}
        if recipe is not None and fields["beta"].shape != (len(recipe.output_names),):
            raise ValueError(f"cox payload array 'beta' has shape {fields['beta'].shape}, but "
                             f"the recipe makes {len(recipe.output_names)} feature columns")
        for key, (ok, want) in PAYLOAD_SCALARS.items():
            fields[key] = require(p, key, "cox payload")
            if not ok(fields[key]):
                raise ValueError(f"cox payload key '{key}' must be {want}, got {fields[key]!r}")
        return cls(**fields, recipe=recipe)


def _partial_lik_parts(xs, ds, start, d_count, eta):
    """Log partial likelihood, gradient, negative Hessian, and the Breslow
    denominators, each event time's risk-set sum of exp(eta).

    ``xs/ds/eta`` are sorted by time ascending; ``start`` marks the first
    index of each distinct event time so suffix sums give the risk sets.
    The exponentials are shifted by max(eta), which cancels in every ratio.
    """
    shift = eta.max()
    r = np.exp(eta - shift)
    s0 = np.cumsum(r[::-1])[::-1]
    s1 = np.cumsum((r[:, None] * xs)[::-1], axis=0)[::-1]
    s0_j = s0[start]
    s1_j = s1[start]
    ev = ds == 1
    ev_sum_eta = np.add.reduceat(np.where(ev, eta, 0.0), start)
    ev_sum_x = np.add.reduceat(np.where(ev[:, None], xs, 0.0), start, axis=0)
    loglik = float(np.sum(ev_sum_eta - d_count * (np.log(s0_j) + shift)))
    mu = s1_j / s0_j[:, None]
    grad = (ev_sum_x - d_count[:, None] * mu).sum(axis=0)
    # sum_j d_j S2_j / S0_j, with S2_j the risk set's sum of r x x^T, is
    # sum_i r_i x_i x_i^T times the d_j / S0_j of every j whose risk set holds i
    w = np.zeros(eta.size)
    w[start] = d_count / s0_j
    info = xs.T @ (xs * (r * np.cumsum(w))[:, None]) - (d_count[:, None] * mu).T @ mu
    return loglik, grad, info, s0_j * np.exp(shift)


def fit_cox(data, tol=1e-8) -> CoxModel:
    """Newton-Raphson partial-likelihood fit with Breslow ties."""
    time_obs = np.asarray(data.time, dtype=np.float64)
    delta = np.asarray(data.delta)
    x = np.asarray(data.x, dtype=np.float64)
    if not np.any(delta == 1):
        raise ValueError("cox fit needs at least one event")
    m = x.shape[1]
    order = np.argsort(time_obs, kind="stable")
    ts, ds, xs = time_obs[order], delta[order], x[order]

    # group rows by distinct time; only times with events contribute terms
    uniq, start_all = np.unique(ts, return_index=True)
    d_count = np.add.reduceat((ds == 1).astype(np.int64), start_all)
    has_ev = d_count > 0
    start = start_all[has_ev]
    d_count = d_count[has_ev]
    event_times = uniq[has_ev]

    beta = np.zeros(m)
    loglik, grad, info, risk_sums = _partial_lik_parts(xs, ds, start, d_count, xs @ beta)
    n_iter = 0
    ridge = RIDGE_EPS
    # converged once max|grad| < tol; a NaN gradient never converges
    while not (grad_norm := float(np.max(np.abs(grad)))) < tol:
        if n_iter == MAX_ITER:
            raise CoxConvergenceError(f"no convergence after {MAX_ITER} iterations, "
                                      f"|grad| = {grad_norm:.3g}")
        n_iter += 1
        try:
            step = np.linalg.solve(info + ridge * np.eye(m), grad)
        except np.linalg.LinAlgError:
            ridge = max(ridge * 1e6, 1e-6)
            try:
                step = np.linalg.solve(info + ridge * np.eye(m), grad)
            except np.linalg.LinAlgError as exc:
                raise CoxConvergenceError(
                    f"singular hessian at iteration {n_iter} despite ridge {ridge}"
                ) from exc
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            parts = _partial_lik_parts(xs, ds, start, d_count, xs @ cand)
            if np.isfinite(parts[0]) and parts[0] >= loglik - 1e-12:
                break
            scale *= 0.5
        else:
            raise CoxConvergenceError(
                f"line search failed at iteration {n_iter} (loglik {loglik:.6g})"
            )
        beta, (loglik, grad, info, risk_sums) = cand, parts

    return CoxModel(
        beta=beta,
        baseline_times=event_times,
        baseline_cumhaz=np.cumsum(d_count / risk_sums),  # the Breslow estimator
        n_iter=n_iter,
        grad_norm=grad_norm,
        log_likelihood=loglik,
    )
