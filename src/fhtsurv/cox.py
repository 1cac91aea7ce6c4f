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

from .modelio import decode_array, encode_array, read_json, write_json_atomic

RIDGE_EPS = 1e-9


class CoxConvergenceError(RuntimeError):
    pass


@dataclass
class CoxModel:
    beta: np.ndarray
    baseline_times: np.ndarray
    baseline_cumhaz: np.ndarray
    n_iter: int
    converged: bool
    grad_norm: float
    log_likelihood: float
    recipe: object | None = None

    def cumulative_hazard(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=np.float64))
        idx = np.searchsorted(self.baseline_times, times, side="right") - 1
        h0 = np.where(idx < 0, 0.0, self.baseline_cumhaz[np.maximum(idx, 0)])
        return h0

    def survival_matrix(self, x: np.ndarray, times) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        h0 = self.cumulative_hazard(times)
        risk = np.exp(x @ self.beta)
        return np.exp(-np.outer(risk, h0))

    def to_dict(self) -> dict:
        return {
            "format": "fhtsurv-model",
            "version": 1,
            "kind": "cox",
            "payload": {
                "beta": encode_array(self.beta),
                "baseline_times": encode_array(self.baseline_times),
                "baseline_cumhaz": encode_array(self.baseline_cumhaz),
                "n_iter": self.n_iter,
                "converged": self.converged,
                "grad_norm": self.grad_norm,
                "log_likelihood": self.log_likelihood,
            },
            "recipe": self.recipe.to_dict() if self.recipe is not None else None,
            "loss_trace": [],
        }

    def save(self, path) -> None:
        write_json_atomic(path, self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "CoxModel":
        if obj.get("format") != "fhtsurv-model" or obj.get("kind") != "cox":
            raise ValueError("not a cox model file")
        recipe = None
        if obj.get("recipe") is not None:
            from .data import PreprocessRecipe

            recipe = PreprocessRecipe.from_dict(obj["recipe"])
        p = obj["payload"]
        return cls(
            beta=decode_array(p["beta"]),
            baseline_times=decode_array(p["baseline_times"]),
            baseline_cumhaz=decode_array(p["baseline_cumhaz"]),
            n_iter=p["n_iter"],
            converged=p["converged"],
            grad_norm=p["grad_norm"],
            log_likelihood=p["log_likelihood"],
            recipe=recipe,
        )

    @classmethod
    def load(cls, path) -> "CoxModel":
        return cls.from_dict(read_json(path))


def _partial_lik_parts(xs, ds, start, d_count, eta, want_hessian):
    """Log partial likelihood, gradient, and (optionally) negative Hessian.

    ``xs/ds/eta`` are sorted by time ascending; ``start`` marks the first
    index of each distinct event time so suffix sums give the risk sets.
    The exponentials are shifted by max(eta), which cancels in every ratio.
    """
    m = xs.shape[1]
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
    if not want_hessian:
        return loglik, grad, None
    s2 = np.cumsum((r[:, None, None] * (xs[:, :, None] * xs[:, None, :]))[::-1], axis=0)[::-1]
    s2_j = s2[start]
    info = np.zeros((m, m))
    for j in range(start.size):
        v = s2_j[j] / s0_j[j] - np.outer(mu[j], mu[j])
        info += d_count[j] * v
    return loglik, grad, info


def fit_cox(data, max_iter=100, tol=1e-8) -> CoxModel:
    """Newton-Raphson partial-likelihood fit with Breslow ties."""
    time_obs = np.asarray(data.time, dtype=np.float64)
    delta = np.asarray(data.delta)
    x = np.asarray(data.x, dtype=np.float64)
    if not np.any(delta == 1):
        raise ValueError("cox fit needs at least one event")
    n, m = x.shape
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
    loglik, grad, info = _partial_lik_parts(xs, ds, start, d_count, xs @ beta, True)
    n_iter = 0
    converged = float(np.max(np.abs(grad))) < tol
    ridge = RIDGE_EPS
    while not converged and n_iter < max_iter:
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
            ll_new, grad_new, info_new = _partial_lik_parts(
                xs, ds, start, d_count, xs @ cand, True
            )
            if np.isfinite(ll_new) and ll_new >= loglik - 1e-12:
                break
            scale *= 0.5
        else:
            raise CoxConvergenceError(
                f"line search failed at iteration {n_iter} (loglik {loglik:.6g})"
            )
        beta, loglik, grad, info = cand, ll_new, grad_new, info_new
        converged = float(np.max(np.abs(grad))) < tol
    if not converged:
        raise CoxConvergenceError(
            f"no convergence after {max_iter} iterations, |grad| = {np.max(np.abs(grad)):.3g}"
        )

    # Breslow baseline cumulative hazard increments d_j / sum_{R_j} exp(eta)
    eta = xs @ beta
    shift = eta.max()
    r = np.exp(eta - shift)
    s0 = np.cumsum(r[::-1])[::-1]
    increments = d_count / (s0[start] * np.exp(shift))
    return CoxModel(
        beta=beta,
        baseline_times=event_times,
        baseline_cumhaz=np.cumsum(increments),
        n_iter=n_iter,
        converged=True,
        grad_norm=float(np.max(np.abs(grad))),
        log_likelihood=loglik,
    )
