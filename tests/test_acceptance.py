"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 5's two
quantitative clauses are known not to hold for this implementation of the
documented synthetic-benchmark generator (see the analysis notes shipped
outside the package); the test states them at their required tolerances and
fails honestly rather than loosening them.
"""

import os
import time

import numpy as np
import pytest

from fhtsurv import fht, metrics
from fhtsurv.cox import fit_cox
from fhtsurv.data import (
    NonPhConfig,
    SurvivalData,
    cv_folds,
    generate_nonph,
    stratified_split_indices,
)
from fhtsurv.interpret import idw_time
from fhtsurv.metrics import concordance, evaluate
from fhtsurv.network import init_network
from fhtsurv.simulate import SimConfig, empirical_survival, simulate_fpt
from fhtsurv.training import (
    ModelConfig,
    brier_terms,
    fit,
    survival_and_grads,
    unique_event_times,
)

import oracles

N_JOBS = os.cpu_count() or 1


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def c_index(surv_fn, data):
    """Concordance of ``surv_fn`` on ``data``."""
    return concordance(surv_fn, data)[0]


def test_criterion_1_monte_carlo_vs_closed_form():
    """Empirical survival from 1e5 bridge-corrected paths at dt=1e-4 matches
    the closed forms within 3 binomial standard errors; runtime < 2 min."""
    t_grid = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
    runs = [
        (fht.LevyParams(1.0, 1.0), SimConfig(100000, 1e-4, 5.0, 101, True, N_JOBS)),
        (fht.LevyParams(2.0, 0.5), SimConfig(100000, 1e-4, 5.0, 102, True, N_JOBS)),
        (fht.InvGaussParams(1.0, -0.5), SimConfig(100000, 1e-4, 5.0, 103, True, N_JOBS)),
        (fht.InvGaussParams(2.0, -1.0), SimConfig(100000, 1e-4, 5.0, 104, True, N_JOBS)),
    ]
    start = time.time()
    samples = [simulate_fpt(params, cfg) for params, cfg in runs]
    elapsed = time.time() - start
    worst = 0.0
    for (params, cfg), s in zip(runs, samples):
        emp = empirical_survival(s, t_grid)
        closed = np.asarray(params.survival(t_grid), dtype=float)
        se = np.sqrt(closed * (1.0 - closed) / cfg.n_paths)
        worst = max(worst, float(np.max(np.abs(emp - closed) / se)))
    ok = worst <= 3.0 and elapsed < 120.0
    report(1, ok, f"worst |z| = {worst:.2f} (limit 3), elapsed {elapsed:.0f}s (limit 120s)")
    assert worst <= 3.0
    assert elapsed < 120.0


def test_criterion_2_density_survival_consistency():
    """Central differences of S match f to rel. error < 1e-5 on a 50-point
    log-spaced grid; the density integrates to 1 +- 1e-6 by quadrature."""
    # characteristic times: x0^2/(4D) for the driftless knee, x0/|mu| for
    # the drifted mean; the grid spans a decade either side so the density
    # stays well above the conditioning floor everywhere
    settings = [
        (fht.LevyParams(1.0, 1.0), 0.25),
        (fht.LevyParams(2.0, 0.5), 2.0),
        (fht.InvGaussParams(1.0, -0.5), 2.0),
        (fht.InvGaussParams(2.0, -1.0), 2.0),
    ]
    worst_rel = 0.0
    for params, t_char in settings:
        grid = np.geomspace(0.1 * t_char, 10.0 * t_char, 50)
        for t in grid:
            h = 1e-5 * t
            fd = -oracles.central_diff(lambda u, p=params: float(p.survival(u)), t, h)
            f = float(params.density(t))
            worst_rel = max(worst_rel, abs(fd - f) / f)
    int_errs = []
    for params, _ in settings:
        if params.kind == fht.DistKind.INVERSE_GAUSSIAN:
            val = oracles.quad(
                lambda t, p=params: float(p.density(t)),
                1e-12, np.inf, limit=400,
            )
            int_errs.append(abs(val - 1.0))
    ok = worst_rel < 1e-5 and max(int_errs) < 1e-6
    report(2, ok, f"worst FD rel err {worst_rel:.2e} (limit 1e-5), "
                  f"worst |integral-1| {max(int_errs):.2e} (limit 1e-6)")
    assert worst_rel < 1e-5
    assert max(int_errs) < 1e-6


@pytest.mark.parametrize("kind", [fht.DistKind.LEVY, fht.DistKind.INVERSE_GAUSSIAN])
def test_criterion_3_end_to_end_gradients(kind):
    """Brier-loss gradients of every trainable match central differences
    (step 1e-5) with max relative error < 1e-4 on a 4-subject toy."""
    rng = np.random.default_rng(8)
    net = init_network(kind, 3, (5, 4), seed=7)
    for i, width in enumerate((5, 4)):
        net.weights[f"h{i}.run_mean"] += rng.normal(0, 0.3, width)
        net.weights[f"h{i}.run_var"] *= np.exp(rng.normal(0, 0.3, width))
    x = rng.normal(size=(4, 3))
    tobs = np.array([0.5, 1.0, 2.0, 3.0])
    delta = np.array([1, 0, 1, 1])
    times = unique_event_times(tobs, delta)

    def loss_and_grads():
        cols, cache = net.forward(x, train=False)
        surv, g0, g1 = survival_and_grads(kind, cols, times)
        loss, d_surv = brier_terms(surv, times, tobs, delta)
        d_cols = np.stack([(d_surv * g0).sum(1), (d_surv * g1).sum(1)], axis=1)
        return loss, net.backward(cache, d_cols)

    _, grads = loss_and_grads()
    h = 1e-5
    worst = 0.0
    for name in net.trainable_names():
        w = net.weights[name]
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = w[ix]
            w[ix] = orig + h
            lp, _ = loss_and_grads()
            w[ix] = orig - h
            lm, _ = loss_and_grads()
            w[ix] = orig
            fd = (lp - lm) / (2 * h)
            scale = max(abs(fd), abs(grads[name][ix]))
            if scale > 1e-8:
                worst = max(worst, abs(fd - grads[name][ix]) / scale)
    ok = worst < 1e-4
    report(3, ok, f"{kind.value}: max grad rel err {worst:.2e} (limit 1e-4)")
    assert worst < 1e-4


def test_criterion_4_metric_oracles():
    """Concordance equals brute force on 100 random small datasets; the
    constant-0.5 predictor scores B(t) = 0.25 without censoring; a random
    predictor scores C = 0.5 +- 0.03 at n = 1000."""
    rng = np.random.default_rng(123)
    max_diff = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        times = np.round(rng.uniform(0.5, 5.0, n), 1)
        deltas = rng.integers(0, 2, n)
        if not (deltas == 1).any():
            deltas[rng.integers(n)] = 1
        values = np.round(rng.random(n), 2)
        # the one feature is the record's id, by which the model reads its value
        data = SurvivalData(np.arange(n, dtype=float)[:, None], times, deltas, ["id"])
        ref = oracles.cindex_bruteforce(lambda j, t: values[j], list(times), list(deltas))
        fn = lambda x, ts, v=values: np.tile(v[x[:, 0].astype(int), None],
                                             (1, np.atleast_1d(ts).size))
        if ref is None:
            continue
        max_diff = max(max_diff, abs(c_index(fn, data) - ref))

    n = 9
    d_unif = SurvivalData(np.zeros((n, 1)), np.linspace(1, 5, n), np.ones(n, dtype=int), ["f"])
    ones = np.ones((1, n))
    g = metrics.km_censoring(d_unif, ones)
    event_w = ones * metrics._inverse(g.eval_left(d_unif.time))  # every record an event
    brier = metrics._brier_values(np.full((n, 3), 0.5), np.array([1.0, 2.5, 4.9]), d_unif.time,
                                  ones, event_w, g)
    brier_dev = float(np.max(np.abs(brier - 0.25)))

    rng2 = np.random.default_rng(5)
    n = 1000
    d_rand = SurvivalData(np.arange(n, dtype=float)[:, None], rng2.exponential(1, n) + 0.01,
                          np.ones(n, dtype=int), ["id"])
    vals = rng2.random(n)
    fn_r = lambda x, ts: np.tile(vals[x[:, 0].astype(int), None], (1, np.atleast_1d(ts).size))
    c_rand = c_index(fn_r, d_rand)

    ok = max_diff < 1e-12 and brier_dev < 1e-12 and abs(c_rand - 0.5) < 0.03
    report(4, ok, f"bruteforce max diff {max_diff:.1e} (limit 1e-12), "
                  f"uninformative Brier dev {brier_dev:.1e} (limit 1e-12), "
                  f"random C = {c_rand:.3f} (0.5 +- 0.03)")
    assert max_diff < 1e-12
    assert brier_dev < 1e-12
    assert abs(c_rand - 0.5) < 0.03


def test_criterion_5_nonph_desk_scale_reproduction():
    """NonPH benchmark: 5-fold CV concordance within +-0.03 of the published
    0.840 and test concordance at least 0.05 above the Cox baseline.

    Known red: with the benchmark generated exactly as documented, neither
    clause is attainable by the prescribed architecture at this sample size.
    The tolerances below are stated, not tuned.
    """
    start = time.time()
    data = generate_nonph(NonPhConfig(seed=1234))
    train_idx, test_idx = stratified_split_indices(data.delta, test_frac=0.2, seed=7)
    train, test = data[train_idx], data[test_idx]
    cfg = ModelConfig("levy", (16, 16), epochs=450, batch_size=256, learning_rate=0.0039)

    cv_scores = []
    for val_idx in cv_folds(train, k=5, seed=3):
        mask = np.ones(len(train), dtype=bool)
        mask[val_idx] = False
        model = fit(train[np.flatnonzero(mask)], cfg, seed=11)
        cv_scores.append(c_index(model.survival_matrix, train[val_idx]))
    cv_mean = float(np.mean(cv_scores))

    model = fit(train, cfg, seed=11)
    rep = evaluate(model.survival_matrix, test, n_resamples=100, seed=0)
    cox = fit_cox(train, tol=1e-6)
    c_cox = c_index(cox.survival_matrix, test)
    elapsed = time.time() - start

    in_band = abs(cv_mean - 0.840) <= 0.03
    c_test, c_boot, i_boot = rep["c_index"], rep["c_index_bootstrap"], rep["ibs_bootstrap"]
    beats_cox = c_test - c_cox >= 0.05
    report(
        5,
        in_band and beats_cox,
        f"CV C = {cv_mean:.3f} (need 0.840 +- 0.03), test C = {c_test:.3f} "
        f"[bootstrap {c_boot['mean']:.3f} +- {c_boot['std']:.3f}], "
        f"IBS = {rep['ibs']:.3f} [{i_boot['mean']:.3f} +- {i_boot['std']:.3f}], "
        f"Cox C = {c_cox:.3f} (need margin >= 0.05, got {c_test - c_cox:.3f}); "
        f"elapsed {elapsed:.0f}s (target < 600s)",
    )
    assert in_band, f"CV C-index {cv_mean:.3f} outside 0.840 +- 0.03"
    assert beats_cox, f"margin over Cox {c_test - c_cox:.3f} < 0.05"


def test_criterion_6_inverse_gaussian_reduction():
    """Drifted-case survival at drift -1e-8 matches the driftless form
    within 1e-6 over t in [0.01, 10]."""
    ts = np.linspace(0.01, 10.0, 500)
    levy = fht.LevyParams(1.0, 1.0).survival(ts)
    near = fht.InvGaussParams(1.0, -1e-8).survival(ts)
    worst = float(np.max(np.abs(levy - near)))
    ok = worst < 1e-6
    report(6, ok, f"max |difference| {worst:.2e} (limit 1e-6)")
    assert worst < 1e-6


def test_criterion_7_idw_properties():
    """Interpolated times are convex combinations of source times and match
    an independent scalar implementation to 1e-12 on 1e3 random queries."""
    rng = np.random.default_rng(2024)
    src = rng.normal(size=(40, 2))
    times = rng.uniform(0.2, 9.0, 40)
    queries = rng.normal(size=(1000, 2)) * 2.0
    # the queries are the diagonal of the grid spanned by their coordinates
    grid = idw_time(queries[:, 0], queries[:, 1], src, times)
    vals = np.diagonal(grid)
    convex = bool(np.all(grid >= times.min()) and np.all(grid <= times.max()))
    worst = 0.0
    for q, v in zip(queries, vals):
        worst = max(worst, abs(v - oracles.idw_ref(q, src, times)))
    ok = convex and worst < 1e-12
    report(7, ok, f"convex: {convex}, max |diff| vs scalar oracle {worst:.1e} (limit 1e-12)")
    assert convex
    assert worst < 1e-12


def test_criterion_8_manifest_reproducibility(tmp_path):
    """Re-running any command from its manifest reproduces outputs byte for
    byte (same seeds)."""
    import hashlib
    import json

    from fhtsurv.cli import main

    def sha(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"n_raw": 500, "n_keep": 200}))
    csv_path = tmp_path / "d.csv"
    assert main(["generate", "--out", str(csv_path), "--config", str(gen_cfg), "--seed", "6"]) == 0

    model_cfg = tmp_path / "model.json"
    model_cfg.write_text(json.dumps(
        {"hidden_sizes": [8], "epochs": 3, "batch_size": 64, "learning_rate": 0.005}
    ))
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(csv_path), "--config", str(model_cfg),
                 "--out", str(model_path), "--seed", "7"]) == 0

    report_path = tmp_path / "r.json"
    assert main(["eval", "--model", str(model_path), "--data", str(csv_path),
                 "--out", str(report_path), "--bootstrap", "5", "--seed", "8"]) == 0

    sim_path = tmp_path / "s.json"
    assert main(["simulate", "--distribution", "levy", "--x0", "1.0", "--diffusion", "1.0",
                 "--paths", "2000", "--dt", "0.01", "--tmax", "1.0",
                 "--out", str(sim_path), "--seed", "9"]) == 0

    targets = [csv_path, model_path, report_path, sim_path]
    before = {str(p): sha(p) for p in targets}
    for p in targets:
        assert main(["rerun", "--manifest", str(p) + ".manifest.json"]) == 0
    after = {str(p): sha(p) for p in targets}
    ok = before == after
    report(8, ok, f"{len(targets)} command outputs byte-identical after rerun: {ok}")
    assert before == after
