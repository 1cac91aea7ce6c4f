"""Per-layer metrics computed from the spans of one traced run.

Self time is a span's duration minus the durations of its direct children.
Workload metrics use the spans of the workload's own commands; the
``*.ms_per_call`` medians at 256-row batches also use the probe commands
(inverse-Gaussian training at batch 256), because they reproduce the
per-batch table of the ROADMAP Baseline.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

KINDS = ("levy", "invgauss")
SURVIVAL_MATRIX = ("training.survival_matrix", "cox.survival_matrix")
BASELINE_ROWS = 256


def _ancestor(spans, index, names):
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] in names:
            return parent
        parent = spans[parent][3]
    return None


def layer_metrics(tracer):
    """Return ``(metrics, absent)``: name -> value, and name -> the reason a
    traced target or count was missing."""
    spans, ops = tracer.spans, tracer.ops
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.float64)
    self_t = dur.copy()
    for i, s in enumerate(spans):
        if s[3] is not None:
            self_t[s[3]] -= dur[i]

    # spans of the workload's own commands: neither set-up nor probes
    work = [i for i, s in enumerate(spans)
            if not ops[s[4]]["probe"] and ops[s[4]]["kind"] != "setup"]
    self_s = defaultdict(float)
    count = defaultdict(float)
    for i in work:
        name, counts = spans[i][0], spans[i][5] or {}
        self_s[name] += self_t[i]
        for key, value in counts.items():
            count[f"{name}.{key}"] += value

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    for fn in ("erf", "norm_cdf", "log_norm_cdf", "norm_pdf"):
        name = f"special.{fn}"
        m[f"{name}.elems"] = count[f"{name}.elems"]
        m[f"{name}.ns_per_elem"] = ratio(self_s[name], count[f"{name}.elems"], 1e9)

    m["fht.make_params.self_s"] = self_s["fht.make_params"]
    for name in ("fht.survival", "fht.survival_grad"):
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.elems"] = count[f"{name}.elems"]

    # per-call medians at 256-row training batches, per kind (probes included)
    for name in ("training.survival_and_grads", "network.forward_train",
                 "network.backward", "training.brier_terms"):
        for kind in KINDS:
            ms = [dur[i] * 1e3 for i, s in enumerate(spans)
                  if s[0] == name and ops[s[4]]["kind"] == kind
                  and (s[5] or {}).get("rows") == BASELINE_ROWS
                  and _ancestor(spans, i, ("training.fit",)) is not None]
            m[f"{name}.{kind}.ms_per_call"] = float(np.median(ms)) if ms else 0.0
    m["training.survival_and_grads.elems"] = count["training.survival_and_grads.elems"]
    m["training.brier_terms.self_s"] = self_s["training.brier_terms"]
    m["training.fit.self_s"] = self_s["training.fit"]
    m["training.steps"] = sum(
        1 for i in work if spans[i][0] == "network.backward"
        and _ancestor(spans, i, ("training.fit",)) is not None)

    m["network.forward_train.self_s"] = self_s["network.forward_train"]
    m["network.backward.self_s"] = self_s["network.backward"]
    m["network.rows"] = count["network.forward_train.rows"] + count["network.backward.rows"]
    m["network.forward_eval.self_s"] = self_s["network.forward_eval"]

    # survival matrices and discarded gradient entries per evaluate report
    per_report = defaultdict(lambda: [0, 0.0, 0.0])
    for i, s in enumerate(spans):
        if s[0] in SURVIVAL_MATRIX or s[0] == "fht.survival_grad":
            report = _ancestor(spans, i, ("metrics.evaluate",))
            if report is not None:
                elems = (s[5] or {}).get("elems", 0)
                slot = per_report[report]
                if s[0] == "fht.survival_grad":
                    slot[2] += elems
                else:
                    slot[0] += 1
                    slot[1] += elems
    reports = [i for i in work if spans[i][0] == "metrics.evaluate"]
    probe_reports = [i for i, s in enumerate(spans)
                     if s[0] == "metrics.evaluate" and ops[s[4]]["probe"]]
    surv_elems = sum(per_report[r][1] for r in reports)
    m["metrics.surv_calls_per_report"] = ratio(sum(per_report[r][0] for r in reports), len(reports))
    m["metrics.surv_calls_per_report_cli_default"] = ratio(
        sum(per_report[r][0] for r in probe_reports), len(probe_reports))
    m["metrics.surv_elems_per_report"] = ratio(surv_elems, len(reports))
    m["metrics.surv_useful_ratio"] = ratio(count["metrics.evaluate.useful"], surv_elems)
    m["metrics.grad_elems_discarded"] = ratio(sum(per_report[r][2] for r in reports), len(reports))
    for fn in ("cindex_details", "brier_curve", "bootstrap"):
        m[f"metrics.{fn}.self_s"] = self_s[f"metrics.{fn}"]

    fits = [i for i, s in enumerate(spans) if s[0] == "cox.fit_cox"]
    m["cox.fit_cox.s"] = float(np.median(dur[fits])) if fits else 0.0
    m["cox.newton_iters"] = float((spans[fits[-1]][5] or {}).get("iters", 0)) if fits else 0.0
    m["cox.survival_matrix.self_s"] = self_s["cox.survival_matrix"]

    m["interpret.idw_time.ns_per_pair"] = ratio(self_s["interpret.idw_time"],
                                                count["interpret.idw_time.pairs"], 1e9)
    m["interpret.risk_grid.self_s"] = self_s["interpret.risk_grid"]

    sim_s = sum(dur[i] for i in work if spans[i][0] == "simulate.simulate_fpt")
    m["simulate.path_steps_per_s"] = ratio(count["simulate.simulate_fpt.steps"], sim_s)
    m["simulate.absorbed_frac"] = ratio(count["simulate.simulate_fpt.absorbed"],
                                        count["simulate.simulate_fpt.paths"])

    m["data.load_csv.rows_per_s"] = ratio(count["data.load_csv.rows"], self_s["data.load_csv"])
    m["data.apply_preprocess.self_s"] = self_s["data.apply_preprocess"]
    m["modelio.bytes_written"] = count["modelio.write_json_atomic.bytes"]
    m["modelio.self_s"] = self_s["modelio.read_json"] + self_s["modelio.write_json_atomic"]
    m["cli.self_s"] = self_s["cli.main"]

    absent = {}
    for label, reason in tracer.absent.items():
        label = label.split(" ")[0]
        for metric in m:
            if metric.startswith((label + ".", label + "_")):
                absent[metric] = reason
    return {k: float(v) for k, v in m.items()}, absent
