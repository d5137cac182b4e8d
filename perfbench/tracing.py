"""Span tracing of tadualcv's layers from outside the package.

The traced run swaps the module attributes through which the package's own
callers reach each layer's public functions (``tadualcv.methods.gp_impute_visit``,
``tadualcv.dualcv.run_chains``, ...) for wrappers that record a span per call.
Nothing under ``src/`` changes. Spans stay in memory as plain tuples and are
summarised into per-layer metrics after each pass; the raw spans can be
written out when the run ends.

A span is ``(name, start, end, parent, pass_id, info)``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``info`` holds exact counts
that a hook read from the call's arguments and result, or ``None``.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from time import perf_counter

# Per-layer metrics reported by a traced run, as (name, unit). Every traced
# run reports all of them; a layer a workload does not reach reads 0, and a
# ratio whose base is 0 reads 0.
PER_LAYER = [
    ("gp_within_visit.visit_s", "s"),
    ("gp_within_visit.fits", "count"),
    ("gp_within_visit.fit_s", "s"),
    ("gp_within_visit.nll_evals", "count"),
    ("gp_within_visit.nll_s", "s"),
    ("gp_within_visit.nll_per_fit", "1"),
    ("gp_within_visit.predict_s", "s"),
    ("gp_within_visit.skipped_features", "count"),
    ("gp_within_visit.failed_fits", "count"),
    ("gp_within_visit.fill_ratio", "1"),
    ("gp_within_visit.alpha_on_bound", "count"),
    ("gp_within_visit.nugget_escalated", "count"),
    ("gp_within_visit.chol_flops_computed", "flop"),
    ("chained_equations.run_chains_calls", "count"),
    ("chained_equations.cfp.pmm_draws", "count"),
    ("chained_equations.ctp.pmm_draws", "count"),
    ("chained_equations.cfp.pmm_draw_s", "s"),
    ("chained_equations.ctp.pmm_draw_s", "s"),
    ("chained_equations.pmm_draw_us", "us"),
    ("dualcv.cfp_s", "s"),
    ("dualcv.ctp_s", "s"),
    ("dualcv.self_s", "s"),
    ("dualcv.t_med", "events"),
    ("dualcv.ctp_holes_drawn", "count"),
    ("dualcv.ctp_padded_cells", "count"),
    ("dualcv.ctp_fills_used", "count"),
    ("dualcv.ctp_useful_ratio", "1"),
    ("methods.impute_s", "s"),
    ("methods.self_s", "s"),
    ("io_formats.ingest_s", "s"),
    ("io_formats.ingest_rows", "count"),
    ("io_formats.bytes_read", "B"),
    ("io_formats.emit_s", "s"),
    ("io_formats.bytes_written", "B"),
    ("io_formats.read_mask_s", "s"),
    ("io_formats.read_wide_s", "s"),
    ("cli.impute_s", "s"),
    ("cli.evaluate_s", "s"),
    ("evaluation.mask_random_s", "s"),
    ("evaluation.normalize_s", "s"),
    ("evaluation.nrmse_s", "s"),
    ("data_model.apply_mask_s", "s"),
    ("data_model.restore_mask_s", "s"),
    ("synthetic.generate_s", "s"),
    ("trace_overhead_frac", "1"),
]

# Per-pass counts that must repeat exactly for one seed and one program;
# they are the only basis for count-based claims.
EXACT_COUNTS = (
    "gp_within_visit.fits",
    "gp_within_visit.nll_evals",
    "chained_equations.cfp.pmm_draws",
    "chained_equations.ctp.pmm_draws",
    "dualcv.ctp_holes_drawn",
    "io_formats.bytes_written",
)

# Metrics measured during set-up rather than in a pass.
SETUP_METRICS = {
    "synthetic.generate_s": "synthetic.generate",
    "evaluation.mask_random_s": "evaluation.mask_random",
    "data_model.apply_mask_s": "data_model.apply_mask",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans around wrapped calls; ``uninstall`` restores the package."""

    def __init__(self):
        self.spans: list = []
        self.pass_id = None
        self._stack: list[int] = []
        self._patched: list = []

    @contextmanager
    def span(self, name):
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, perf_counter(), None)

    def _open(self) -> int:
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index, name, start, end, info):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.pass_id, info)

    def wrap(self, module, attr, name, hook=None):
        """Replace ``module.attr`` by a recording wrapper.

        ``hook(args, kwargs, result)`` runs after the span has ended and
        returns the span's ``info`` counts.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            index = self._open()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(index, name, start, end, None)
            if hook is not None:
                span = self.spans[index]
                self.spans[index] = span[:5] + (hook(args, kwargs, result),)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def install(tracer: Tracer):
    """Wrap every layer boundary the workloads cross."""
    import numpy as np

    import tadualcv.chained_equations as chained_equations
    import tadualcv.cli as cli
    import tadualcv.dualcv as dualcv
    import tadualcv.gp_within_visit as gp
    import tadualcv.io_formats as io_formats
    import tadualcv.methods as methods

    def gp_visit_info(args, kwargs, result):
        values = np.asarray(_arg(args, kwargs, 1, "values"))
        failed = len(result.diagnostics)
        return {
            "features_with_holes": int(np.isnan(values).any(axis=0).sum()),
            "features_filled": len({f for _, f in result.fills}),
            "skipped_features": len(result.skipped_features) - failed,
            "failed_fits": failed,
        }

    def fit_info(args, kwargs, result):
        n = len(_arg(args, kwargs, 1, "values"))
        nugget_base = _arg(args, kwargs, 2, "nugget_base", gp.NUGGET_BASE)
        lo, hi = _arg(args, kwargs, 4, "log10_alpha_bounds", gp.LOG10_ALPHA_BOUNDS)
        u = math.log10(result.alpha)
        on_bound = min(u - lo, hi - u) <= gp.ALPHA_SEARCH_TOL
        return {
            "alpha_on_bound": int(on_bound),
            "nugget_escalated": int(result.nugget > nugget_base * n * (1 + 1e-12)),
        }

    def nll_info(args, kwargs, result):
        n = len(_arg(args, kwargs, 2, "values"))
        return {"chol_flops": n**3 / 3}

    def ctp_info(args, kwargs, result):
        dataset = _arg(args, kwargs, 0, "dataset")
        t_med = _arg(args, kwargs, 1, "t_med")
        lengths = [v.n_events for v in dataset.visits]
        fills = result[0]
        return {
            "t_med": t_med,
            "padded_cells": dataset.n_features * sum(max(0, t_med - t) for t in lengths),
            "fills_used": sum(1 for cell in fills if lengths[cell.visit] <= t_med),
        }

    def chains_info(args, kwargs, result):
        return {"holes": len(result.cells)}

    def read_info(args, kwargs, result):
        return {"bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}

    def ingest_info(args, kwargs, result):
        info = read_info(args, kwargs, result)
        info["rows"] = result.n_observed_cells()
        return info

    def emit_info(args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[-1]
        return {"bytes_written": os.path.getsize(path)}

    w = tracer.wrap
    w(methods, "normalize", "evaluation.normalize")
    w(methods, "dualcv_impute", "dualcv.dualcv_impute")
    w(methods, "cfp_impute", "dualcv.cfp_impute")
    w(methods, "gp_impute_visit", "gp_within_visit.gp_impute_visit", gp_visit_info)
    w(dualcv, "cfp_impute", "dualcv.cfp_impute")
    w(dualcv, "ctp_impute", "dualcv.ctp_impute", ctp_info)
    w(dualcv, "run_chains", "chained_equations.run_chains", chains_info)
    w(chained_equations, "pmm_draw", "chained_equations.pmm_draw")
    w(gp, "fit_gp", "gp_within_visit.fit_gp", fit_info)
    w(gp, "profile_neg_log_likelihood", "gp_within_visit.profile_neg_log_likelihood", nll_info)
    w(gp, "gp_predict", "gp_within_visit.gp_predict")
    w(io_formats, "ingest_long_csv", "io_formats.ingest_long_csv", ingest_info)
    w(io_formats, "read_mask_csv", "io_formats.read_mask_csv", read_info)
    w(io_formats, "read_wide_csv", "io_formats.read_wide_csv", read_info)
    for attr in ("emit_wide_csv", "emit_std_csv", "emit_mi_csv"):
        w(io_formats, attr, f"io_formats.{attr}", emit_info)
    w(cli, "impute", "methods.impute")
    w(cli, "restore_mask", "data_model.restore_mask")
    w(cli, "nrmse", "evaluation.nrmse")


def _view_of(spans, index) -> str | None:
    """'cfp' or 'ctp' for the nearest enclosing view span, else None."""
    while index >= 0:
        name = spans[index][0]
        if name == "dualcv.cfp_impute":
            return "cfp"
        if name == "dualcv.ctp_impute":
            return "ctp"
        index = spans[index][3]
    return None


def layer_metrics(all_spans: list, pass_id) -> dict[str, float]:
    """Per-layer metrics of one pass.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    total: dict[str, float] = {}
    child_time: dict[int, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, float] = {}
    view_draws = {"cfp": [0, 0.0], "ctp": [0, 0.0]}
    ctp_holes = 0
    t_med = 0
    mine = [i for i, s in enumerate(all_spans) if s[4] == pass_id]
    for i in mine:
        name, start, end, parent, _, extra = all_spans[i]
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + duration
        if name == "chained_equations.pmm_draw":
            view = _view_of(all_spans, parent)
            if view is not None:
                view_draws[view][0] += 1
                view_draws[view][1] += duration
        if name == "chained_equations.run_chains" and _view_of(all_spans, parent) == "ctp":
            ctp_holes += extra["holes"]
        if extra and name != "chained_equations.run_chains":
            for key, value in extra.items():
                if key == "t_med":
                    t_med = value
                else:
                    info[key] = info.get(key, 0) + value

    def self_time(name):
        return sum(
            all_spans[i][2] - all_spans[i][1] - child_time.get(i, 0.0)
            for i in mine
            if all_spans[i][0] == name
        )

    def ratio(num, den):
        return num / den if den else 0.0

    t = total.get
    fits = calls.get("gp_within_visit.fit_gp", 0)
    nll_evals = calls.get("gp_within_visit.profile_neg_log_likelihood", 0)
    draws = calls.get("chained_equations.pmm_draw", 0)
    emits = ("emit_wide_csv", "emit_std_csv", "emit_mi_csv")
    emit_s = sum(t(f"io_formats.{a}", 0.0) for a in emits)
    fills_used = info.get("fills_used", 0)
    return {
        "gp_within_visit.visit_s": t("gp_within_visit.gp_impute_visit", 0.0),
        "gp_within_visit.fits": fits,
        "gp_within_visit.fit_s": t("gp_within_visit.fit_gp", 0.0),
        "gp_within_visit.nll_evals": nll_evals,
        "gp_within_visit.nll_s": t("gp_within_visit.profile_neg_log_likelihood", 0.0),
        "gp_within_visit.nll_per_fit": ratio(nll_evals, fits),
        "gp_within_visit.predict_s": t("gp_within_visit.gp_predict", 0.0),
        "gp_within_visit.skipped_features": info.get("skipped_features", 0),
        "gp_within_visit.failed_fits": info.get("failed_fits", 0),
        "gp_within_visit.fill_ratio": ratio(
            info.get("features_filled", 0), info.get("features_with_holes", 0)
        ),
        "gp_within_visit.alpha_on_bound": info.get("alpha_on_bound", 0),
        "gp_within_visit.nugget_escalated": info.get("nugget_escalated", 0),
        "gp_within_visit.chol_flops_computed": info.get("chol_flops", 0.0),
        "chained_equations.run_chains_calls": calls.get("chained_equations.run_chains", 0),
        "chained_equations.cfp.pmm_draws": view_draws["cfp"][0],
        "chained_equations.ctp.pmm_draws": view_draws["ctp"][0],
        "chained_equations.cfp.pmm_draw_s": view_draws["cfp"][1],
        "chained_equations.ctp.pmm_draw_s": view_draws["ctp"][1],
        "chained_equations.pmm_draw_us": 1e6 * ratio(t("chained_equations.pmm_draw", 0.0), draws),
        "dualcv.cfp_s": t("dualcv.cfp_impute", 0.0),
        "dualcv.ctp_s": t("dualcv.ctp_impute", 0.0),
        "dualcv.self_s": self_time("dualcv.dualcv_impute"),
        "dualcv.t_med": t_med,
        "dualcv.ctp_holes_drawn": ctp_holes,
        "dualcv.ctp_padded_cells": info.get("padded_cells", 0),
        "dualcv.ctp_fills_used": fills_used,
        "dualcv.ctp_useful_ratio": ratio(fills_used, ctp_holes),
        "methods.impute_s": t("methods.impute", 0.0),
        "methods.self_s": self_time("methods.impute"),
        "io_formats.ingest_s": t("io_formats.ingest_long_csv", 0.0),
        "io_formats.ingest_rows": info.get("rows", 0),
        "io_formats.bytes_read": info.get("bytes_read", 0),
        "io_formats.emit_s": emit_s,
        "io_formats.bytes_written": info.get("bytes_written", 0),
        "io_formats.read_mask_s": t("io_formats.read_mask_csv", 0.0),
        "io_formats.read_wide_s": t("io_formats.read_wide_csv", 0.0),
        "cli.impute_s": t("cli.impute", 0.0),
        "cli.evaluate_s": t("cli.evaluate", 0.0),
        "evaluation.normalize_s": t("evaluation.normalize", 0.0),
        "evaluation.nrmse_s": t("evaluation.nrmse", 0.0),
        "data_model.restore_mask_s": t("data_model.restore_mask", 0.0),
    }
