"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tadualcv import Dataset, FeatureSpec, Visit  # noqa: E402

NAN = float("nan")


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_smoke_reports_every_metric_with_unit():
    proc = _run(["--smoke"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("smoke: ok")
    for name, unit in run.END_TO_END + run.REPORTED_ONLY + tracing.PER_LAYER:
        assert any(
            line.split()[:1] == [name] and line.split()[2] == unit
            for line in proc.stdout.splitlines()
        ), name


def test_single_workload_prints_result_line_last():
    proc = _run(["--workload", "cli_wide_mice", "--seed", "3", "--seconds", "0", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in result["metrics"].values())


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    for w in spec["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "work", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    args = ["--workload", "cohort_m", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = _run(args, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_metrics_self_time_and_views():
    gp_info = {
        "features_with_holes": 2, "features_filled": 1, "skipped_features": 1, "failed_fits": 0,
    }
    spans = [
        ("methods.impute", 0.0, 10.0, -1, 1, None),
        ("dualcv.dualcv_impute", 1.0, 7.0, 0, 1, None),
        ("dualcv.cfp_impute", 1.0, 2.0, 1, 1, None),
        ("chained_equations.run_chains", 1.0, 2.0, 2, 1, {"holes": 4}),
        ("chained_equations.pmm_draw", 1.0, 1.5, 3, 1, None),
        ("dualcv.ctp_impute", 2.0, 6.0, 1, 1, {"t_med": 3, "padded_cells": 2, "fills_used": 3}),
        ("chained_equations.run_chains", 2.0, 6.0, 5, 1, {"holes": 6}),
        ("chained_equations.pmm_draw", 2.0, 3.0, 6, 1, None),
        ("chained_equations.pmm_draw", 3.0, 5.0, 6, 1, None),
        ("gp_within_visit.gp_impute_visit", 7.0, 9.0, 0, 1, gp_info),
        ("methods.impute", 20.0, 30.0, -1, 2, None),
    ]
    m = tracing.layer_metrics(spans, 1)
    assert m["methods.impute_s"] == 10.0
    assert m["methods.self_s"] == 10.0 - 6.0 - 2.0
    assert m["dualcv.self_s"] == 6.0 - 1.0 - 4.0
    assert (m["chained_equations.cfp.pmm_draws"], m["chained_equations.ctp.pmm_draws"]) == (1, 2)
    assert m["chained_equations.ctp.pmm_draw_s"] == 3.0
    assert m["chained_equations.pmm_draw_us"] == pytest.approx(1e6 * 3.5 / 3)
    assert m["dualcv.ctp_holes_drawn"] == 6
    assert (m["dualcv.ctp_fills_used"], m["dualcv.t_med"]) == (3, 3)
    assert m["dualcv.ctp_useful_ratio"] == 0.5
    assert m["gp_within_visit.fill_ratio"] == 0.5
    assert m["gp_within_visit.nll_per_fit"] == 0.0


def test_tracer_restores_package():
    import tadualcv.chained_equations as ce
    import tadualcv.methods as methods

    before = (ce.pmm_draw, methods.gp_impute_visit)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert ce.pmm_draw is not before[0]
    tracer.uninstall()
    assert (ce.pmm_draw, methods.gp_impute_visit) == before


@pytest.mark.parametrize(
    "completed, in_range, expected",
    [
        ([[1.0, 5.0], [2.0, 4.0]], True, None),
        ([[1.0, NAN], [2.0, 4.0]], False, "finite"),
        ([[1.0, 5.0], [2.0, 4.0 + 1e-12]], False, "observed cells changed"),
        ([[1.0, 9.0], [2.0, 4.0]], True, "outside"),
    ],
)
def test_output_checks(completed, in_range, expected):
    features = [FeatureSpec(0, "a"), FeatureSpec(1, "b")]
    other = Visit("w", [0], [[3.0, 6.0]])
    source = Dataset(features, [Visit("v", [0, 10], [[1.0, NAN], [2.0, 4.0]]), other])
    out = Dataset(features, [Visit("v", [0, 10], completed), other])
    errors = workloads.check_completed(source, out, fills_in_range=in_range)
    if expected is None:
        assert errors == []
    else:
        assert len(errors) == 1 and expected in errors[0]


def test_high_percentile_needs_ten_samples_beyond():
    assert run._high_percentile([1.0] * 19) is None
    p, value = run._high_percentile(list(map(float, range(40))))
    assert p == 75 and 29.0 <= value <= 30.0
    assert np.isfinite(value)
