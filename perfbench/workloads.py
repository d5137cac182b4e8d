"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload is one synthetic cohort, masked at random with the run's seed.
The cohort itself (visit lengths and values) is generated from the fixed
``COHORT_SEED``: visit lengths set the median event count, and CTP work grows
with its square, so a cohort drawn per seed would move the work done by up
to a third between seeds (66 to 75 median events on ``long_visits``). The
seed picks which half of the observed cells is hidden, so every seed is a
different input of the same size. The program under test sees only the
generated inputs (a masked dataset, or the masked long CSV and the mask
CSV); its own settings stay at ``Config()``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from tadualcv import Config, SynthConfig, apply_mask, generate, impute, mask_random, nrmse
from tadualcv import cli, io_formats

MASK_RATE = 0.5
COHORT_SEED = 0
# Seed on which a claim made while tuning against other seeds is re-checked.
RECHECK_SEED = 7

_NOISY = dict(noise_scale=0.05, native_missing_rate=0.1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict
    smoke_synth: dict
    via_cli: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cohort_m",
            "ROADMAP shape M under ta_dualcv: GP fits, CTP chains and CFP chains all carry weight",
            dict(n_visits=200, n_features=8, events_per_visit=(10, 40), **_NOISY),
            dict(n_visits=12, n_features=4, events_per_visit=(6, 12), **_NOISY),
            via_cli=False,
        ),
        Workload(
            "long_visits",
            "long visits (median 70 events) under ta_dualcv: CTP chains dominate, GP fits are few",
            dict(n_visits=60, n_features=4, events_per_visit=(40, 100), **_NOISY),
            dict(n_visits=8, n_features=3, events_per_visit=(12, 20), **_NOISY),
            via_cli=False,
        ),
        Workload(
            "cli_wide_mice",
            "CLI impute --method mice then evaluate on 1500 short visits: "
            "large CFP draws and CSV I/O, no GP or CTP",
            dict(n_visits=1500, n_features=16, events_per_visit=(4, 12), **_NOISY),
            dict(n_visits=30, n_features=4, events_per_visit=(4, 8), **_NOISY),
            via_cli=True,
        ),
    )
}


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@dataclass
class Inputs:
    premask: object
    mask: object
    masked: object
    holes: int
    workdir: Path
    # CLI workloads only: the masked input as the CLI reads it back, which
    # is the reference for the observed-cell and range checks.
    reference: object = None


def setup(workload: Workload, seed: int, workdir: Path, smoke: bool, tracer=None) -> Inputs:
    """Generate, mask and (for CLI workloads) write the input CSVs."""
    synth = SynthConfig(**(workload.smoke_synth if smoke else workload.synth), seed=COHORT_SEED)
    with _span(tracer, "synthetic.generate"):
        premask, _ = generate(synth)
    with _span(tracer, "evaluation.mask_random"):
        mask = mask_random(premask, MASK_RATE, seed)
    with _span(tracer, "data_model.apply_mask"):
        masked = apply_mask(premask, mask)
    if workload.via_cli:
        io_formats.emit_long_csv(masked, workdir / "masked.csv")
        io_formats.emit_mask_csv(premask, mask, workdir / "mask.csv")
    holes = sum(int(np.isnan(v.values).sum()) for v in masked.visits)
    return Inputs(premask, mask, masked, holes, workdir)


def load_reference(workload: Workload, inputs: Inputs) -> None:
    """Read the CLI's input back once, outside every timed interval."""
    if workload.via_cli:
        inputs.reference = io_formats.ingest_long_csv(inputs.workdir / "masked.csv")


@dataclass
class PassResult:
    wall_s: float
    macro_nrmse: float
    errors: list


def run_pass(workload: Workload, inputs: Inputs, tracer=None) -> PassResult:
    """One timed pass, then its output checks outside the timed interval."""
    if workload.via_cli:
        return _cli_pass(inputs, tracer)
    start = perf_counter()
    with _span(tracer, "methods.impute"):
        output = impute(inputs.masked, "ta_dualcv", Config())
    with _span(tracer, "evaluation.nrmse"):
        report = nrmse(inputs.mask, output.dataset, inputs.premask)
    wall = perf_counter() - start
    errors = check_completed(inputs.masked, output.dataset, fills_in_range=False)
    return PassResult(wall, report.macro_nrmse, errors)


def _cli_pass(inputs: Inputs, tracer) -> PassResult:
    d = inputs.workdir
    out, report_path = d / "imputed.csv", d / "report.txt"
    for stale in (out, out.with_suffix(".std.csv"), out.with_suffix(".mi.csv"), report_path):
        stale.unlink(missing_ok=True)
    impute_argv = [
        "impute", "--method", "mice", "--data", str(d / "masked.csv"), "--out", str(out),
    ]
    evaluate_argv = [
        "evaluate", "--truth-mask", str(d / "mask.csv"), "--imputed", str(out),
        "--masked", str(d / "masked.csv"), "--method", "mice", "--out", str(report_path),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        with _span(tracer, "cli.impute"):
            rc_impute = cli.main(impute_argv)
        with _span(tracer, "cli.evaluate"):
            rc_evaluate = cli.main(evaluate_argv)
        wall = perf_counter() - start

    if rc_impute != 0 or rc_evaluate != 0:
        codes = f"CLI exit codes impute={rc_impute} evaluate={rc_evaluate}"
        return PassResult(wall, float("nan"), [codes])
    reference = inputs.reference
    imputed = io_formats.read_wide_csv(out, features=list(reference.features))
    errors = check_completed(reference, imputed, fills_in_range=True)
    header = io_formats.parse_report(report_path.read_text())["header"]
    return PassResult(wall, float(header["macro_nrmse"]), errors)


def check_completed(source, completed, fills_in_range: bool) -> list[str]:
    """Errors in ``completed`` against the input it was imputed from.

    Every hole is filled with a finite value; observed cells are
    bit-identical; with ``fills_in_range`` every fill also lies within its
    feature's observed range (PMM draws donors from observed values; the
    slack covers normalisation round-off and 9-digit CSV rendering).
    """
    if [(v.visit_id, v.times.tolist()) for v in source.visits] != [
        (v.visit_id, v.times.tolist()) for v in completed.visits
    ] or completed.n_features != source.n_features:
        return ["output does not have the input's visits, events and features"]
    before = np.vstack([v.values for v in source.visits])
    after = np.vstack([v.values for v in completed.visits])
    observed = ~np.isnan(before)
    errors = []
    if not np.isfinite(after).all():
        errors.append(f"{int((~np.isfinite(after)).sum())} cells not filled with a finite value")
    changed = before[observed].view(np.uint64) != after[observed].view(np.uint64)
    if changed.any():
        errors.append(f"{int(changed.sum())} observed cells changed")
    if fills_in_range:
        lo = np.nanmin(before, axis=0)
        hi = np.nanmax(before, axis=0)
        slack = 1e-8 * np.maximum(np.abs(lo), np.abs(hi))
        outside = ~observed & ((after < lo - slack) | (after > hi + slack))
        if outside.any():
            errors.append(f"{int(outside.sum())} fills outside their feature's observed range")
    return errors


def purpose(workload: Workload, layer: dict, pass_wall: float) -> tuple[str, bool]:
    """Whether the traced pass shows the layer mix the workload exists for."""
    impute_s = layer["methods.impute_s"]
    if workload.name == "cohort_m":
        share = (layer["gp_within_visit.visit_s"] + layer["dualcv.ctp_s"]) / impute_s
        return f"(GP visits + CTP) / impute = {share:.3f} (want > 0.70)", share > 0.70
    if workload.name == "long_visits":
        share = layer["dualcv.ctp_s"] / impute_s
        return f"CTP / impute = {share:.3f} (want > 0.75)", share > 0.75
    io_keys = (
        "io_formats.ingest_s",
        "io_formats.emit_s",
        "io_formats.read_mask_s",
        "io_formats.read_wide_s",
    )
    spans = io_keys + (
        "dualcv.cfp_s",
        "evaluation.normalize_s",
        "evaluation.nrmse_s",
        "data_model.restore_mask_s",
    )
    io_s = sum(layer[k] for k in io_keys)
    largest = max(spans, key=layer.get)
    no_gp_ctp = layer["gp_within_visit.fits"] == 0 and layer["dualcv.ctp_s"] == 0
    share = io_s / pass_wall
    text = (
        f"GP/CTP spans absent: {no_gp_ctp}; largest span {largest}; "
        f"io_formats / pass = {share:.3f} (want > 0.20)"
    )
    return text, no_gp_ctp and largest == "dualcv.cfp_s" and share > 0.20
