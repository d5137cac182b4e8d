"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test prints a single ``criterion NN [PASS|FAIL]`` line (visible with
``pytest -s``) and asserts at the stated tolerance. The heavyweight
directional-quality run (criterion 10) takes a couple of minutes; everything
else is seconds.
"""

import time

import numpy as np
import pytest

from tadualcv.chained_equations import run_chains
from tadualcv.cli import main
from tadualcv.config import Config
from tadualcv.data_model import CellIndex, MaskSet, apply_mask
from tadualcv.dualcv import cfp_impute, dualcv_impute
from tadualcv.evaluation import (
    denormalize,
    mask_one_per_feature_visit,
    mask_random,
    normalize,
    nrmse,
    run_experiment,
)
from tadualcv.gp_within_visit import fit_gp, gp_predict, profile_neg_log_likelihood
from tadualcv.methods import VARIANTS, fuse, fusion_weights, impute
from tadualcv.synthetic import SynthConfig, generate

from conftest import NAN, make_dataset


def report(num, ok, description):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


# ---------------------------------------------------------------------------
# Independent dense-algebra oracle for the GP criteria (np.linalg.solve path,
# no code shared with the library implementation).
# ---------------------------------------------------------------------------

def dense_oracle(alpha, times, values, nugget, query):
    t = np.asarray(times, float)
    y = np.asarray(values, float)
    n = t.size
    corr_full = np.exp(-alpha * (t[:, None] - t[None, :]) ** 2) + nugget * np.eye(n)
    ones = np.ones(n)
    rinv_y = np.linalg.solve(corr_full, y)
    rinv_1 = np.linalg.solve(corr_full, ones)
    mu = (ones @ rinv_y) / (ones @ rinv_1)
    resid = y - mu
    rinv_resid = np.linalg.solve(corr_full, resid)
    sigma2 = (resid @ rinv_resid) / n
    q = np.asarray(query, float)
    r = np.exp(-alpha * (t[:, None] - q[None, :]) ** 2)
    rinv_r = np.linalg.solve(corr_full, r)
    mean = mu + r.T @ rinv_resid
    quad = np.sum(r * rinv_r, axis=0)
    one_r = r.T @ rinv_1
    var = sigma2 * np.maximum(0.0, 1.0 - quad + (1.0 - one_r) ** 2 / (ones @ rinv_1))
    return mean, np.sqrt(var)


def gp_instances():
    """20 fixed smooth instances, n in [2, 8], values normalized to [0, 1]."""
    instances = []
    for k in range(20):
        rng = np.random.default_rng(1000 + k)
        n = int(rng.integers(2, 9))
        t = np.sort(rng.uniform(0.0, 100.0, size=n))
        t += np.arange(n) * 1e-3
        cov = np.exp(-((t[:, None] - t[None, :]) / 40.0) ** 2) + 1e-10 * np.eye(n)
        y = np.linalg.cholesky(cov) @ rng.standard_normal(n)
        span = y.max() - y.min()
        y = (y - y.min()) / (span if span > 0 else 1.0)
        instances.append((t, y))
    return instances


def test_criterion_01_gp_oracle_equivalence():
    worst = 0.0
    elapsed = 0.0
    for t, y in gp_instances():
        start = time.perf_counter()
        model = fit_gp(t, y)
        query = np.linspace(t.min(), t.max() * 1.2, 7)
        mean, std = gp_predict(model, query)
        elapsed += time.perf_counter() - start
        want_mean, want_std = dense_oracle(
            model.alpha, model.train_times, y, model.nugget, query / model.time_scale
        )
        worst = max(
            worst,
            float(np.max(np.abs(mean - want_mean))),
            float(np.max(np.abs(std - want_std))),
        )
    ok = worst < 1e-8 and elapsed < 1.0
    report(1, ok, f"GP oracle equivalence (worst dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_gp_interpolation():
    worst = 0.0
    for t, y in gp_instances():
        model = fit_gp(t, y)
        mean, _ = gp_predict(model, t)
        worst = max(worst, float(np.max(np.abs(mean - y))))
    ok = worst < 1e-4
    report(2, ok, f"GP interpolation at training points (worst dev {worst:.2e})")


def test_criterion_03_profile_likelihood_minimizer():
    grid = np.logspace(-6, 4, 200)
    worst = -np.inf
    for k in range(10):
        rng = np.random.default_rng(2000 + k)
        n = 25
        t = np.sort(rng.uniform(0.0, 1.0, size=n)) + np.arange(n) * 1e-6
        cov = np.exp(-((t[:, None] - t[None, :])) ** 2) + 1e-10 * np.eye(n)
        y = np.linalg.cholesky(cov) @ rng.standard_normal(n)
        model = fit_gp(t, y)
        scaled = t / model.time_scale
        grid_best = min(profile_neg_log_likelihood(a, scaled, y) for a in grid)
        at_fit = profile_neg_log_likelihood(model.alpha, scaled, y)
        worst = max(worst, at_fit - grid_best)
    ok = worst <= 1e-6
    report(3, ok, f"golden-section vs 200-point grid (worst excess {worst:.2e})")


def test_criterion_04_chained_equations_oracle():
    x = np.array([1.0, 2.0, 3.0, 3.0, 4.0, 5.0])
    matrix = np.column_stack([x, 2.0 * x])
    matrix[3, 1] = np.nan
    worst = 0.0
    for seed in range(5):
        result = run_chains(matrix, m=5, t=10, master_seed=seed)
        assert result.cells == [(3, 1)]
        worst = max(worst, abs(float(result.pooled_fill[0]) - 6.0))
    ok = worst < 1e-9
    report(4, ok, f"y=2x six-row pooled fill (worst dev {worst:.2e})")


def test_criterion_05_pmm_in_range():
    ds, _ = generate(
        SynthConfig(n_visits=20, n_features=50, events_per_visit=(4, 8),
                    noise_scale=0.05, seed=7)
    )
    mask = mask_random(ds, 0.5, seed=7)
    masked = apply_mask(ds, mask)
    result = run_chains(masked.values, m=5, t=10, master_seed=7)
    observed_sets = []
    for c in range(masked.values.shape[1]):
        col = masked.values[:, c]
        observed_sets.append(set(col[~np.isnan(col)].tolist()))
    total = 0
    violations = 0
    for chain_fills in result.per_chain_fills:
        for (r, c), value in zip(result.cells, chain_fills):
            total += 1
            if value not in observed_sets[c]:
                violations += 1
    ok = total > 0 and violations == 0
    report(5, ok, f"PMM in-range membership ({total} fills, {violations} violations)")


def test_criterion_06_fusion_identities():
    checks = []

    # (a) w1 = 1: the fused cross-visit result equals the feature view alone
    x = [1.0, 2.0, 3.0, 3.0, 4.0, 5.0]
    rows = [[v, 2.0 * v] for v in x]
    rows[3][1] = NAN
    ds = make_dataset([("v0", [0, 10, 20, 30, 40, 50], rows)])
    config = Config(w1=1.0, w2=0.0, seed=2)
    fills, _ = dualcv_impute(ds, config)
    cfp_fills, _ = cfp_impute(ds, config)
    checks.append(np.array_equal(fills, cfp_fills, equal_nan=True))

    # (b) T_i > T_med: the long visit's cells equal the feature view exactly
    rng = np.random.default_rng(1)
    long_rows = []
    for i, t_i in enumerate([3, 3, 9]):
        values = rng.uniform(0, 1, size=(t_i, 2))
        values[1, i % 2] = NAN
        long_rows.append((f"v{i}", (np.arange(t_i) * 10).tolist(), values))
    ds_long = make_dataset(long_rows)
    config = Config(seed=3)
    fills, _ = dualcv_impute(ds_long, config)
    cfp_fills, _ = cfp_impute(ds_long, config)
    long_rows = slice(ds_long.starts[2], ds_long.starts[3])
    long_cells = ~np.isnan(fills[long_rows])
    checks.append(bool(long_cells.any()))
    checks.append(
        np.array_equal(fills[long_rows][long_cells], cfp_fills[long_rows][long_cells])
    )

    # (c) sigma_G = 0: fused output equals the GP value exactly
    checks.append(fuse(0.4, 0.9, *fusion_weights(0.2, 0.0)) == 0.9)

    # (d) sigma_M = sigma_G: fused output is the midpoint to machine precision
    eps = np.finfo(float).eps
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = rng.uniform(-1, 1, size=2)
        fused = fuse(a, b, *fusion_weights(0.37, 0.37))
        checks.append(abs(fused - (a + b) / 2.0) <= 2 * eps)

    ok = all(checks)
    report(6, ok, "compromise/fusion identities (w1=1, long visits, sigma limits)")


def test_criterion_07_nrmse_hand_oracle():
    single = make_dataset([("a", [0, 10, 20], [[1.0], [2.0], [3.0]])])
    single_imp = make_dataset([("a", [0, 10, 20], [[1.0], [2.5], [3.0]])])
    r1 = nrmse(MaskSet([(CellIndex(0, 1, 0), 2.0)]), single_imp, single)

    two = make_dataset(
        [("a", [0, 10, 20], [[1.0], [2.0], [3.0]]),
         ("b", [0, 10, 20], [[10.0], [12.0], [14.0]])]
    )
    two_imp = make_dataset(
        [("a", [0, 10, 20], [[1.0], [2.5], [3.0]]),
         ("b", [0, 10, 20], [[10.0], [13.0], [14.0]])]
    )
    r2 = nrmse(
        MaskSet([(CellIndex(0, 1, 0), 2.0), (CellIndex(1, 1, 0), 12.0)]), two_imp, two
    )

    perfect = nrmse(MaskSet([(CellIndex(0, 1, 0), 2.0)]), single, single)

    ok = (
        r1.per_feature_nrmse[0] == 0.25
        and r2.per_feature_nrmse[0] == 0.25
        and perfect.per_feature_nrmse[0] == 0.0
    )
    report(7, ok, "nRMSE hand-worked values (0.25, 0.25, 0.0)")


def test_criterion_08_masking_calibration():
    ds, _ = generate(
        SynthConfig(n_visits=125, n_features=8, events_per_visit=(10, 10), seed=2)
    )
    n_cells = ds.n_observed_cells()
    mask = mask_random(ds, 0.5, seed=11)
    fraction = len(mask) / n_cells
    replay = mask_random(ds, 0.5, seed=11)

    one = mask_one_per_feature_visit(ds, seed=11)
    per_pair = {}
    for cell, _ in one.entries:
        per_pair[(cell.visit, cell.feature)] = per_pair.get((cell.visit, cell.feature), 0) + 1
    eligible = {
        (i, f)
        for i, visit in enumerate(ds.visits)
        for f in range(ds.n_features)
        if visit.observed()[:, f].sum() >= 2
    }
    exact_one = set(per_pair) == eligible and all(v == 1 for v in per_pair.values())

    ok = (
        n_cells >= 10_000
        and 0.49 <= fraction <= 0.51
        and replay.entries == mask.entries
        and exact_one
    )
    report(8, ok, f"masking calibration (fraction {fraction:.4f} of {n_cells} cells)")


def test_criterion_09_observed_cell_preservation():
    ds, _ = generate(
        SynthConfig(n_visits=12, n_features=4, events_per_visit=(4, 8),
                    noise_scale=0.05, native_missing_rate=0.1, seed=4)
    )
    config = Config(seed=1)
    ok = True
    for rate in (0.2, 0.5, 0.9):
        mask = mask_random(ds, rate, seed=3)
        masked = apply_mask(ds, mask)
        for variant in VARIANTS:
            out = impute(masked, variant, config)
            for before, after in zip(masked.visits, out.dataset.visits):
                observed = before.observed()
                same = np.array_equal(
                    after.values[observed], before.values[observed]
                )
                complete = not np.isnan(after.values).any()
                ok = ok and same and complete
    report(9, ok, "observed cells bit-identical across all variants and rates")


def test_criterion_10_directional_quality_synthetic():
    start = time.perf_counter()
    ds, _ = generate(
        SynthConfig(n_visits=200, n_features=8, events_per_visit=(10, 40),
                    noise_scale=0.05, native_missing_rate=0.1, seed=0)
    )
    rates = (0.2, 0.5, 0.9)
    seeds = [0, 1, 2, 3, 4]
    reports = run_experiment(
        ds,
        ["ta_dualcv", "mice_only", "mean_fill"],
        [("random_rate", r) for r in rates],
        seeds,
        Config(),
    )
    macro = {}
    for r in reports:
        macro.setdefault((r.variant, r.rate), []).append(r.macro_nrmse)
    ok = True
    lines = []
    for rate in rates:
        ta = float(np.mean(macro[("ta_dualcv", rate)]))
        mice = float(np.mean(macro[("mice_only", rate)]))
        mean = float(np.mean(macro[("mean_fill", rate)]))
        lines.append(f"rate {rate}: ta {ta:.3f} vs mice {mice:.3f} vs mean {mean:.3f}")
        ok = ok and ta < mice and ta < mean
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    report(10, ok, f"ordering on synthetic data ({'; '.join(lines)}; {elapsed:.0f}s)")


def test_criterion_11_normalization_round_trip():
    rng = np.random.default_rng(6)
    values = rng.uniform(-100.0, 900.0, size=(40, 5))
    values[rng.random(values.shape) < 0.25] = np.nan
    values[:, 2] = 3.25   # constant feature
    values[:, 4] = np.nan
    values[0, 4] = 1.5    # single observation, also degenerate range
    ds = make_dataset([("a", (np.arange(40) * 3).tolist(), values)])
    normalized, nmap = normalize(ds)
    back = denormalize(normalized, nmap)
    dev = np.nanmax(np.abs(back.visits[0].values - values))
    inside = np.nanmin(normalized.visits[0].values) >= 0.0 and (
        np.nanmax(normalized.visits[0].values) <= 1.0
    )
    ok = dev <= 1e-12 and inside
    report(11, ok, f"normalization round trip (worst dev {dev:.2e})")


def test_criterion_12_bench_determinism(tmp_path):
    data = tmp_path / "data.csv"
    ds, _ = generate(
        SynthConfig(n_visits=8, n_features=3, events_per_visit=(4, 7),
                    noise_scale=0.05, native_missing_rate=0.1, seed=9)
    )
    from tadualcv.io_formats import emit_long_csv

    emit_long_csv(ds, data)
    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        code = main([
            "bench", "--data", str(data), "--rates", "20,50",
            "--methods", "tadualcv,meanfill", "--seeds", "3",
            "--chains", "2", "--iterations", "2", "--out-dir", str(out_dir),
        ])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.glob("*.txt"))})
    ok = outputs[0] == outputs[1] and len(outputs[0]) == 4
    report(12, ok, f"bench byte-identical on rerun ({len(outputs[0])} reports)")
