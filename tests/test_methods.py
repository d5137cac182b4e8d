import os

import numpy as np
import pytest

import tadualcv.chained_equations as ce
from tadualcv import forking, gp_within_visit, methods
from tadualcv.config import Config, ConfigError
from tadualcv.data_model import DataError, apply_mask
from tadualcv.dualcv import cfp_impute, cross_visit_chains, dualcv_impute, per_visit_mean_std
from tadualcv.evaluation import denormalize_value, mask_random, normalize
from tadualcv.gp_within_visit import gp_buckets, gp_impute_visit
from tadualcv.methods import (
    MODEL_VARIANTS,
    VARIANTS,
    ecf_fill,
    feature_means,
    fuse,
    fusion_weights,
    impute,
    mean_fill,
    plan,
)
from tadualcv.synthetic import SynthConfig, generate

from conftest import NAN, assert_no_child_left, make_dataset


def test_fusion_weights_zero_gp_dispersion():
    theta1, theta2 = fusion_weights(0.2, 0.0)
    assert (theta1, theta2) == (0.0, 1.0)
    assert fuse(0.4, 0.9, theta1, theta2) == 0.9


def test_fusion_equal_dispersion_midpoint():
    t1, t2 = fusion_weights(0.1, 0.1)
    assert fuse(0.4, 0.6, t1, t2) == 0.5
    assert t1 == t2 == 0.5


def test_fusion_gp_gap_falls_back_to_dualcv():
    assert fuse(0.3, np.nan, *fusion_weights(0.1, 0.4)) == 0.3


def test_fusion_undefined_dispersion_splits_evenly():
    assert fusion_weights(float("nan"), 0.3) == (0.5, 0.5)
    assert fusion_weights(0.0, 0.0) == (0.5, 0.5)


def test_fusion_weights_sum_and_swap_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        sm, sg = rng.uniform(0, 1, size=2)
        t1, t2 = fusion_weights(sm, sg)
        assert abs(t1 + t2 - 1.0) < 1e-15
        swapped = fusion_weights(sg, sm)
        assert swapped == (t2, t1)


def test_fusion_output_convex():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.uniform(-2, 2, size=2)
        sm, sg = rng.uniform(0, 1, size=2)
        value = fuse(a, b, *fusion_weights(sm, sg))
        assert min(a, b) - 1e-12 <= value <= max(a, b) + 1e-12


def test_mean_fill_examples():
    ds = make_dataset([("a", [0, 10, 20], [[1.0], [NAN], [3.0]])])
    out = mean_fill(ds)
    assert out.visits[0].values[1, 0] == 2.0

    complete = make_dataset([("a", [0], [[1.0, 2.0]])])
    np.testing.assert_array_equal(
        mean_fill(complete).visits[0].values, complete.visits[0].values
    )


def test_mean_fill_features_independent():
    ds = make_dataset(
        [("a", [0, 10], [[1.0, 100.0], [NAN, NAN]]), ("b", [0], [[3.0, 300.0]])]
    )
    out = mean_fill(ds)
    assert out.visits[0].values[1, 0] == 2.0
    assert out.visits[0].values[1, 1] == 200.0


def test_mean_fill_fully_missing_feature_errors():
    ds = make_dataset([("a", [0, 10], [[1.0, NAN], [2.0, NAN]])])
    with pytest.raises(DataError, match="has no observations"):
        mean_fill(ds)


def test_ecf_carries_within_window():
    ds = make_dataset(
        [("a", [0, 300], [[80.0], [NAN]])], kinds=["vital"]
    )
    out = ecf_fill(ds)
    assert out.visits[0].values[1, 0] == 80.0


def test_ecf_expired_window_uses_mean():
    # observed 80 @ t=0 and 100 @ t=1000, hole at t=600: the carry source is
    # 600 minutes old (> 480) so the cross-visit mean 90 wins
    ds = make_dataset(
        [("a", [0, 600, 1000], [[80.0], [NAN], [100.0]])], kinds=["vital"]
    )
    out = ecf_fill(ds)
    assert out.visits[0].values[1, 0] == 90.0


def test_ecf_no_prior_observation_uses_mean():
    ds = make_dataset([("a", [0, 10], [[NAN], [80.0]])], kinds=["vital"])
    out = ecf_fill(ds)
    assert out.visits[0].values[0, 0] == 80.0


def test_ecf_kind_windows_differ():
    ds = make_dataset(
        [("a", [0, 600], [[10.0, 10.0], [NAN, NAN]])], kinds=["vital", "lab"]
    )
    out = ecf_fill(ds)
    # 600 min exceeds the 480-minute vital window but not the 1440-minute lab one
    assert out.visits[0].values[1, 0] == 10.0  # mean coincides with carry here
    assert out.visits[0].values[1, 1] == 10.0
    ds2 = make_dataset(
        [("a", [0, 600], [[10.0, 10.0], [NAN, NAN]]), ("b", [0], [[40.0, 40.0]])],
        kinds=["vital", "lab"],
    )
    out2 = ecf_fill(ds2)
    assert out2.visits[0].values[1, 0] == 25.0  # window expired -> mean
    assert out2.visits[0].values[1, 1] == 10.0  # carried within lab window


def test_ecf_infinite_window_is_locf():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, size=(8, 1))
    values[3, 0] = values[6, 0] = np.nan
    ds = make_dataset([("a", (np.arange(8) * 100).tolist(), values)])
    out = ecf_fill(ds, windows={"other": 10**9})
    assert out.visits[0].values[3, 0] == values[2, 0]
    assert out.visits[0].values[6, 0] == values[5, 0]


def ecf_oracle(dataset, windows):
    """Per-visit, per-feature, per-hole carry-forward loop."""
    means = feature_means(dataset)
    values = dataset.values.copy()
    for start, visit in zip(dataset.starts.tolist(), dataset.visits):
        times = visit.times
        for f, spec in enumerate(dataset.features):
            window = windows.get(spec.kind, windows.get("other", 480))
            col = visit.values[:, f]
            obs = np.nonzero(~np.isnan(col))[0]
            for e in np.nonzero(np.isnan(col))[0]:
                pos = np.searchsorted(times[obs], times[e], side="right") - 1
                carried = None
                if pos >= 0 and times[e] - times[obs[pos]] <= window:
                    carried = col[obs[pos]]
                values[start + e, f] = means[f] if carried is None else carried
    return values


@pytest.mark.parametrize(
    "windows", [None, {"vital": 30, "lab": 60, "other": 45}, {"other": 10**9}]
)
def test_ecf_matches_loop_oracle(windows):
    generated, _ = generate(
        SynthConfig(n_visits=40, n_features=4, events_per_visit=(2, 12),
                    native_missing_rate=0.5, seed=6)
    )
    visits = [(v.visit_id, v.times, v.values.copy()) for v in generated.visits]
    for _, _, values in visits:
        values[:, 2] = NAN
    # a single-event visit holds the only observation of feature 2
    visits.append(("solo", [5], [[NAN, 0.3, 0.7, NAN]]))
    ds = make_dataset(visits, kinds=["vital", "lab", "other", "vital"])
    out = ecf_fill(ds, windows)
    expected = ecf_oracle(ds, dict(windows or Config().ecf_windows))
    np.testing.assert_array_equal(out.values.view(np.uint64), expected.view(np.uint64))
    assert not np.isnan(out.values).any()


def test_unknown_variant_rejected():
    ds = make_dataset([("a", [0], [[1.0]])])
    with pytest.raises(ConfigError, match="unknown method variant"):
        impute(ds, "nosuch")


@pytest.mark.parametrize("variant", VARIANTS)
def test_unobserved_feature_rejected(variant):
    # no variant may fill a feature it never saw with a placeholder
    ds = make_dataset(
        [
            ("a", [0, 10, 20], [[1.0, NAN], [2.0, NAN], [NAN, NAN]]),
            ("b", [0, 10], [[3.0, NAN], [4.0, NAN]]),
        ],
        names=["x", "y"],
    )
    with pytest.raises(DataError, match="feature 'y' has no observations"):
        impute(ds, variant, Config(chains=2, iterations=2))


def test_mice_only_matches_cfp_dispatch():
    ds = make_dataset(
        [
            ("a", [0, 10, 20], [[0.1, 0.9], [0.4, NAN], [0.7, 0.3]]),
            ("b", [0, 10], [[0.2, 0.8], [NAN, 0.5]]),
        ]
    )
    config = Config(seed=7)
    out = impute(ds, "mice_only", config)
    normalized, nmap = normalize(ds)
    fills, _ = cfp_impute(normalized, config)
    for row, col in zip(*np.nonzero(~np.isnan(fills))):
        want = denormalize_value(fills[row, col], col, nmap)
        assert out.dataset.values[row, col] == want


def test_ta_dualcv_theta_fallback_without_gp():
    # every incomplete feature has a single in-visit observation, so the GP
    # skips everything and the fused output is exactly the dual-view output
    ds = make_dataset(
        [
            ("a", [0, 10], [[0.2, NAN], [NAN, 0.6]]),
            ("b", [0, 10], [[0.4, 0.1], [NAN, 0.9]]),
            ("c", [0, 10], [[0.3, 0.5], [0.8, NAN]]),
        ]
    )
    config = Config(chains=1, seed=3)
    full = impute(ds, "ta_dualcv", config)
    no_gp = impute(ds, "ta_dualcv_noI", config)
    for visit_full, visit_nogp in zip(full.dataset.visits, no_gp.dataset.visits):
        np.testing.assert_array_equal(visit_full.values, visit_nogp.values)
    assert np.all(np.isnan(full.per_visit_sigma_g))


def test_ta_dualcv_pure_gp_when_dualcv_disperses():
    # feature 1 is constant within each visit, so GP fills are exact with
    # zero dispersion; cross-visit chains disagree, so theta goes all-in on GP
    ds = make_dataset(
        [
            ("a", [0, 10, 20, 30], [[0.1, 0.3], [0.5, 0.3], [0.9, NAN], [0.2, 0.3]]),
            ("b", [0, 10, 20, 30], [[0.8, 0.7], [0.3, 0.7], [0.6, NAN], [0.4, 0.7]]),
        ]
    )
    config = Config(w1=1.0, w2=0.0, seed=11)
    out = impute(ds, "ta_dualcv", config)
    assert out.per_visit_sigma_m[0] > 0.0  # chains must disagree for the test to bite
    assert out.per_visit_sigma_g[0] == 0.0
    assert abs(out.dataset.visits[0].values[2, 1] - 0.3) < 1e-12
    assert abs(out.dataset.visits[1].values[2, 1] - 0.7) < 1e-12
    assert out.per_visit_theta2[0] == 1.0


def test_all_variants_preserve_observed_cells():
    config = Config(chains=2, iterations=3, seed=0)
    ds, _ = generate(
        SynthConfig(n_visits=6, n_features=3, events_per_visit=(4, 7),
                    noise_scale=0.02, native_missing_rate=0.25, seed=5)
    )
    for variant in VARIANTS:
        out = impute(ds, variant, config)
        for before, after in zip(ds.visits, out.dataset.visits):
            observed = before.observed()
            np.testing.assert_array_equal(
                after.values[observed], before.values[observed]
            )
            assert not np.isnan(after.values).any()


def force_workers(monkeypatch, workers):
    """Plan every ``impute()`` over ``workers`` workers, whatever the CPUs."""
    monkeypatch.setattr(forking, "workers", lambda: workers)


def recorded_plans(monkeypatch):
    """The shares of every plan ``impute()`` makes from here on."""
    plans, plan = [], methods.plan

    def recording(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(methods, "plan", recording)
    return plans


def in_children(shares, stage):
    """Whether a share other than the first, run in a forked child, holds ``stage``."""
    return any(s == stage for share in shares[1:] for s, _ in share)


def test_impute_leaves_no_child_process(monkeypatch):
    # two workers; the second run fails in the child, which runs CFP chains
    force_workers(monkeypatch, 2)
    plans = recorded_plans(monkeypatch)
    ds, _ = generate(
        SynthConfig(n_visits=6, n_features=3, events_per_visit=(4, 7),
                    noise_scale=0.02, native_missing_rate=0.25, seed=5)
    )
    config = Config(chains=2, iterations=2, seed=0)
    impute(ds, "ta_dualcv", config)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert in_children(plans[-1], "cfp")

    parent, sweep = os.getpid(), ce._sweep

    def fail_in_child(*batch):
        if os.getpid() != parent:
            raise ce.DegenerateModelError("failed in a child")
        sweep(*batch)

    monkeypatch.setattr(ce, "_sweep", fail_in_child)
    with pytest.raises(ce.DegenerateModelError, match="^failed in a child$"):
        impute(ds, "ta_dualcv", config)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The benchmark's inputs: cohort_m (M), long_visits (L) and cli_wide_mice (W),
# each masked at rate 0.5, and the variant each runs.
BENCH_SHAPES = {
    "M": (dict(n_visits=200, n_features=8, events_per_visit=(10, 40)), "ta_dualcv"),
    "L": (dict(n_visits=60, n_features=4, events_per_visit=(40, 100)), "ta_dualcv"),
    "W": (dict(n_visits=1500, n_features=16, events_per_visit=(4, 12)), "mice_only"),
}


def planned(shape, workers):
    """The plan ``impute()`` makes for a benchmark input, and its GP buckets."""
    synth, variant = BENCH_SHAPES[shape]
    premask, _ = generate(
        SynthConfig(**synth, noise_scale=0.05, native_missing_rate=0.1, seed=0)
    )
    normalized, _ = normalize(apply_mask(premask, mask_random(premask, 0.5, seed=0)))
    cross, gp = MODEL_VARIANTS[variant]
    chains = cross_visit_chains(normalized, cross, Config())
    buckets = gp_buckets(normalized) if gp else {}
    return plan({stage: c.shape for stage, c in chains.items()}, buckets, workers), buckets


def test_plan_on_m_runs_ctp_here_and_cfp_then_the_gp_in_one_child():
    shares, buckets = planned("M", 2)
    assert shares == [[("ctp", range(40))], [("cfp", range(5)), ("gp", tuple(sorted(buckets)))]]


def test_plan_on_l_splits_ctp_and_spreads_the_gp():
    shares, buckets = planned("L", 2)
    assert len(shares) == 2
    units = [unit for share in shares for unit in share]
    ctp = sorted((part for stage, part in units if stage == "ctp"), key=lambda r: r.start)
    assert ctp == [range(10), range(10, 20)]
    gp = [part for stage, part in units if stage == "gp"]
    assert len(gp) == 2 and sorted(n for part in gp for n in part) == sorted(buckets)


def test_plan_on_w_splits_cfp_3_2():
    shares, _ = planned("W", 2)
    assert shares == [[("cfp", range(3))], [("cfp", range(3, 5))]]


@pytest.mark.parametrize("shape", BENCH_SHAPES)
def test_plan_on_one_worker_runs_every_stage_here_in_order(shape):
    shares, buckets = planned(shape, 1)
    ctp = {"M": [("ctp", range(40))], "L": [("ctp", range(20))], "W": []}[shape]
    gp = [("gp", tuple(sorted(buckets)))] if buckets else []
    assert shares == [[("cfp", range(5)), *ctp, *gp]]


def test_plan_takes_fewer_blocks_on_a_tie_and_drops_idle_workers():
    # one member cannot split; four workers then leave three idle
    assert plan({"cfp": (100, 3, 1, 10)}, {}, 4) == [[("cfp", range(1))]]
    assert plan({}, {}, 3) == [[]]
    # the one-member stage sets the makespan however the other is split
    shares = plan({"cfp": (100, 3, 4, 10), "ctp": (50, 20, 1, 10)}, {}, 2)
    assert shares == [[("ctp", range(1))], [("cfp", range(4))]]


def small_cohort():
    ds, _ = generate(
        SynthConfig(n_visits=6, n_features=3, events_per_visit=(4, 7),
                    noise_scale=0.02, native_missing_rate=0.25, seed=5)
    )
    return ds


@pytest.mark.parametrize("variant", VARIANTS)
def test_impute_same_bits_forked_or_in_process(monkeypatch, variant):
    ds, config = small_cohort(), Config(chains=2, iterations=3, seed=0)
    joined, join = [], forking.Child.join

    def recording_join(child):
        joined.append(join(child))
        return joined[-1]

    monkeypatch.setattr(forking.Child, "join", recording_join)
    plans = recorded_plans(monkeypatch)
    force_workers(monkeypatch, 1)
    alone = impute(ds, variant, config)
    assert joined == []
    cross, gp = MODEL_VARIANTS.get(variant, (None, False))
    for workers in (2, 3):
        force_workers(monkeypatch, workers)
        joined.clear()
        forked = impute(ds, variant, config)
        assert_no_child_left()
        # one child per share past the first, each sending back the units the
        # plan gave it; the GP ran in a child wherever the variant has one
        shares = plans[-1] if variant in MODEL_VARIANTS else [[]]
        assert len(joined) == len(shares) - 1
        for share, (done, fitted, error) in zip(shares[1:], joined):
            assert [(stage, part) for stage, part, _ in done] == [u for u in share if u[0] != "gp"]
            assert len(fitted) == sum(stage == "gp" for stage, _ in share) and error is None
        assert in_children(shares, "gp") == gp
        for name in ("per_visit_sigma_m", "per_visit_sigma_g", "per_visit_theta1",
                     "per_visit_theta2", "stds"):
            a, b = getattr(alone, name), getattr(forked, name)
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        np.testing.assert_array_equal(
            alone.dataset.values.view(np.uint64), forked.dataset.values.view(np.uint64)
        )


def fail_in_child(monkeypatch, module, name, error):
    """Make ``module.name`` raise ``error`` in any process but this one."""
    parent, original = os.getpid(), getattr(module, name)

    def failing(*args):
        if os.getpid() != parent:
            raise error
        return original(*args)

    monkeypatch.setattr(module, name, failing)


@pytest.mark.parametrize("variant", ["ta_dualcv", "three_d_mice"])
def test_gp_failure_in_its_child_is_raised_here(monkeypatch, variant):
    force_workers(monkeypatch, 2)
    plans = recorded_plans(monkeypatch)
    error = gp_within_visit.IllConditionedCorrelationError("failed in the GP child")
    fail_in_child(monkeypatch, gp_within_visit, "_fit", error)
    with pytest.raises(gp_within_visit.IllConditionedCorrelationError,
                       match="^failed in the GP child$"):
        impute(small_cohort(), variant, Config(chains=2, iterations=2, seed=0))
    assert in_children(plans[-1], "gp")
    assert_no_child_left()


def test_cross_visit_failure_wins_over_a_gp_failure(monkeypatch):
    plans = recorded_plans(monkeypatch)
    fail_in_child(monkeypatch, gp_within_visit, "_fit", ValueError("GP failed"))
    fail_in_child(monkeypatch, ce, "_sweep", ce.DegenerateModelError("chains failed"))
    # two workers: one child runs CFP chains, then GP buckets; three: the
    # GP buckets of the second child fail while the first child's chains fail
    for workers in (2, 3):
        force_workers(monkeypatch, workers)
        with pytest.raises(ce.DegenerateModelError, match="^chains failed$"):
            impute(small_cohort(), "ta_dualcv", Config(chains=2, iterations=2, seed=0))
        assert in_children(plans[-1], "cfp") and in_children(plans[-1], "gp")
        assert_no_child_left()


def _gp_parts(dataset):
    """GP fills and stds as (E, D) arrays, fitted one visit at a time, and per-visit mean GP std."""
    fills, stds = np.full(dataset.values.shape, NAN), np.full(dataset.values.shape, NAN)
    for start, visit in zip(dataset.starts.tolist(), dataset.visits):
        result = gp_impute_visit(visit.times, visit.values)
        for (e, f), value in result.fills.items():
            fills[start + e, f] = value
            stds[start + e, f] = result.stds[(e, f)]
    return fills, stds, per_visit_mean_std(dataset, stds)


@pytest.mark.parametrize("variant", ["ta_dualcv_noI", "three_d_mice", "ta_dualcv_noC"])
def test_variant_table_cell_meaning(variant):
    # each model variant rebuilt from its (cross-visit, GP) parts
    ds, _ = generate(
        SynthConfig(n_visits=6, n_features=3, events_per_visit=(3, 6),
                    noise_scale=0.02, native_missing_rate=0.4, seed=5)
    )
    config = Config(chains=2, iterations=3, seed=0)
    normalized, nmap = normalize(ds)
    n = ds.n_visits
    theta1 = np.full(n, np.nan)
    want_stds = np.full(ds.values.shape, NAN)
    if variant == "ta_dualcv_noI":
        want, _ = dualcv_impute(normalized, config)
    elif variant == "three_d_mice":
        cfp_fills, cfp_stds = cfp_impute(normalized, config)
        gp_fills, _, sigma_g = _gp_parts(normalized)
        sigma_m = per_visit_mean_std(normalized, cfp_stds)
        want = np.full(ds.values.shape, NAN)
        for i in range(n):
            block = slice(ds.starts[i], ds.starts[i + 1])
            if not np.isnan(cfp_fills[block]).all():
                theta1[i], t2 = fusion_weights(sigma_m[i], sigma_g[i])
                want[block] = fuse(cfp_fills[block], gp_fills[block], theta1[i], t2)
        assert not np.isnan(gp_fills).all()  # the GP must take part for the test to bite
    else:
        gp_fills, _, _ = _gp_parts(normalized)
        means = feature_means(normalized)
        fallback = np.isnan(normalized.values) & np.isnan(gp_fills)
        want = np.where(fallback, means, gp_fills)
        want_stds[fallback] = 0.0
        assert not np.isnan(gp_fills).all() and fallback.any()  # both rules must apply

    out = impute(ds, variant, config)
    assert np.count_nonzero(~np.isnan(want)) == np.count_nonzero(np.isnan(ds.values))
    for row, col in zip(*np.nonzero(~np.isnan(want))):
        got = out.dataset.values[row, col]
        assert got == denormalize_value(want[row, col], col, nmap)
    for row, col in zip(*np.nonzero(~np.isnan(want_stds))):
        assert out.stds[row, col] == want_stds[row, col]
    np.testing.assert_array_equal(out.per_visit_theta1, theta1)
