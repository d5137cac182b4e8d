import numpy as np
import pytest

from tadualcv.config import Config, ConfigError
from tadualcv.data_model import DataError
from tadualcv.dualcv import cfp_impute, dualcv_impute, per_visit_mean_std
from tadualcv.evaluation import denormalize_value, normalize
from tadualcv.gp_within_visit import gp_impute_visit
from tadualcv.methods import (
    VARIANTS,
    ecf_fill,
    feature_means,
    fuse,
    fusion_weights,
    impute,
    mean_fill,
)
from tadualcv.synthetic import SynthConfig, generate

from conftest import NAN, make_dataset


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
        want = dualcv_impute(normalized, config).fills
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
