from dataclasses import fields

import numpy as np
import pytest

from tadualcv import gp_within_visit
from tadualcv.data_model import Dataset, FeatureSpec
from tadualcv.gp_within_visit import (
    GPBuckets,
    corr,
    fit_gp,
    gp_impute_visit,
    gp_predict,
    profile_neg_log_likelihood,
)

from conftest import assert_same_bits

NAN = float("nan")


def dense_predict_oracle(alpha, times, values, nugget, query):
    """Predictive mean/std via explicit dense inverses, no shared code."""
    t = np.asarray(times, float)
    y = np.asarray(values, float)
    n = t.size
    corr_full = np.exp(-alpha * (t[:, None] - t[None, :]) ** 2) + nugget * np.eye(n)
    inv = np.linalg.inv(corr_full)
    ones = np.ones(n)
    mu = (ones @ inv @ y) / (ones @ inv @ ones)
    resid = y - mu
    sigma2 = (resid @ inv @ resid) / n
    q = np.asarray(query, float)
    r = np.exp(-alpha * (t[:, None] - q[None, :]) ** 2)
    mean = mu + r.T @ inv @ resid
    quad = np.einsum("ij,ik,kj->j", r, inv, r)
    one_r = r.T @ inv @ ones
    var = sigma2 * np.maximum(0.0, 1.0 - quad + (1.0 - one_r) ** 2 / (ones @ inv @ ones))
    return mean, np.sqrt(var)


def dense_nll_oracle(alpha, times, values, nugget):
    t = np.asarray(times, float)
    y = np.asarray(values, float)
    n = t.size
    corr_full = np.exp(-alpha * (t[:, None] - t[None, :]) ** 2) + nugget * np.eye(n)
    inv = np.linalg.inv(corr_full)
    ones = np.ones(n)
    mu = (ones @ inv @ y) / (ones @ inv @ ones)
    resid = y - mu
    return np.log(np.linalg.det(corr_full)) + n * np.log(resid @ inv @ resid + 1e-24)


def sample_smooth_series(rng, n, alpha=1.0):
    """Draw from a GP with the squared-exponential correlation itself."""
    t = np.sort(rng.uniform(0.0, 1.0, size=n))
    t += np.arange(n) * 1e-6  # keep times distinct
    cov = np.exp(-alpha * (t[:, None] - t[None, :]) ** 2) + 1e-10 * np.eye(n)
    y = np.linalg.cholesky(cov) @ rng.standard_normal(n)
    return t, y


def test_corr_examples():
    assert corr(2.3, 5.0, 5.0) == 1.0
    assert abs(corr(1.0, 0.0, 1.0) - np.exp(-1.0)) < 1e-12
    assert abs(corr(1.0, 0.0, 1.0) - 0.3678794) < 1e-7
    assert corr(0.7, 1.2, 3.4) == corr(0.7, 3.4, 1.2)


def test_corr_matrix_symmetric_unit_diagonal():
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0, 10, size=6))
    mat = corr(0.3, t[:, None], t[None, :])
    np.testing.assert_array_equal(np.diag(mat), np.ones(6))
    np.testing.assert_allclose(mat, mat.T)
    # nugget-inflated matrix must be positive definite
    np.linalg.cholesky(mat + 1e-8 * 6 * np.eye(6))


def test_profile_nll_constant_values_finite():
    value = profile_neg_log_likelihood(1.0, [0.0, 0.5, 1.0], [2.0, 2.0, 2.0])
    assert np.isfinite(value)


def test_profile_nll_symmetric_two_points_mean():
    # two points: both rows of R sum alike at every alpha, so mu = 0.5
    mu = fit_gp([0.0, 1.0], [0.0, 1.0]).mu_hat
    assert abs(mu - 0.5) < 1e-12


def test_profile_nll_matches_dense_oracle():
    rng = np.random.default_rng(10)
    for _ in range(5):
        t, y = sample_smooth_series(rng, 3)
        nugget = 1e-8 * 3
        got = profile_neg_log_likelihood(0.8, t, y)
        want = dense_nll_oracle(0.8, t, y, nugget)
        assert abs(got - want) < 1e-10


def test_fit_constant_values_predicts_constant():
    model = fit_gp([0.0, 10.0, 20.0], [7.0, 7.0, 7.0])
    mean, std = gp_predict(model, [5.0, 15.0])
    np.testing.assert_allclose(mean, [7.0, 7.0], atol=1e-9)
    np.testing.assert_allclose(std, [0.0, 0.0], atol=1e-9)


def test_fit_matches_grid_search_argmin():
    rng = np.random.default_rng(21)
    t, y = sample_smooth_series(rng, 30, alpha=1.0)
    model = fit_gp(t, y)
    grid = np.logspace(-6, 4, 200)
    scaled = t / model.time_scale
    objective = [profile_neg_log_likelihood(a, scaled, y) for a in grid]
    best = grid[int(np.argmin(objective))]
    ratio = model.alpha / best
    assert 1 / 3 < ratio < 3


def test_fit_objective_beats_search_endpoints():
    rng = np.random.default_rng(33)
    t, y = sample_smooth_series(rng, 12)
    model = fit_gp(t, y)
    scaled = t / model.time_scale
    at_alpha = profile_neg_log_likelihood(model.alpha, scaled, y)
    assert at_alpha <= profile_neg_log_likelihood(1e-6, scaled, y) + 1e-9
    assert at_alpha <= profile_neg_log_likelihood(1e4, scaled, y) + 1e-9


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_gp([0.0], [1.0])
    with pytest.raises(ValueError):
        fit_gp([0.0, 0.0], [1.0, 2.0])


def test_predict_interpolates_training_points_with_tiny_nugget(monkeypatch):
    monkeypatch.setattr(gp_within_visit, "NUGGET_BASE", 1e-12)
    rng = np.random.default_rng(4)
    t, y = sample_smooth_series(rng, 8)
    model = fit_gp(t, y)
    mean, std = gp_predict(model, t)
    np.testing.assert_allclose(mean, y, atol=1e-6)
    assert np.all(std <= 1e-3)


def test_predict_symmetric_midpoint():
    # at every alpha equal row sums force mu = 0.5 and the midpoint
    # correlation vector is symmetric, so the prediction is the mean.
    model = fit_gp([0.0, 1.0], [0.0, 1.0])
    mean, _ = gp_predict(model, [0.5])
    assert abs(mean[0] - 0.5) < 1e-12


def test_predict_matches_dense_oracle():
    rng = np.random.default_rng(77)
    t, y = sample_smooth_series(rng, 4)
    model = fit_gp(t, y)
    query = np.array([0.15, 0.4, 0.9])
    mean, std = gp_predict(model, query)
    want_mean, want_std = dense_predict_oracle(
        model.alpha, model.train_times, y, model.nugget, query / model.time_scale
    )
    np.testing.assert_allclose(mean, want_mean, atol=1e-8)
    np.testing.assert_allclose(std, want_std, atol=1e-8)


def test_predict_far_field_variance_level():
    rng = np.random.default_rng(5)
    t, y = sample_smooth_series(rng, 10)
    model = fit_gp(t, y)
    far = (t.max() + 100.0 / np.sqrt(model.alpha)) * model.time_scale
    _, std = gp_predict(model, [far])
    train = model.train_times
    corr_full = corr(model.alpha, train[:, None], train[None, :]) + model.nugget * np.eye(t.size)
    denom = float(np.sum(np.linalg.solve(corr_full, np.ones(t.size))))
    want = np.sqrt(model.sigma2_hat * (1.0 + 1.0 / denom))
    assert abs(std[0] - want) <= 0.05 * want


def test_fit_is_deterministic():
    rng = np.random.default_rng(8)
    t, y = sample_smooth_series(rng, 15)
    a = fit_gp(t, y)
    b = fit_gp(t, y)
    assert a.alpha == b.alpha and a.mu_hat == b.mu_hat


def test_impute_visit_fully_observed_feature_untouched():
    values = np.array([[1.0, 2.0], [1.5, NAN], [2.0, 3.0]])
    result = gp_impute_visit([0, 10, 20], values)
    assert np.isnan(result.fills[:, 0]).all() and np.isnan(result.stds[:, 0]).all()


def test_impute_visit_single_observation_skipped():
    values = np.array([[1.0, 2.0], [NAN, 3.0], [NAN, 4.0]])
    result = gp_impute_visit([0, 10, 20], values)
    assert result.skipped_features == [0]
    assert np.isnan(result.fills).all() and np.isnan(result.stds).all()


def test_impute_visit_linear_trend():
    times = np.array([0, 100, 150, 200, 300])
    col = np.array([0.0, 1.0, NAN, 2.0, 3.0])
    result = gp_impute_visit(times, col[:, None])
    assert abs(result.fills[2, 0] - 1.5) < 0.1
    assert result.stds[2, 0] >= 0.0


# ---------------------------------------------------------------------------
# The batched kernel: every (visit, feature) fit is isolated from the others
# fitted with it.
# ---------------------------------------------------------------------------


@pytest.fixture
def bucket_fits(monkeypatch):
    """Record each bucket the stacked path fits as (times, values, fits, ok, failed_alpha)."""
    calls = []
    fit = gp_within_visit._fit

    def recording_fit(times, values):
        out = fit(times, values)
        calls.append((times, values, *out))
        return out

    monkeypatch.setattr(gp_within_visit, "_fit", recording_fit)
    return calls


def ragged_layout():
    """Stacked (E, 2) layout whose fits have n = 2 and 3 to 30 observations.

    Sizes 2, 5 and 12 appear twice so those buckets hold several members, and
    feature 1 of visit 3 is constant.
    """
    rng = np.random.default_rng(12)
    times, blocks = [], []
    for i, n in enumerate([2, 2, 3, 5, 5, 8, 12, 12, 17, 23, 30]):
        size = n + 1 + i % 3
        t = np.cumsum(rng.uniform(1.0, 30.0, size=size))
        block = np.full((size, 2), NAN)
        seen = np.sort(rng.choice(size, size=n, replace=False))
        block[seen, 0] = np.sin(t[seen] / 40.0) + 0.1 * rng.standard_normal(n)
        block[:, 1] = 0.7 if i == 3 else rng.uniform(0.0, 1.0, size=size)
        block[i % size, 1] = NAN
        times.append(t)
        blocks.append(block)
    starts = np.cumsum([0] + [len(t) for t in times])
    return np.concatenate(times), np.vstack(blocks), starts


def near_duplicate_layout():
    """Three visits with one n = 3 fit each; visit 0's times 0 and 1e-12 nearly coincide."""
    times = np.array([0, 1e-12, 0.3, 0.7, 1.0, 0, 0.3, 0.5, 0.7, 1.0, 0, 0.2, 0.6, 0.8, 1.0])
    values = np.array(
        [0.1, 0.4, NAN, NAN, 0.9, 0.2, NAN, 0.5, NAN, 0.1, 0.3, 0.6, NAN, NAN, 0.2]
    )
    return times, values[:, None], np.array([0, 5, 10, 15])


def run_buckets(times, values, starts):
    """Run every bucket of a stacked layout's ``GPBuckets``, one feature per column.

    Returns the fills, the stds, the (visit, feature) pairs with a hole left
    open, and the buckets' ``(problem id, alpha)`` pairs that failed to factor.
    """
    specs = [FeatureSpec(k, f"f_{k}") for k in range(values.shape[1])]
    ids = [f"v{i}" for i in range(len(starts) - 1)]
    dataset = Dataset.from_stacked(specs, ids, times, values, np.asarray(starts))
    stage = GPBuckets(dataset)
    results = [(n, stage.run(n)) for n in stage.buckets]
    fills, stds = stage.collect(results)
    rows, cols = np.nonzero(np.isnan(values) & np.isnan(fills))
    skipped = sorted({(int(dataset.visit_of_row[r]), int(c)) for r, c in zip(rows, cols)})
    return fills, stds, skipped, [pair for _, result in results for pair in result[-1]]


def singleton_fills(times, values, starts, visit, feature):
    """Fills and stds of one (visit, feature) fitted alone through the public API."""
    rows = slice(starts[visit], starts[visit + 1])
    col = values[rows, feature]
    seen = ~np.isnan(col)
    model = fit_gp(times[rows][seen], col[seen])
    return gp_predict(model, times[rows][~seen])


def test_stacked_fits_are_bit_identical_to_singletons(bucket_fits):
    times, values, starts = ragged_layout()
    fills, stds, skipped, failed = run_buckets(times, values, starts)
    buckets = list(bucket_fits)
    sizes = [y.shape[1] for _, y, *_ in buckets]
    assert min(sizes) == 2 and max(sizes) >= 30 and len(set(sizes)) == len(sizes)
    assert max(len(y) for _, y, *_ in buckets) > 1
    for t, y, fits, ok, _ in buckets:
        assert ok.all()
        for b in range(len(y)):
            alone = fit_gp(t[b], y[b])
            assert alone.alpha == fits.alpha[b]
            assert alone.nugget == fits.profile.nugget[b]
    assert skipped == []
    for visit in range(len(starts) - 1):
        rows = slice(starts[visit], starts[visit + 1])
        for feature in range(2):
            holes = np.isnan(values[rows, feature])
            mean, std = singleton_fills(times, values, starts, visit, feature)
            np.testing.assert_array_equal(fills[rows, feature][holes], mean)
            np.testing.assert_array_equal(stds[rows, feature][holes], std)
    constant = slice(starts[3], starts[4])
    np.testing.assert_allclose(fills[constant, 1][np.isnan(values[constant, 1])], 0.7)


def test_nugget_escalates_only_for_the_ill_conditioned_member(monkeypatch, bucket_fits):
    # at the default nugget no Gaussian correlation matrix fails to factor
    monkeypatch.setattr(gp_within_visit, "NUGGET_BASE", 1e-20)
    times, values, starts = near_duplicate_layout()
    fills, stds, skipped, failed = run_buckets(times, values, starts)
    [(_, _, fits, ok, _)] = bucket_fits
    assert ok.all() and skipped == [] and failed == []
    assert fits.profile.nugget[0] > 3 * gp_within_visit.NUGGET_BASE
    assert list(fits.profile.nugget[1:]) == [3 * gp_within_visit.NUGGET_BASE] * 2
    assert np.isfinite(fills[np.isnan(values)]).all()
    for visit in range(3):
        mean, _ = singleton_fills(times, values, starts, visit, 0)
        rows = slice(starts[visit], starts[visit + 1])
        np.testing.assert_array_equal(fills[rows, 0][np.isnan(values[rows, 0])], mean)


def test_fits_after_a_member_fails_keep_their_batch_of_one_bits(monkeypatch, bucket_fits):
    # Member 0 fails to factor at the search's first point even at
    # NUGGET_MAX, so every later evaluation runs on members 1 and 2 alone,
    # from the rows of the bucket's time differences gathered for them.
    monkeypatch.setattr(gp_within_visit, "NUGGET_BASE", 1e-20)
    monkeypatch.setattr(gp_within_visit, "NUGGET_MAX", 1e-18)
    evaluated = []
    profile = gp_within_visit._profile

    def recording_profile(alpha, diff, rhs):
        evaluated.append(len(alpha))
        return profile(alpha, diff, rhs)

    monkeypatch.setattr(gp_within_visit, "_profile", recording_profile)
    run_buckets(*near_duplicate_layout())
    [(times, values, fits, ok, _)] = bucket_fits
    assert ok.tolist() == [False, True, True]
    assert evaluated[0] == 3 and set(evaluated[1:]) == {2}
    for i, b in enumerate(np.flatnonzero(ok)):
        alone = fit_gp(times[b], values[b])._fits
        for batch, single in ((fits, alone), (fits.profile, alone.profile)):
            for f in fields(batch):
                if f.name != "profile":
                    assert_same_bits(getattr(batch, f.name)[i], getattr(single, f.name)[0])


def test_member_failing_at_max_nugget_is_skipped_alone(monkeypatch):
    monkeypatch.setattr(gp_within_visit, "NUGGET_BASE", 1e-20)
    monkeypatch.setattr(gp_within_visit, "NUGGET_MAX", 1e-18)
    times, values, starts = near_duplicate_layout()
    fills, stds, skipped, failed = run_buckets(times, values, starts)
    assert skipped == [(0, 0)]
    [(problem, alpha)] = failed
    assert problem == 0
    # gp_impute_visit reports the failure of the same fit with its alpha
    alone = gp_impute_visit(times[: starts[1]], values[: starts[1]])
    assert alone.skipped_features == [0]
    assert alone.diagnostics == [
        f"visit 0, feature 0: ill-conditioned correlation at alpha={alpha:g}"
    ]
    assert np.isnan(fills[: starts[1]]).all()
    # the other two members keep the fills they get without the failing one
    rest = slice(starts[1], None)
    mates, mate_stds, _, _ = run_buckets(times[rest], values[rest], starts[1:] - starts[1])
    np.testing.assert_array_equal(fills[starts[1]:], mates)
    np.testing.assert_array_equal(stds[starts[1]:], mate_stds)
    assert np.isfinite(mates[np.isnan(values[starts[1]:])]).all()
    with pytest.raises(gp_within_visit.IllConditionedCorrelationError):
        fit_gp(times[:2].tolist() + [1.0], [0.1, 0.4, 0.9])
