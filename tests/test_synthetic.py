import numpy as np
import pytest

from tadualcv.data_model import Dataset, FeatureSpec, validate
from tadualcv.synthetic import (
    _GAP_RANGE,
    _PERIOD_RANGE,
    SynthConfig,
    _stream_states,
    default_mixing,
    generate,
)

from conftest import assert_same_bits


def test_generated_dataset_validates():
    ds, _ = generate(
        SynthConfig(n_visits=12, n_features=5, events_per_visit=(3, 9),
                    noise_scale=0.1, native_missing_rate=0.4, seed=0)
    )
    assert validate(ds) == []


def test_same_seed_identical():
    config = SynthConfig(n_visits=5, n_features=3, events_per_visit=(4, 8),
                         noise_scale=0.05, native_missing_rate=0.2, seed=9)
    a, truth_a = generate(config)
    b, truth_b = generate(config)
    for va, vb in zip(a.visits, b.visits):
        np.testing.assert_array_equal(va.times, vb.times)
        np.testing.assert_array_equal(va.values, vb.values)
    for ta, tb in zip(truth_a, truth_b):
        np.testing.assert_array_equal(ta, tb)


def test_missing_rate_calibration():
    config = SynthConfig(n_visits=100, n_features=10, events_per_visit=(10, 14),
                         native_missing_rate=0.3, seed=3)
    ds, truths = generate(config)
    total = sum(t.size for t in truths)
    assert total >= 10_000
    observed = ds.n_observed_cells()
    fraction = 1.0 - observed / total
    assert 0.29 <= fraction <= 0.31


def test_identity_mixing_pure_sinusoids():
    config = SynthConfig(n_visits=3, n_features=2, events_per_visit=(5, 5),
                         mixing=np.eye(2), noise_scale=0.0,
                         native_missing_rate=0.3, seed=4)
    ds, truths = generate(config)
    for visit, truth in zip(ds.visits, truths):
        observed = visit.observed()
        np.testing.assert_array_equal(visit.values[observed], truth[observed])
        assert np.all(np.abs(truth) <= 1.0 + 1e-12)


def test_truth_covers_masked_cells():
    config = SynthConfig(n_visits=4, n_features=3, events_per_visit=(4, 6),
                         native_missing_rate=0.5, seed=5)
    ds, truths = generate(config)
    for visit, truth in zip(ds.visits, truths):
        assert truth.shape == visit.values.shape
        assert not np.isnan(truth).any()


def test_default_mixing_row_normalized():
    mixing = default_mixing(6)
    np.testing.assert_allclose(mixing.sum(axis=1), np.ones(6))
    assert (mixing > 0).sum() > 6  # genuinely non-diagonal


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SynthConfig(events_per_visit=(1, 5))
    with pytest.raises(ValueError):
        SynthConfig(noise_scale=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(native_missing_rate=1.0)
    for counts in (dict(n_visits=0), dict(n_visits=-3), dict(n_features=0),
                   dict(n_features=-1)):
        with pytest.raises(ValueError):
            SynthConfig(**counts)


def oracle_generate(config):
    """The per-visit generator loop that ``generate`` replaced, kept as its reference."""
    d = config.n_features
    if config.frequencies is None:
        periods = np.geomspace(*_PERIOD_RANGE, d)
        freqs = 2.0 * np.pi / periods
    else:
        if len(config.frequencies) != d:
            raise ValueError("need one frequency per feature")
        freqs = np.asarray(config.frequencies, dtype=float)
    mixing = default_mixing(d) if config.mixing is None else np.asarray(config.mixing, float)
    if mixing.shape != (d, d):
        raise ValueError("mixing matrix must be D x D")

    features = [FeatureSpec(f, f"f{f}", "other") for f in range(d)]
    times, values, truths = [], [], []
    lo, hi = config.events_per_visit
    for i in range(config.n_visits):
        rng = np.random.default_rng((int(config.seed), i))
        t_i = int(rng.integers(lo, hi + 1))
        gaps = rng.integers(_GAP_RANGE[0], _GAP_RANGE[1] + 1, size=t_i - 1)
        times.append(np.concatenate([[0], np.cumsum(gaps)]))

        phases = rng.uniform(0.0, 2.0 * np.pi, size=d)
        latent = np.sin(times[-1][:, None] * freqs[None, :] + phases[None, :])
        full = latent @ mixing.T
        if config.noise_scale > 0:
            full = full + config.noise_scale * rng.standard_normal((t_i, d))
        truths.append(full)

        if config.native_missing_rate > 0:
            holes = rng.random((t_i, d)) < config.native_missing_rate
            for row in np.nonzero(holes.all(axis=1))[0]:
                holes[row, int(rng.integers(d))] = False
            full = np.where(holes, np.nan, full)
        values.append(full)

    stacked = np.concatenate([np.empty((0, d)), *values])
    # A feature that lost every observation would break downstream baselines.
    for f in np.nonzero(np.isnan(stacked).all(axis=0))[0]:
        stacked[0, f] = truths[0][0, f]

    starts = np.cumsum([0] + [len(t) for t in times])
    times = np.concatenate([np.empty(0, dtype=np.int64), *times])
    ids = [f"v{i}" for i in range(config.n_visits)]
    return Dataset.from_stacked(features, ids, times, stacked, starts), truths


_NOISY = dict(noise_scale=0.05, native_missing_rate=0.1)


@pytest.mark.parametrize(
    "config",
    [
        SynthConfig(n_visits=200, n_features=8, events_per_visit=(10, 40), **_NOISY),
        SynthConfig(n_visits=60, n_features=4, events_per_visit=(40, 100), **_NOISY),
        SynthConfig(n_visits=1500, n_features=16, events_per_visit=(4, 12), **_NOISY),
        SynthConfig(n_visits=12, n_features=4, events_per_visit=(4, 8), **_NOISY, seed=4),
        SynthConfig(n_visits=30, n_features=3, events_per_visit=(2, 2), seed=2),
        SynthConfig(n_visits=40, n_features=2, events_per_visit=(3, 9),
                    native_missing_rate=0.9, seed=5),
        SynthConfig(n_visits=25, n_features=3, events_per_visit=(5, 15),
                    frequencies=(0.01, 0.3, 2.5),
                    mixing=np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 0.0], [3.0, 0.25, -1.0]]),
                    noise_scale=0.2, native_missing_rate=0.5, seed=2**40 + 1),
        SynthConfig(n_visits=1, n_features=1, events_per_visit=(2, 3),
                    native_missing_rate=0.6, seed=11),
    ],
    ids=["cohort_m", "long_visits", "cli_wide_mice", "criterion_9", "events_2_2",
         "rate_0.9_on_2", "custom_freq_mixing", "one_visit_one_feature"],
)
def test_generate_matches_the_per_visit_oracle(config):
    ds, truths = generate(config)
    want, want_truths = oracle_generate(config)
    for name in ("times", "starts"):
        assert getattr(ds, name).dtype == getattr(want, name).dtype
        assert getattr(ds, name).tolist() == getattr(want, name).tolist()
    assert_same_bits(ds.values, want.values)
    assert ds.visit_ids == want.visit_ids and ds.features == want.features
    assert len(truths) == len(want_truths)
    for got, expected in zip(truths, want_truths):
        assert got.shape == expected.shape
        assert_same_bits(got, expected)
    # the truths hold their own memory, apart from the dataset's read-only values
    assert all(t.flags.writeable and not np.shares_memory(t, ds.values) for t in truths)


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**64 + 7])
def test_stream_states_are_default_rng_states(seed):
    want = [np.random.default_rng((seed, i)).bit_generator.state for i in range(20)]
    assert _stream_states(seed, 20) == want


def _draws(rng):
    """Every draw kind ``generate`` makes, in its order.

    The ``integers`` draws take 32-bit halves of words, so a row can end
    with half a word buffered.
    """
    t = int(rng.integers(2, 9))
    return [t, rng.integers(10, 46, size=t), rng.uniform(0.0, 1.0, size=3),
            rng.standard_normal((t, 3)), rng.random((t, 3))]


def _same_draws(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_a_reused_generator_follows_every_visit_stream():
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    stale_rows = 0
    for i, state in enumerate(_stream_states(3, 30)):
        want = _draws(np.random.default_rng((3, i)))
        leftover = bit_gen.state
        bit_gen.state = state
        assert _same_draws(_draws(rng), want)
        if i and leftover["has_uint32"]:
            # keeping the previous row's buffered half word would shift this
            # row's stream, so the check can fail
            stale_rows += 1
            bit_gen.state = {**state, "has_uint32": 1, "uinteger": leftover["uinteger"]}
            assert not _same_draws(_draws(rng), want)
    assert stale_rows >= 5
