import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tadualcv.config import Config
from tadualcv.data_model import (
    DataError,
    Dataset,
    FeatureSpec,
    MaskSet,
    Visit,
    apply_mask,
)
from tadualcv.evaluation import (
    _MAX_MASK_REDRAWS,
    _keyed_uniforms,
    _pcg64_states,
    _per_patient_ranges,
    denormalize,
    mask_one_per_feature_visit,
    mask_random,
    normalize,
    nrmse,
    run_experiment,
)
from tadualcv.synthetic import SynthConfig, generate

from conftest import NAN, assert_same_bits, make_dataset, same_mask


def test_normalize_midpoint():
    ds = make_dataset([("a", [0, 10], [[10.0], [30.0]])])
    normalized, nmap = normalize(ds)
    np.testing.assert_allclose(normalized.visits[0].values[:, 0], [0.0, 1.0])
    assert 0.5 * nmap.scales[0] + nmap.offsets[0] == 20.0


def test_normalize_constant_feature():
    ds = make_dataset([("a", [0, 10], [[7.0], [7.0]])])
    normalized, nmap = normalize(ds)
    np.testing.assert_array_equal(normalized.visits[0].values[:, 0], [0.0, 0.0])
    assert nmap.scales[0] == 1.0 and nmap.offsets[0] == 7.0
    back = denormalize(normalized, nmap)
    np.testing.assert_array_equal(back.visits[0].values[:, 0], [7.0, 7.0])


def test_normalize_unit_interval_identity():
    ds = make_dataset([("a", [0, 10, 20], [[0.0], [0.25], [1.0]])])
    normalized, _ = normalize(ds)
    np.testing.assert_array_equal(
        normalized.visits[0].values, ds.visits[0].values
    )


def test_normalize_round_trip_with_holes():
    rng = np.random.default_rng(0)
    values = rng.uniform(-50, 150, size=(30, 4))
    values[rng.random(values.shape) < 0.2] = np.nan
    values[:, 3] = 42.0  # constant feature
    ds = make_dataset([("a", (np.arange(30) * 7).tolist(), values)])
    normalized, nmap = normalize(ds)
    back = denormalize(normalized, nmap)
    np.testing.assert_allclose(
        back.visits[0].values, values, atol=1e-12, equal_nan=True
    )


def test_mask_random_zero_rate_empty():
    ds = make_dataset([("a", [0, 10], [[1.0, 2.0], [3.0, 4.0]])])
    assert len(mask_random(ds, 0.0, seed=1)) == 0


def test_mask_random_rate_calibration_and_replay():
    ds, _ = generate(SynthConfig(n_visits=125, n_features=8, events_per_visit=(10, 10), seed=2))
    n_cells = ds.n_observed_cells()
    assert n_cells == 10000
    mask = mask_random(ds, 0.5, seed=11)
    fraction = len(mask) / n_cells
    assert 0.49 <= fraction <= 0.51
    replay = mask_random(ds, 0.5, seed=11)
    assert same_mask(replay, mask)


def test_mask_random_guard_leaves_an_observation_per_event():
    ds = make_dataset([("a", [0, 10], [[1.0, 2.0], [3.0, 4.0]])])
    for seed in range(30):
        mask = mask_random(ds, 0.95, seed=seed)
        masked = apply_mask(ds, mask)
        assert masked.visits[0].observed().any(axis=1).all()
    full = mask_random(ds, 1.0, seed=0)
    assert len(full) == 2  # one deterministic survivor per event


def test_masked_datasets_stay_valid():
    from tadualcv.data_model import validate

    ds, _ = generate(
        SynthConfig(n_visits=10, n_features=3, events_per_visit=(3, 6),
                    native_missing_rate=0.2, seed=8)
    )
    for rate in (0.5, 0.9):
        masked = apply_mask(ds, mask_random(ds, rate, seed=2))
        assert validate(masked) == []
    masked = apply_mask(ds, mask_one_per_feature_visit(ds, seed=2))
    assert validate(masked) == []


def test_mask_random_entries_are_observed_cells():
    ds = make_dataset([("a", [0, 10], [[1.0, NAN], [NAN, 4.0]])])
    mask = mask_random(ds, 0.9, seed=3)
    for (visit, event, feature), truth in zip(mask.cells().tolist(), mask.truth.tolist()):
        assert not np.isnan(ds.visits[visit].values[event, feature])
        assert truth == ds.visits[visit].values[event, feature]


def test_mask_one_per_feature_visit_counts():
    ds = make_dataset(
        [
            ("a", [0, 10, 20, 30, 40],
             [[1.0, 5.0], [2.0, NAN], [3.0, NAN], [4.0, NAN], [5.0, NAN]]),
            ("b", [0, 10], [[1.0, 2.0], [3.0, 4.0]]),
        ]
    )
    mask = mask_one_per_feature_visit(ds, seed=4)
    # visit a: feature 0 has 5 obs (1 masked), feature 1 has 1 obs (skipped)
    # visit b: both features have 2 obs (1 masked each)
    per_pair = {}
    for visit, _, feature in mask.cells().tolist():
        per_pair[(visit, feature)] = per_pair.get((visit, feature), 0) + 1
    assert per_pair == {(0, 0): 1, (1, 0): 1, (1, 1): 1}


def test_nrmse_perfect_imputation():
    ds = make_dataset([("a", [0, 10, 20], [[1.0], [2.0], [3.0]])])
    mask = MaskSet([0], [1], [0], [2.0])
    report = nrmse(mask, ds, ds)
    assert report.per_feature_nrmse == {0: 0.0}
    assert report.macro_nrmse == 0.0


def test_nrmse_single_patient_hand_value():
    # patient range 2 (values 1..3), truth 2.0 imputed as 2.5 -> 0.25
    premask = make_dataset([("a", [0, 10, 20], [[1.0], [2.0], [3.0]])])
    imputed = make_dataset([("a", [0, 10, 20], [[1.0], [2.5], [3.0]])])
    mask = MaskSet([0], [1], [0], [2.0])
    report = nrmse(mask, imputed, premask)
    assert report.per_feature_nrmse[0] == 0.25


def test_nrmse_two_patient_hand_value():
    # both patients contribute normalized residual 0.25; sqrt(2*0.0625/2)=0.25
    premask = make_dataset(
        [
            ("a", [0, 10, 20], [[1.0], [2.0], [3.0]]),
            ("b", [0, 10, 20], [[10.0], [12.0], [14.0]]),
        ]
    )
    imputed = make_dataset(
        [
            ("a", [0, 10, 20], [[1.0], [2.5], [3.0]]),
            ("b", [0, 10, 20], [[10.0], [13.0], [14.0]]),
        ]
    )
    mask = MaskSet([0, 1], [1, 1], [0, 0], [2.0, 12.0])
    report = nrmse(mask, imputed, premask)
    assert report.per_feature_nrmse[0] == 0.25
    assert report.per_feature_masked[0] == 2


def test_per_patient_ranges_skip_empty_visits():
    # empty visits, in the middle and at the end, keep range 1 and shift no other visit
    empty = np.empty((0, 2))
    premask = make_dataset(
        [
            ("a", [0, 10], [[1.0, NAN], [3.0, NAN]]),
            ("e1", [], empty),
            ("b", [0, 10, 20], [[10.0, 2.0], [NAN, 2.0], [14.0, 7.0]]),
            ("e2", [], empty),
        ]
    )
    np.testing.assert_array_equal(
        _per_patient_ranges(premask), [[2.0, 1.0], [1.0, 1.0], [4.0, 5.0], [1.0, 1.0]]
    )


def test_nrmse_zero_range_divisor_one():
    premask = make_dataset([("a", [0, 10], [[5.0], [5.0]])])
    imputed = make_dataset([("a", [0, 10], [[5.0], [5.4]])])
    mask = MaskSet([0], [1], [0], [5.0])
    report = nrmse(mask, imputed, premask)
    assert abs(report.per_feature_nrmse[0] - 0.4) < 1e-12


def test_nrmse_incomplete_imputation_rejected():
    premask = make_dataset([("a", [0, 10], [[1.0], [2.0]])])
    holey = make_dataset([("a", [0, 10], [[1.0], [NAN]])])
    mask = MaskSet([0], [1], [0], [2.0])
    with pytest.raises(DataError, match="incomplete imputation"):
        nrmse(mask, holey, premask)


def test_nrmse_affine_rescale_invariance():
    rng = np.random.default_rng(9)
    values = rng.uniform(1, 5, size=(12, 2))
    ds = make_dataset([("a", (np.arange(12) * 5).tolist(), values)])
    mask = mask_random(ds, 0.3, seed=1)
    imputed_values = values + rng.normal(0, 0.2, size=values.shape)
    imputed = make_dataset([("a", (np.arange(12) * 5).tolist(), imputed_values)])
    base = nrmse(mask, imputed, ds)

    scaled_mask = MaskSet(
        mask.visit, mask.event, mask.feature, mask.truth * 10.0,
        mask.strategy, mask.rate, mask.seed,
    )
    scaled_ds = make_dataset([("a", (np.arange(12) * 5).tolist(), values * 10.0)])
    scaled_imp = make_dataset([("a", (np.arange(12) * 5).tolist(), imputed_values * 10.0)])
    scaled = nrmse(scaled_mask, scaled_imp, scaled_ds)
    np.testing.assert_allclose(
        list(scaled.per_feature_nrmse.values()),
        list(base.per_feature_nrmse.values()),
        rtol=1e-9,
    )


def test_run_experiment_degenerate_rate_zero():
    ds, _ = generate(SynthConfig(n_visits=4, n_features=2, events_per_visit=(3, 5), seed=0))
    reports = run_experiment(
        ds, ["mean_fill"], [("random_rate", 0.0)], [0], Config(chains=1, iterations=1)
    )
    assert len(reports) == 1
    assert reports[0].macro_nrmse is None
    assert reports[0].per_feature_masked == {}


def test_run_experiment_two_seeds_differ_and_replay():
    ds, _ = generate(
        SynthConfig(n_visits=6, n_features=2, events_per_visit=(4, 6),
                    noise_scale=0.05, seed=1)
    )
    config = Config(chains=1, iterations=2)
    reports = run_experiment(ds, ["mean_fill"], [("random_rate", 0.5)], [0, 1], config)
    assert len(reports) == 2
    assert reports[0].per_feature_masked != reports[1].per_feature_masked or (
        reports[0].per_feature_nrmse != reports[1].per_feature_nrmse
    )
    again = run_experiment(ds, ["mean_fill"], [("random_rate", 0.5)], [0, 1], config)
    assert [r.per_feature_nrmse for r in again] == [r.per_feature_nrmse for r in reports]


# ---------------------------------------------------------------------------
# The masking protocols against the per-visit loops they replaced, kept as
# references: for every generated dataset, rate and seed the masks must hold
# the same cells and bit-identical truths.


def oracle_mask_random(dataset, rate, seed):
    hidden = np.zeros(dataset.values.shape, dtype=bool)
    for i, visit in enumerate(dataset.visits):
        observed = visit.observed()
        hidden_rows = hidden[dataset.starts[i] : dataset.starts[i + 1]]
        for e in range(visit.n_events):
            row_obs = observed[e]
            n_obs = int(row_obs.sum())
            if n_obs == 0:
                continue
            chosen = None
            for attempt in range(_MAX_MASK_REDRAWS):
                rng = np.random.default_rng((int(seed), i, e, attempt))
                cand = row_obs & (rng.random(row_obs.size) < rate)
                if cand.sum() < n_obs or rate >= 1.0:
                    chosen = cand
                    break
            if chosen is None:
                chosen = row_obs.copy()
            if chosen.sum() == n_obs:
                chosen[np.nonzero(row_obs)[0][0]] = False
            hidden_rows[e] = chosen
    rows, features = np.nonzero(hidden)
    visits = np.searchsorted(dataset.starts, rows, side="right") - 1
    return visits, rows - dataset.starts[visits], features, dataset.values[rows, features]


def oracle_mask_one_per_feature_visit(dataset, seed):
    cells = []
    for i, visit in enumerate(dataset.visits):
        rng = np.random.default_rng((int(seed), i))
        observed = visit.observed()
        remaining = observed.copy()
        for f in range(dataset.n_features):
            rows = np.nonzero(observed[:, f])[0]
            if rows.size < 2:
                continue
            eligible = rows[remaining[rows].sum(axis=1) >= 2]
            if eligible.size == 0:
                continue
            e = int(eligible[rng.integers(eligible.size)])
            remaining[e, f] = False
            cells.append((i, e, f))
    visits, events, features = np.array(cells, dtype=np.int64).reshape(-1, 3).T
    return visits, events, features, dataset.values[dataset.starts[visits] + events, features]


@st.composite
def maskable_datasets(draw):
    """Ragged datasets with single-event visits, events holding one observed
    cell (or none) and, often, a feature observed once."""
    d = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    n = sum(lengths)
    values = np.reshape(draw(st.lists(st.floats(-1e6, 1e6), min_size=n * d, max_size=n * d)),
                        (n, d))
    holes = np.reshape(draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d)), (n, d))
    if d > 1 and draw(st.booleans()):
        holes[:, -1] = True
        holes[draw(st.integers(0, n - 1)), -1] = False
    values[holes] = np.nan
    bounds = np.cumsum([0] + lengths)
    visits = [Visit(f"v{i}", np.arange(t) * 10, values[a : a + t])
              for i, (a, t) in enumerate(zip(bounds, lengths))]
    return Dataset([FeatureSpec(f, f"f{f}") for f in range(d)], visits)


def assert_same_mask(mask, want):
    for got, expected in zip((mask.visit, mask.event, mask.feature), want[:3]):
        assert got.tolist() == expected.tolist()
    assert_same_bits(mask.truth, want[3])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(maskable_datasets(), st.integers(0, 2**70))
def test_masks_match_per_visit_oracles(dataset, seed):
    for s in (seed, seed + 1, seed + 2):
        for rate in (0.0, 0.3, 0.9, 1.0):
            assert_same_mask(mask_random(dataset, rate, s), oracle_mask_random(dataset, rate, s))
        assert_same_mask(
            mask_one_per_feature_visit(dataset, s), oracle_mask_one_per_feature_visit(dataset, s)
        )


def test_mask_random_matches_the_oracle_at_benchmark_scale():
    # thousands of keys in the first round and many redraw rounds at 0.9
    ds, _ = generate(SynthConfig(n_visits=1500, n_features=16, events_per_visit=(4, 12),
                                 noise_scale=0.05, native_missing_rate=0.1, seed=0))
    for rate in (0.5, 0.9, 1.0):
        assert_same_mask(mask_random(ds, rate, 0), oracle_mask_random(ds, rate, 0))


def test_mask_one_per_feature_visit_matches_the_oracle_at_benchmark_scale():
    # 1,500 visits of 4 to 12 events and 16 features; at missing rate 0.6
    # many rows hold one or two observed cells, so earlier features' choices
    # often leave a later feature fewer eligible rows
    for rate in (0.1, 0.6):
        ds, _ = generate(SynthConfig(n_visits=1500, n_features=16, events_per_visit=(4, 12),
                                     noise_scale=0.05, native_missing_rate=rate, seed=0))
        for seed in (0, 7):
            assert_same_mask(mask_one_per_feature_visit(ds, seed),
                             oracle_mask_one_per_feature_visit(ds, seed))


def test_mask_random_matches_the_oracle_when_redraws_run_out():
    # at rate 0.999 most events with one or two observed cells fail all
    # their redraws, and then keep their first observed cell
    ds = make_dataset([("a", [0, 10, 20], [[1.0, NAN], [NAN, 2.0], [3.0, 4.0]]),
                       ("b", [5, 15], [[NAN, 5.0], [6.0, NAN]])])
    for seed in range(3):
        assert_same_mask(mask_random(ds, 0.999, seed), oracle_mask_random(ds, 0.999, seed))


def test_mask_random_rejects_a_negative_seed():
    ds = make_dataset([("a", [0, 10], [[1.0, 2.0], [3.0, 4.0]])])
    with pytest.raises(ValueError):
        mask_random(ds, 0.5, -1)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**100 + 7])
def test_keyed_uniforms_are_default_rng_streams(seed):
    rng = np.random.default_rng(seed % 1000)
    keys = rng.integers(0, 2**32, size=(50, 3))
    keys[:3] = [[0, 0, 0], [2**32 - 1, 2**32 - 1, 2**32 - 1], [0, 1, 99]]
    got = np.stack(list(_keyed_uniforms(seed, keys, 5)), axis=1)
    want = np.stack([np.random.default_rng((seed, *k.tolist())).random(5) for k in keys])
    assert_same_bits(got, want)


def _state_ints(parts):
    """``_pcg64_states`` output as one ``(state, inc)`` pair of Python ints per row."""
    s_hi, s_lo, i_hi, i_lo = (a.tolist() for a in parts)
    return [(a << 64 | b, c << 64 | d) for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo)]


@pytest.mark.parametrize("width", [1, 3])
# seeds of one, two and three 32-bit words
@pytest.mark.parametrize("seed", [0, 5, 2**32 + 5, 2**64 + 7])
def test_pcg64_states_are_default_rng_states(seed, width):
    keys = np.random.default_rng(seed % 1000 + width).integers(0, 2**32, size=(40, width))
    keys[0], keys[1] = 0, 2**32 - 1
    want = []
    for key in keys.tolist():
        state = np.random.default_rng((seed, *key)).bit_generator.state["state"]
        want.append((state["state"], state["inc"]))
    assert _state_ints(_pcg64_states(seed, keys)) == want


@pytest.mark.parametrize("seed, key", [(-1, 0), (0, 2**32), (0, -1)])
def test_pcg64_states_reject_words_outside_uint32(seed, key):
    with pytest.raises(ValueError):
        _pcg64_states(seed, np.array([[1, key]]))
