"""Property tests: the stacked layout and the postconditions of ``impute``.

Datasets are small and ragged: single-event visits, ``T_med = 1``, features
observed once, constant features and magnitudes from 1e-6 to 1e6 all occur,
and the temporal view truncates long visits at either end.
Every generated dataset validates, and every feature is observed at least
once, so every variant applies.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tadualcv.config import Config
from tadualcv.data_model import (
    Dataset,
    FeatureSpec,
    Visit,
    apply_mask,
    restore_mask,
    validate,
)
from tadualcv.evaluation import mask_random
from tadualcv.methods import VARIANTS, impute

from conftest import assert_same_bits

CONFIG = Config(chains=2, iterations=2, seed=0)
MAGNITUDES = (1e-6, 1e-3, 1.0, 1e3, 1e6)


def examples(n):
    """A fixed, replayable set of ``n`` examples per test."""
    return settings(max_examples=n, deadline=None, derandomize=True, database=None)


@st.composite
def ragged_datasets(draw):
    n_features = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    scales = draw(st.lists(st.sampled_from(MAGNITUDES), min_size=n_features,
                           max_size=n_features))
    constant = draw(st.lists(st.booleans(), min_size=n_features, max_size=n_features))
    visits = []
    for i, t_i in enumerate(lengths):
        gaps = draw(st.lists(st.integers(1, 600), min_size=t_i, max_size=t_i))
        base = np.array(
            draw(st.lists(st.floats(1.0, 10.0), min_size=t_i * n_features,
                          max_size=t_i * n_features))
        ).reshape(t_i, n_features)
        values = np.where(constant, 1.0, base) * np.array(scales)
        holes = np.array(
            draw(st.lists(st.booleans(), min_size=t_i * n_features,
                          max_size=t_i * n_features))
        ).reshape(t_i, n_features)
        # every event keeps one value
        holes[np.arange(t_i), draw(st.integers(0, n_features - 1))] = False
        values[holes] = np.nan
        visits.append(Visit(f"v{i}", np.cumsum(gaps) - gaps[0], values))
    # every feature is observed at least once
    first = visits[0].values.copy()
    for f in np.nonzero(np.isnan(np.vstack([v.values for v in visits])).all(axis=0))[0]:
        first[0, f] = scales[f]
    visits[0] = Visit(visits[0].visit_id, visits[0].times, first)
    features = [FeatureSpec(f, f"f{f}") for f in range(n_features)]
    dataset = Dataset(features, visits)
    assert validate(dataset) == []
    return dataset


EMPTY_VISIT = Dataset(
    [FeatureSpec(0, "f0"), FeatureSpec(1, "f1")],
    [Visit("a", [0, 5], [[1.0, np.nan], [2.0, 3.0]]), Visit("e", [], np.empty((0, 2))),
     Visit("b", [1], [[4.0, 5.0]]), Visit("z", [], np.empty((0, 2)))],
)
NO_VISITS = Dataset([FeatureSpec(0, "f0")], [])


def read_only(*arrays):
    return not any(a.flags.writeable for a in arrays)


@examples(60)
@given(ragged_datasets())
@example(EMPTY_VISIT)
@example(NO_VISITS)
def test_layout_is_the_stacked_visits(dataset):
    n, n_rows = dataset.n_visits, dataset.values.shape[0]
    visits = dataset.visits
    assert dataset.visits is visits
    # the layout attributes agree with starts and with the Visit views
    assert dataset.visit_ids == tuple(v.visit_id for v in visits)
    assert all(type(vid) is str for vid in dataset.visit_ids)
    assert dataset.lengths.dtype == dataset.visit_of_row.dtype == np.int64
    assert dataset.lengths.shape == (n,) and dataset.visit_of_row.shape == (n_rows,)
    assert dataset.lengths.tolist() == np.diff(dataset.starts).tolist()
    assert dataset.lengths.tolist() == [v.n_events for v in visits]
    assert dataset.visit_of_row.tolist() == [i for i, v in enumerate(visits)
                                             for _ in range(v.n_events)]
    assert_same_bits(dataset.values, np.vstack([np.empty((0, dataset.values.shape[1])),
                                                *[v.values for v in visits]]))
    np.testing.assert_array_equal(dataset.times,
                                  np.concatenate([np.empty(0, np.int64),
                                                  *[v.times for v in visits]]))
    assert read_only(dataset.values, dataset.times, dataset.starts, dataset.lengths,
                     dataset.visit_of_row)
    for i, visit in enumerate(visits):
        assert read_only(visit.values, visit.times)
        assert np.shares_memory(visit.values, dataset.values) or visit.n_events == 0
        assert np.shares_memory(visit.times, dataset.times) or visit.n_events == 0
        cells = [(i, e, f) for e in range(visit.n_events) for f in range(dataset.n_features)]
        rows, cols = dataset.rows(np.array(cells, dtype=np.int64).reshape(-1, 3))
        assert rows.tolist() == [dataset.starts[i] + e for _, e, _ in cells]
        assert cols.tolist() == [f for _, _, f in cells]

    # with_values shares the layout, builds its own views, and compares by identity
    other = dataset.with_values(dataset.values * 2.0)
    for name in ("visit_ids", "times", "starts", "lengths", "visit_of_row"):
        assert getattr(other, name) is getattr(dataset, name)
    assert other != dataset and dataset == dataset
    for visit, doubled in zip(visits, other.visits):
        assert visit.visit_id == doubled.visit_id
        assert_same_bits(doubled.values, visit.values * 2.0)


@examples(60)
@given(ragged_datasets(), st.floats(0.0, 1.0), st.integers(0, 2**16))
def test_mask_round_trip(dataset, rate, seed):
    mask = mask_random(dataset, rate, seed)
    masked = apply_mask(dataset, mask)
    assert validate(masked) == []
    assert np.isnan(masked.values[masked.rows(mask.cells())]).all()
    assert_same_bits(restore_mask(masked, mask).values, dataset.values)


@examples(25)
@given(ragged_datasets(), st.sampled_from(["keep_last", "keep_first"]))
def test_impute_postconditions(dataset, truncate):
    config = Config(chains=2, iterations=2, seed=0, ctp_truncate=truncate)
    holes = np.isnan(dataset.values)
    for variant in VARIANTS:
        out = impute(dataset, variant, config)
        assert np.isfinite(out.dataset.values).all(), variant
        assert_same_bits(out.dataset.values[~holes], dataset.values[~holes])
        assert out.stds.shape == dataset.values.shape
        assert np.isfinite(out.stds).all() and (out.stds[~holes] == 0.0).all()
        again = impute(dataset, variant, config)
        assert_same_bits(again.dataset.values, out.dataset.values)
        assert_same_bits(again.stds, out.stds)


@examples(40)
@given(ragged_datasets())
def test_mice_only_fills_inside_observed_range(dataset):
    values = impute(dataset, "mice_only", CONFIG).dataset.values
    holes = np.isnan(dataset.values)
    lo, hi = np.nanmin(dataset.values, axis=0), np.nanmax(dataset.values, axis=0)
    # the observed maximum comes back through the normalization map as
    # (hi - lo) + lo, which can round one step above hi
    top = (hi - lo) + lo
    for f in range(dataset.n_features):
        fills = values[holes[:, f], f]
        assert ((fills >= lo[f]) & (fills <= max(hi[f], top[f]))).all()
