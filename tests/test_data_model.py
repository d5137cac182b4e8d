import numpy as np
import pytest

from tadualcv.data_model import (
    CellIndex,
    DataError,
    MaskSet,
    Visit,
    apply_mask,
    median_event_count,
    restore_mask,
    validate,
)

from conftest import NAN, make_dataset


def test_validate_well_formed(two_visit_dataset):
    assert validate(two_visit_dataset) == []


def test_validate_duplicate_time():
    ds = make_dataset([("a", [10, 10], [[1.0, 2.0], [3.0, 4.0]])])
    problems = validate(ds)
    assert len(problems) == 1
    assert "duplicate event time" in problems[0]


def test_validate_empty_event():
    ds = make_dataset([("a", [0, 10], [[1.0, 2.0], [NAN, NAN]])])
    problems = validate(ds)
    assert len(problems) == 1
    assert "empty event" in problems[0]


def test_validate_descending_times():
    ds = make_dataset([("a", [10, 5], [[1.0], [2.0]])])
    assert any("ascending" in p for p in validate(ds))


def test_median_event_count_examples():
    def with_counts(counts):
        return make_dataset(
            [(f"v{i}", list(range(c)), [[1.0]] * c) for i, c in enumerate(counts)]
        )

    assert median_event_count(with_counts([11, 22, 1191])) == 22
    assert median_event_count(with_counts([5])) == 5
    # even count takes the lower middle order statistic
    assert median_event_count(with_counts([3, 4, 6, 9])) == 4
    assert median_event_count(with_counts([9, 3, 6, 4])) == 4


def test_median_requires_visits():
    ds = make_dataset([("a", [0], [[1.0]])])
    empty = ds.__class__(ds.features, [])
    with pytest.raises(DataError, match="no visits"):
        median_event_count(empty)


def test_median_is_member_of_counts():
    rng = np.random.default_rng(3)
    for _ in range(20):
        counts = rng.integers(1, 30, size=rng.integers(1, 9)).tolist()
        ds = make_dataset(
            [(f"v{i}", list(range(c)), [[1.0]] * c) for i, c in enumerate(counts)]
        )
        assert median_event_count(ds) in counts


def test_apply_mask_empty_is_identity(two_visit_dataset):
    masked = apply_mask(two_visit_dataset, MaskSet([]))
    for before, after in zip(two_visit_dataset.visits, masked.visits):
        np.testing.assert_array_equal(before.values, after.values)


def test_apply_mask_hides_cell_and_keeps_source(two_visit_dataset):
    cell = CellIndex(0, 0, 1)
    mask = MaskSet([(cell, 10.0)])
    masked = apply_mask(two_visit_dataset, mask)
    assert np.isnan(masked.visits[0].values[0, 1])
    assert two_visit_dataset.visits[0].values[0, 1] == 10.0
    assert mask.entries[0].truth == 10.0


def test_mask_restore_round_trip(two_visit_dataset):
    mask = MaskSet([(CellIndex(0, 0, 0), 1.0), (CellIndex(1, 1, 1), 50.0)])
    restored = restore_mask(apply_mask(two_visit_dataset, mask), mask)
    for before, after in zip(two_visit_dataset.visits, restored.visits):
        np.testing.assert_array_equal(before.values, after.values)


def test_apply_mask_rejects_missing_target(two_visit_dataset):
    with pytest.raises(DataError, match="mask targets missing cell"):
        apply_mask(two_visit_dataset, MaskSet([(CellIndex(0, 1, 1), 0.0)]))
    twice = MaskSet([(CellIndex(0, 0, 0), 1.0), (CellIndex(0, 0, 0), 1.0)])
    with pytest.raises(DataError, match=r"mask targets missing cell \(0, 0, 0\)"):
        apply_mask(two_visit_dataset, twice)


def test_visit_arrays_are_read_only(two_visit_dataset):
    visit = two_visit_dataset.visits[0]
    with pytest.raises(ValueError):
        visit.values[0, 0] = 99.0
    with pytest.raises(ValueError):
        visit.times[0] = 99


def test_dataset_starts_and_rows_bijective(two_visit_dataset):
    ds = two_visit_dataset
    assert ds.values.shape == (5, 2)
    assert ds.starts.tolist() == [0, 3, 5]
    origin = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    rows, cols = ds.rows([CellIndex(i, e, 1) for i, e in origin])
    assert rows.tolist() == [0, 1, 2, 3, 4] and cols.tolist() == [1] * 5
    with pytest.raises(IndexError):
        ds.rows([CellIndex(1, 2, 0)])


def test_dataset_layout_shapes_and_widths():
    ds = make_dataset([("a", [0], [[1.0, 2.0]])])
    empty = ds.__class__(ds.features, [])
    assert empty.values.shape == (0, 2) and empty.starts.tolist() == [0]
    with pytest.raises(DataError, match="unequal widths"):
        ds.__class__(ds.features, [ds.visits[0], Visit("b", [0], [[1.0]])])
    with pytest.raises(DataError, match="expected"):
        ds.with_values(np.zeros((2, 2)))
    swapped = ds.with_values(np.array([[3.0, 4.0]]))
    assert swapped.visits[0].values.tolist() == [[3.0, 4.0]]
    assert ds.values.tolist() == [[1.0, 2.0]]
