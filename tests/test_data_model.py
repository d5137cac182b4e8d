import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tadualcv.data_model import (
    DataError,
    Dataset,
    FeatureSpec,
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
    masked = apply_mask(two_visit_dataset, MaskSet([], [], [], []))
    for before, after in zip(two_visit_dataset.visits, masked.visits):
        np.testing.assert_array_equal(before.values, after.values)


def test_apply_mask_hides_cell_and_keeps_source(two_visit_dataset):
    mask = MaskSet([0], [0], [1], [10.0])
    masked = apply_mask(two_visit_dataset, mask)
    assert np.isnan(masked.visits[0].values[0, 1])
    assert two_visit_dataset.visits[0].values[0, 1] == 10.0
    assert mask.truth.tolist() == [10.0]


def test_mask_restore_round_trip(two_visit_dataset):
    mask = MaskSet([0, 1], [0, 1], [0, 1], [1.0, 50.0])
    restored = restore_mask(apply_mask(two_visit_dataset, mask), mask)
    for before, after in zip(two_visit_dataset.visits, restored.visits):
        np.testing.assert_array_equal(before.values, after.values)


def test_apply_mask_rejects_missing_target(two_visit_dataset):
    with pytest.raises(DataError, match="mask targets missing cell"):
        apply_mask(two_visit_dataset, MaskSet([0], [1], [1], [0.0]))
    twice = MaskSet([0, 0], [0, 0], [0, 0], [1.0, 1.0])
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
    rows, cols = ds.rows(np.array([(i, e, 1) for i, e in origin]))
    assert rows.tolist() == [0, 1, 2, 3, 4] and cols.tolist() == [1] * 5
    with pytest.raises(IndexError):
        ds.rows(np.array([[1, 2, 0]]))
    # the cells come as one array, not as a collection of tuples
    with pytest.raises(TypeError, match="cells must be a"):
        ds.rows([(0, 0, 1)])


@pytest.mark.parametrize(
    "cell",
    [(1, -1, 0), (-1, 0, 0), (0, 0, -1), (2, 0, 0), (0, 0, 2)],
)
def test_rows_rejects_cells_outside_the_dataset(two_visit_dataset, cell):
    ds = two_visit_dataset
    visit, event, feature = cell
    message = rf"cell \({visit}, {event}, {feature}\) outside the dataset"
    with pytest.raises(IndexError, match=message):
        ds.rows(np.array([(0, 0, 0), cell, (9, 9, 9)]))
    mask = MaskSet([visit], [event], [feature], [3.0])
    with pytest.raises(IndexError, match=message):
        apply_mask(ds, mask)
    with pytest.raises(IndexError, match=message):
        restore_mask(ds, mask)
    # an event past its visit's end keeps its own message
    with pytest.raises(IndexError, match="beyond the end of its visit"):
        ds.rows(np.array([[1, 2, 0]]))


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


def stacked_parts():
    """Features, ids, times, values and starts of a consistent two-visit layout."""
    return (
        [FeatureSpec(0, "x"), FeatureSpec(1, "y")],
        ["a", "b"],
        np.array([0, 5, 3]),
        np.ones((3, 2)),
        np.array([0, 2, 3]),
    )


def test_from_stacked_accepts_a_consistent_layout():
    ds = Dataset.from_stacked(*stacked_parts())
    assert ds.lengths.tolist() == [2, 1] and ds.visit_of_row.tolist() == [0, 0, 1]
    assert validate(ds) == []


@pytest.mark.parametrize(
    ("part", "bad", "message"),
    [
        ("visit_ids", ["a"], "3 visit starts for 1 visits"),
        ("visit_ids", ["a", "b", "c"], "3 visit starts for 3 visits"),
        ("times", np.array([0, 5]), "2 event times for 3 value rows"),
        ("values", np.ones((4, 2)), "3 event times for 4 value rows"),
        ("starts", np.array([0, 2]), "2 visit starts for 2 visits"),
        ("starts", np.array([0, 2, 4]), "do not split 3 rows"),
        ("starts", np.array([1, 2, 3]), "do not split 3 rows"),
        ("starts", np.array([0, 3, 2]), "do not split 3 rows"),
        ("values", np.ones((3, 3)), r"values of shape \(3, 3\), expected 2 columns"),
        ("values", np.ones(3), r"values of shape \(3,\), expected 2 columns"),
    ],
)
def test_from_stacked_rejects_a_layout_its_arrays_disagree_on(part, bad, message):
    parts = dict(zip(["features", "visit_ids", "times", "values", "starts"], stacked_parts()))
    parts[part] = bad
    with pytest.raises(DataError, match=message):
        Dataset.from_stacked(**parts)


def test_mask_arrays_and_pairs_agree(two_visit_dataset):
    # each (cell, truth) pair is one row of cells() and one truth, in entry order
    mask = MaskSet([1, 0], [1, 0], [1, 0], [50.0, 1.0], "random_rate", 0.5, 2)
    listed = MaskSet(
        np.array([1, 0], np.int32), (1, 0), [1.0, 0.0], np.array([50, 1]),
        strategy="random_rate", rate=0.5, seed=np.int64(2),
    )
    for m in (mask, listed):
        assert len(m) == 2 and (m.strategy, m.rate, m.seed) == ("random_rate", 0.5, 2)
        assert type(m.seed) is int
        assert m.cells().dtype == np.int64 and m.cells().tolist() == [[1, 1, 1], [0, 0, 0]]
        assert m.truth.dtype == np.float64 and m.truth.tolist() == [50.0, 1.0]
        for array in (m.visit, m.event, m.feature, m.truth):
            with pytest.raises(ValueError):
                array[0] = 0
    # the constructor copies: its inputs stay writable and apart from the mask
    truth = np.array([50.0, 1.0])
    copied = MaskSet([1, 0], [1, 0], [1, 0], truth)
    truth[0] = 0.0
    assert copied.truth.tolist() == [50.0, 1.0] and truth.flags.writeable
    rows, cols = two_visit_dataset.rows(mask.cells())
    assert rows.tolist() == [4, 0] and cols.tolist() == [1, 0]
    empty = MaskSet([], [], [], [])
    assert len(empty) == 0 and empty.cells().shape == (0, 3) and empty.cells().dtype == np.int64
    with pytest.raises(DataError, match="one length"):
        MaskSet([0], [0], [0], [1.0, 2.0])
    with pytest.raises(DataError, match="one-dimensional"):
        MaskSet([[0]], [[0]], [[0]], [[1.0]])


def validate_oracle(dataset):
    """The per-visit loop ``validate`` replaced, kept as its reference."""
    problems = []
    d = dataset.n_features
    ids = [f.id for f in dataset.features]
    if ids != list(range(d)):
        problems.append(f"feature ids not dense 0..{d - 1}: {ids}")
    names = [f.name for f in dataset.features]
    if len(set(names)) != len(names):
        problems.append("duplicate feature names")
    if dataset.n_visits < 1:
        problems.append("dataset has no visits")
    for visit in dataset.visits:
        vid = visit.visit_id
        if visit.n_events < 1:
            problems.append(f"visit {vid!r}: no events")
            continue
        if visit.n_features != d:
            problems.append(
                f"visit {vid!r}: events carry {visit.n_features} value slots, expected {d}"
            )
            continue
        times = visit.times
        if np.any(times < 0):
            problems.append(f"visit {vid!r}: negative event time")
        diffs = np.diff(times)
        if np.any(diffs < 0):
            problems.append(f"visit {vid!r}: events not in ascending time order")
        elif np.any(diffs == 0):
            dup = int(times[np.nonzero(diffs == 0)[0][0]])
            problems.append(f"visit {vid!r}: duplicate event time {dup}")
        empty = np.nonzero(~visit.observed().any(axis=1))[0]
        for e in empty:
            problems.append(f"visit {vid!r}: empty event at index {int(e)} (all values missing)")
    return problems


@st.composite
def flawed_datasets(draw):
    """Small datasets with any mix of the flaws ``validate`` reports."""
    width = draw(st.integers(0, 3))
    visits = []
    for i in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, 4))
        cells = np.reshape(draw(st.lists(st.sampled_from([1.0, NAN]), min_size=n * width,
                                         max_size=n * width)), (n, width))
        if draw(st.booleans()):
            # a well-formed visit, unless the dataset's width disagrees
            times = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
            cells[:, :1] = 1.0
        else:
            times = draw(st.lists(st.integers(-2, 4), min_size=n, max_size=n))
        visits.append(Visit(f"v{i}", times, cells))
    names = draw(st.lists(st.sampled_from("abc"), min_size=width, max_size=width))
    d = width + draw(st.sampled_from([0, 0, 0, 1])) if visits else width
    features = [FeatureSpec(k + draw(st.sampled_from([0, 0, 1])), (names + ["z"])[k])
                for k in range(d)]
    return Dataset(features, visits)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flawed_datasets())
def test_validate_matches_per_visit_oracle(dataset):
    assert validate(dataset) == validate_oracle(dataset)
