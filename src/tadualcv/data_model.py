"""In-memory model for irregular multivariate time series with missingness.

A dataset is a collection of visits; each visit is a sequence of timestamped
events carrying one value slot per feature, with NaN for a missing value.
The dataset stacks every visit's events, in visit order, into one
``(E, D)`` float array ``values`` and one ``(E,)`` integer array ``times``;
rows ``starts[i]:starts[i + 1]`` belong to visit ``i``. The dataset also owns
the rest of that layout, computed once: ``visit_ids``, ``lengths`` and the
row-to-visit map ``visit_of_row``. Each ``Visit`` in ``dataset.visits`` is a
view of its rows, built only when read. Code that works on all cells at
once reads the stacked arrays and maps a ``(K, 3)`` array of ``(visit, event,
feature)`` cells onto them with ``rows``. Masking bookkeeping (which cells
were hidden on purpose, and what their true values were) lives in
``MaskSet``, as four parallel arrays that its one constructor takes.

All containers here are immutable after construction: the value arrays are
flagged read-only, and the mutating-looking operations (``with_values``,
``write_cells``, ``apply_mask``, ``restore_mask``) return fresh datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

FEATURE_KINDS = ("lab", "vital", "other")


class DataError(ValueError):
    """Raised when input data violates the dataset contract."""


@dataclass(frozen=True)
class FeatureSpec:
    """One feature column: dense integer id, unique name, clinical kind.

    ``kind`` only matters for carry-forward windows ("lab" vs "vital");
    anything else should use "other".
    """

    id: int
    name: str
    kind: str = "other"

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise DataError(f"unknown feature kind {self.kind!r} for {self.name!r}")


class Visit:
    """One visit: strictly time-ordered events over D feature slots.

    Internally stores ``times`` (int64, shape ``(T,)``) and ``values``
    (float64, shape ``(T, D)``, NaN = missing). Both arrays are read-only.
    """

    __slots__ = ("visit_id", "times", "values")

    def __init__(self, visit_id: str, times, values):
        self.visit_id = str(visit_id)
        times = np.asarray(times, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or times.ndim != 1 or values.shape[0] != times.shape[0]:
            raise DataError(f"visit {visit_id!r}: times/values shapes disagree")
        times.flags.writeable = False
        values.flags.writeable = False
        self.times = times
        self.values = values

    @property
    def n_events(self) -> int:
        return self.times.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def observed(self) -> np.ndarray:
        """Boolean (T, D) array, True where a value is present."""
        return ~np.isnan(self.values)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Features plus visits, stacked event-wise; ``validate`` reports violations.

    ``values`` (float64, ``(E, D)``) and ``times`` (int64, ``(E,)``) hold all
    events in visit order. Visit ``i`` is named ``visit_ids[i]``, owns rows
    ``starts[i]:starts[i + 1]`` and has ``lengths[i]`` events; row ``r``
    belongs to visit ``visit_of_row[r]``. All arrays are read-only, visits of
    unequal width are rejected, and datasets compare by identity. ``visits``
    (one ``Visit`` view of its rows per visit) is built on first read.
    """

    features: tuple[FeatureSpec, ...]
    visit_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    visit_of_row: np.ndarray = field(repr=False)

    def __init__(self, features: Iterable[FeatureSpec], visits: Iterable[Visit]):
        features, visits = tuple(features), tuple(visits)
        widths = sorted({v.n_features for v in visits})
        if len(widths) > 1:
            raise DataError(f"visits carry value rows of unequal widths {widths}")
        width = widths[0] if widths else len(features)
        values = np.concatenate([np.empty((0, width)), *(v.values for v in visits)])
        times = np.concatenate([np.empty(0, dtype=np.int64), *(v.times for v in visits)])
        starts = np.cumsum([0] + [v.n_events for v in visits])
        self._assign(features, tuple(v.visit_id for v in visits), times, values, starts)

    @classmethod
    def from_stacked(cls, features, visit_ids, times, values, starts) -> "Dataset":
        """A dataset over already stacked arrays, which it takes over and flags read-only.

        ``times`` and ``values`` hold every event in visit order, and visit
        ``i`` owns rows ``starts[i]:starts[i + 1]``. ``DataError`` if the
        arrays disagree on that layout or ``values`` is not ``len(features)``
        wide.
        """
        features, visit_ids = tuple(features), tuple(map(str, visit_ids))
        if values.ndim != 2 or values.shape[1] != len(features):
            raise DataError(f"values of shape {values.shape}, expected {len(features)} columns")
        if times.shape != values.shape[:1]:
            raise DataError(f"{len(times)} event times for {len(values)} value rows")
        if starts.shape != (len(visit_ids) + 1,):
            raise DataError(f"{len(starts)} visit starts for {len(visit_ids)} visits")
        if starts[0] != 0 or starts[-1] != len(values) or np.any(np.diff(starts) < 0):
            raise DataError(f"visit starts do not split {len(values)} rows in order")
        out = object.__new__(cls)
        out._assign(features, visit_ids, times, values, starts)
        return out

    def _assign(self, features, visit_ids, times, values, starts, lengths=None, visit_of_row=None):
        if lengths is None:
            lengths = np.diff(starts)
            visit_of_row = np.repeat(np.arange(len(visit_ids)), lengths)
        for array in (values, times, starts, lengths, visit_of_row):
            array.flags.writeable = False
        self.__dict__.update(
            features=features, visit_ids=visit_ids, values=values, times=times,
            starts=starts, lengths=lengths, visit_of_row=visit_of_row,
        )

    @cached_property
    def visits(self) -> tuple[Visit, ...]:
        """One read-only ``Visit`` view of its rows per visit, built on first read."""
        bounds = self.starts.tolist()
        return tuple(
            Visit(vid, self.times[a:b], self.values[a:b])
            for vid, a, b in zip(self.visit_ids, bounds[:-1], bounds[1:])
        )

    @property
    def n_visits(self) -> int:
        return len(self.visit_ids)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def n_observed_cells(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.values)))

    def rows(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """The (row, column) index arrays of ``cells`` in the stacked layout.

        ``cells`` is a ``(K, 3)`` integer array of (visit, event, feature)
        rows, as ``MaskSet.cells`` returns; ``TypeError`` if it is not an array.
        ``IndexError`` names the first cell with a negative index, a visit
        ``>= N`` or a feature ``>= D``; an event past its visit's end raises it too.
        """
        if not isinstance(cells, np.ndarray):
            raise TypeError(f"cells must be a (K, 3) array, not {type(cells).__name__}")
        idx = cells.reshape(-1, 3)
        visit, event, feature = idx.T
        outside = (idx < 0).any(axis=1) | (visit >= self.n_visits) | (feature >= self.n_features)
        if outside.any():
            raise IndexError(f"cell {tuple(idx[np.argmax(outside)].tolist())} outside the dataset")
        if np.any(event >= self.lengths[visit]):
            raise IndexError("cell event index beyond the end of its visit")
        return self.starts[visit] + event, feature

    def with_values(self, values) -> "Dataset":
        """Same features, visits and times over a new ``(E, D)`` value array.

        The array is taken over, not copied, and flagged read-only; the layout is shared.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise DataError(f"values of shape {values.shape}, expected {self.values.shape}")
        layout = (self.starts, self.lengths, self.visit_of_row)
        out = object.__new__(type(self))
        out._assign(self.features, self.visit_ids, self.times, values, *layout)
        return out


@dataclass(frozen=True, eq=False)
class MaskSet:
    """Cells hidden by the harness, with their ground-truth values.

    Stored as four read-only arrays of one length, one entry per hidden
    cell: ``visit``, ``event`` and ``feature`` (int64) locate the cell and
    ``truth`` (float64) holds its value. The constructor copies each array.

    ``strategy`` is "random_rate", "one_per_feature_visit", or "external" for
    a mask read from a file; ``rate`` is only meaningful for the first. Entries must reference cells that were observed
    in the source dataset, with no duplicates.
    """

    visit: np.ndarray = field(repr=False)
    event: np.ndarray = field(repr=False)
    feature: np.ndarray = field(repr=False)
    truth: np.ndarray = field(repr=False)
    strategy: str = "random_rate"
    rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        arrays = {
            "visit": np.array(self.visit, dtype=np.int64),
            "event": np.array(self.event, dtype=np.int64),
            "feature": np.array(self.feature, dtype=np.int64),
            "truth": np.array(self.truth, dtype=float),
        }
        if len({a.shape for a in arrays.values()}) != 1 or arrays["truth"].ndim != 1:
            raise DataError("mask arrays must be one-dimensional and of one length")
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "seed", int(self.seed))

    def __len__(self) -> int:
        return self.truth.shape[0]

    def cells(self) -> np.ndarray:
        """``(K, 3)`` int64 array of (visit, event, feature), one row per entry."""
        return np.stack((self.visit, self.event, self.feature), axis=1)


def validate(dataset: Dataset) -> list[str]:
    """Check every dataset invariant; return human-readable violations.

    An empty list means the dataset is well-formed. Each violation names the
    offending visit/event/feature so callers can locate the bad row. This is
    diagnostic only: nothing is raised.
    """
    problems: list[str] = []
    d = dataset.n_features

    ids = [f.id for f in dataset.features]
    if ids != list(range(d)):
        problems.append(f"feature ids not dense 0..{d - 1}: {ids}")
    names = [f.name for f in dataset.features]
    if len(set(names)) != len(names):
        problems.append("duplicate feature names")

    if dataset.n_visits < 1:
        problems.append("dataset has no visits")

    # one pass over the stacked layout flags the visits that have a problem;
    # only those are examined one by one, for the messages
    lengths, visit_of_row, width = dataset.lengths, dataset.visit_of_row, dataset.values.shape[1]
    gaps = np.diff(dataset.times)
    bad_gap = (gaps <= 0) & (visit_of_row[1:] == visit_of_row[:-1])
    bad_row = (dataset.times < 0) | np.isnan(dataset.values).all(axis=1)
    suspect = (lengths < 1) | (width != d)
    suspect[visit_of_row[bad_row]] = True
    suspect[visit_of_row[1:][bad_gap]] = True

    bounds = dataset.starts.tolist()
    for i in np.flatnonzero(suspect).tolist():
        vid = dataset.visit_ids[i]
        if lengths[i] < 1:
            problems.append(f"visit {vid!r}: no events")
            continue
        if width != d:
            problems.append(f"visit {vid!r}: events carry {width} value slots, expected {d}")
            continue
        times = dataset.times[bounds[i] : bounds[i + 1]]
        if np.any(times < 0):
            problems.append(f"visit {vid!r}: negative event time")
        diffs = np.diff(times)
        if np.any(diffs < 0):
            problems.append(f"visit {vid!r}: events not in ascending time order")
        elif np.any(diffs == 0):
            dup = int(times[np.nonzero(diffs == 0)[0][0]])
            problems.append(f"visit {vid!r}: duplicate event time {dup}")
        empty = np.isnan(dataset.values[bounds[i] : bounds[i + 1]]).all(axis=1)
        for e in np.flatnonzero(empty).tolist():
            problems.append(f"visit {vid!r}: empty event at index {e} (all values missing)")

    return problems


def median_event_count(dataset: Dataset) -> int:
    """Median number of events per visit; lower middle value for even counts.

    Taking the lower order statistic keeps the result a member of the actual
    event-count multiset, so length comparisons against it stay meaningful.
    """
    if dataset.n_visits == 0:
        raise DataError("no visits")
    return int(np.sort(dataset.lengths)[(dataset.n_visits - 1) // 2])


def write_cells(dataset: Dataset, cells, values) -> Dataset:
    """Copy of ``dataset`` with ``values`` written into ``cells``, a ``(K, 3)`` array.

    ``values`` holds one value per cell, or a single value for all of them.
    """
    stacked = dataset.values.copy()
    stacked[dataset.rows(cells)] = values
    return dataset.with_values(stacked)


def apply_mask(dataset: Dataset, mask: MaskSet) -> Dataset:
    """Return a copy of ``dataset`` with every masked cell set to missing.

    The source dataset is untouched. Masking a cell that is already missing
    (or masking one cell twice) is an error: masks must target observed
    values.
    """
    cells = mask.cells()
    rows, cols = dataset.rows(cells)
    # a repeated entry targets a cell its first occurrence already masked
    first = np.zeros(len(cells), dtype=bool)
    first[np.unique(rows * dataset.n_features + cols, return_index=True)[1]] = True
    valid = first & ~np.isnan(dataset.values[rows, cols])
    if not valid.all():
        raise DataError(f"mask targets missing cell {tuple(cells[np.argmin(valid)].tolist())}")
    stacked = dataset.values.copy()
    stacked[rows, cols] = np.nan
    return dataset.with_values(stacked)


def restore_mask(dataset: Dataset, mask: MaskSet) -> Dataset:
    """Inverse of ``apply_mask``: write every entry's truth back into place."""
    return write_cells(dataset, mask.cells(), mask.truth)
