import os

import numpy as np
import pytest

from tadualcv.data_model import Dataset, FeatureSpec, Visit

NAN = float("nan")


def make_dataset(visit_rows, kinds=None, names=None):
    """Build a dataset from [(visit_id, times, values-with-NaN), ...]."""
    first = np.asarray(visit_rows[0][2], dtype=float)
    d = first.shape[1]
    kinds = kinds or ["other"] * d
    names = names or [f"f{i}" for i in range(d)]
    features = [FeatureSpec(i, names[i], kinds[i]) for i in range(d)]
    visits = [Visit(vid, times, values) for vid, times, values in visit_rows]
    return Dataset(features, visits)


def same_mask(a, b) -> bool:
    """Both masks hide the same cells in the same order, with bit-identical truths."""
    return np.array_equal(a.cells(), b.cells()) and np.array_equal(
        a.truth.view(np.uint64), b.truth.view(np.uint64)
    )


def assert_same_bits(a, b):
    """Both float arrays (or sequences) hold the same bits, compared as uint64."""
    np.testing.assert_array_equal(
        np.ascontiguousarray(a, dtype=float).view(np.uint64),
        np.ascontiguousarray(b, dtype=float).view(np.uint64),
    )


def assert_no_child_left():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_visit_dataset():
    return make_dataset(
        [
            ("a", [0, 30, 60], [[1.0, 10.0], [2.0, NAN], [3.0, 30.0]]),
            ("b", [5, 45], [[4.0, 40.0], [NAN, 50.0]]),
        ]
    )
