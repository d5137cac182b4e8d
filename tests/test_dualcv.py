import numpy as np
import pytest

from tadualcv.chained_equations import run_chains
from tadualcv.config import Config
from tadualcv.dualcv import (
    _CFP_STREAM,
    _ctp_stack,
    cfp_impute,
    compromise,
    ctp_impute,
    dualcv_impute,
    per_visit_mean_std,
)
from tadualcv.methods import impute

from conftest import NAN, assert_same_bits, make_dataset


def filled_cells(ds, fills):
    """``(K, 3)`` (visit, event, feature) rows of the cells ``fills`` gives a value, row-major."""
    row, feature = np.nonzero(~np.isnan(fills))
    visit = ds.visit_of_row[row]
    return np.stack([visit, row - ds.starts[visit], feature], axis=1)


def duplicate_x_dataset():
    """One visit, features (x, y) with y = 2x and y masked at a duplicated x."""
    x = [1.0, 2.0, 3.0, 3.0, 4.0, 5.0]
    rows = [[xv, 2.0 * xv] for xv in x]
    rows[3][1] = NAN
    return make_dataset([("v0", [0, 10, 20, 30, 40, 50], rows)])


def test_cfp_no_missing_is_identity():
    ds = make_dataset([("a", [0, 10], [[1.0, 2.0], [3.0, 4.0]])])
    fills, stds = cfp_impute(ds, Config())
    assert np.isnan(fills).all() and np.isnan(stds).all()


def test_cfp_recovers_linear_relation():
    fills, _ = cfp_impute(duplicate_x_dataset(), Config(seed=3))
    assert np.argwhere(~np.isnan(fills)).tolist() == [[3, 1]]
    assert fills[3, 1] == 6.0


def test_cfp_single_visit_equals_plain_chains():
    ds = duplicate_x_dataset()
    config = Config(seed=5)
    fills, _ = cfp_impute(ds, config)
    raw = run_chains(
        ds.visits[0].values, config.chains, config.iterations, config.seed,
        stream=(_CFP_STREAM,),
    )
    for (row, col), value in zip(raw.cells, raw.pooled_fill):
        assert fills[row, col] == value


def test_ctp_view_pads_and_truncates():
    ds = make_dataset(
        [
            ("short", [0, 10], [[1.0], [2.0]]),
            ("exact", [0, 10, 20, 30], [[1.0], [2.0], [3.0], [4.0]]),
            ("long", [0, 10, 20, 30, 40, 50], [[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]]),
        ]
    )
    stack, event_of, n_padded, n_truncated = _ctp_stack(ds, 4, "keep_last")
    assert n_padded.tolist() == [2, 0, 0]
    assert n_truncated.tolist() == [0, 0, 2]
    assert event_of[0].tolist() == [0, 1, -1, -1]
    assert event_of[2].tolist() == [2, 3, 4, 5]
    np.testing.assert_array_equal(stack[0, 2], [3.0, 4.0, 5.0, 6.0])

    _, first, _, _ = _ctp_stack(ds, 4, "keep_first")
    assert first[2].tolist() == [0, 1, 2, 3]


def test_ctp_placeholder_fills_discarded():
    ds = make_dataset(
        [
            ("short", [0, 10], [[1.0], [NAN]]),
            ("a", [0, 10, 20, 30], [[1.0], [2.0], [3.0], [4.0]]),
            ("b", [0, 10, 20, 30], [[2.0], [3.0], [4.0], [5.0]]),
        ]
    )
    fills, _ = ctp_impute(ds, 4, Config())
    # only the real hole comes back; the short visit's two pad cells do not
    assert filled_cells(ds, fills).tolist() == [[0, 1, 0]]


def test_ctp_full_rows_return_nothing():
    ds = make_dataset(
        [
            ("a", [0, 10], [[1.0], [2.0]]),
            ("b", [0, 10], [[2.0], [3.0]]),
        ]
    )
    fills, _ = ctp_impute(ds, 2, Config())
    assert np.isnan(fills).all()


def test_ctp_recovers_cross_visit_relation():
    # step-2 = 2 * step-1 across visits, masked where step-1 duplicates
    step1 = [1.0, 2.0, 3.0, 3.0, 4.0, 5.0]
    rows = []
    for i, s in enumerate(step1):
        values = [[s], [2.0 * s]]
        if i == 3:
            values[1][0] = NAN
        rows.append((f"v{i}", [0, 10], values))
    ds = make_dataset(rows)
    fills, _ = ctp_impute(ds, 2, Config(seed=1))
    assert filled_cells(ds, fills).tolist() == [[3, 1, 0]]
    assert fills[ds.starts[3] + 1, 0] == 6.0


def test_ctp_degenerate_view():
    # t_med above every T_i and nothing observed anywhere in the view
    ds = make_dataset([("a", [0], [[NAN, NAN]]), ("b", [0], [[NAN, NAN]])])
    fills, stds = ctp_impute(ds, 3, Config())
    assert np.isnan(fills).all() and np.isnan(stds).all()


@pytest.mark.parametrize("variant", ["ta_dualcv", "ta_dualcv_noI"])
def test_empty_ctp_column_keeps_cfp_fill(variant):
    # y's only observation sits in the truncated head of the long visit, so
    # every CTP column of y is empty: the short visits must get the observed
    # 5.0, not a blend with the chains' placeholder
    ds = make_dataset(
        [
            ("a", [0, 10, 20, 30, 40],
             [[1.0, 5.0], [2.0, NAN], [3.0, NAN], [4.0, NAN], [5.0, NAN]]),
            ("b", [0, 10], [[1.0, NAN], [2.0, NAN]]),
            ("c", [0, 10], [[3.0, NAN], [4.0, NAN]]),
        ]
    )
    out = impute(ds, variant)
    for visit in out.dataset.visits[1:]:
        assert visit.values[:, 1].tolist() == [5.0, 5.0]


def test_compromise_weight_identity():
    assert compromise(0.7, 0.1, t_i=3, t_med=5, w1=1.0, w2=0.0) == 0.7


def test_compromise_equal_weights():
    assert compromise(0.4, 0.6, t_i=3, t_med=5, w1=0.5, w2=0.5) == 0.5


def test_compromise_long_visit_takes_cfp():
    assert compromise(0.9, 0.1, t_i=7, t_med=5, w1=0.5, w2=0.5) == 0.9
    assert compromise(0.9, np.nan, t_i=7, t_med=5, w1=0.2, w2=0.8) == 0.9


def test_compromise_midpoint_machine_precision():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.uniform(-5, 5, size=2)
        assert abs(compromise(a, b, 1, 2, 0.5, 0.5) - (a + b) / 2.0) < 1e-15


def test_dualcv_no_missing():
    ds = make_dataset([("a", [0, 10], [[1.0, 2.0], [3.0, 4.0]])])
    fills, stds = dualcv_impute(ds, Config())
    assert np.isnan(fills).all()
    assert np.all(np.isnan(per_visit_mean_std(ds, stds)))


def test_dualcv_single_chain_sigma_zero():
    ds = duplicate_x_dataset()
    _, stds = dualcv_impute(ds, Config(chains=1))
    assert per_visit_mean_std(ds, stds)[0] == 0.0


def test_dualcv_w1_only_equals_cfp():
    ds = duplicate_x_dataset()
    config = Config(w1=1.0, w2=0.0, seed=2)
    fills, _ = dualcv_impute(ds, config)
    cfp_fills, _ = cfp_impute(ds, config)
    np.testing.assert_array_equal(fills, cfp_fills)


def test_dualcv_long_visits_take_cfp_exactly():
    rng = np.random.default_rng(6)
    rows = []
    for i, t_i in enumerate([3, 3, 8]):
        values = rng.uniform(0, 1, size=(t_i, 2))
        values[rng.integers(t_i), rng.integers(2)] = NAN
        rows.append((f"v{i}", (np.arange(t_i) * 10).tolist(), values))
    ds = make_dataset(rows)
    config = Config(seed=4)
    fills, _ = dualcv_impute(ds, config)
    cfp_fills, _ = cfp_impute(ds, config)
    long_rows = slice(ds.starts[2], ds.starts[3])
    long_cells = ~np.isnan(fills[long_rows])
    assert long_cells.any()
    np.testing.assert_array_equal(
        fills[long_rows][long_cells], cfp_fills[long_rows][long_cells]
    )


def check_ctp_fills(ds, t_med, truncate):
    """Every CTP fill is finite, sits at a real hole, comes from its column.

    One chain, so a returned fill is a donor value itself: it must be among
    the values its time-step column observes. The same seed must give the
    same output.
    """
    config = Config(chains=1, ctp_truncate=truncate, seed=3)
    fills, stds = ctp_impute(ds, t_med, config)
    for again, first in zip(ctp_impute(ds, t_med, config), (fills, stds)):
        assert_same_bits(again, first)
    kept = ~np.isnan(fills)
    np.testing.assert_array_equal(kept, ~np.isnan(stds))
    stack, event_of, _, _ = _ctp_stack(ds, t_med, truncate)
    for visit, event, feature in filled_cells(ds, fills):
        row = ds.starts[visit] + event
        fill = fills[row, feature]
        assert np.isfinite(fill) and stds[row, feature] == 0.0
        assert np.isnan(ds.values[row, feature])
        (col,) = np.flatnonzero(event_of[visit] == event)
        column = stack[feature, :, col]
        assert fill in set(column[~np.isnan(column)].tolist())
    # five chains: same cells, finite pooled fills, still reproducible
    config = Config(ctp_truncate=truncate, seed=3)
    pooled, _ = ctp_impute(ds, t_med, config)
    np.testing.assert_array_equal(~np.isnan(pooled), kept)
    assert np.isfinite(pooled[kept]).all()
    assert_same_bits(ctp_impute(ds, t_med, config)[0], pooled)
    return fills


def ragged_visits(lengths, seed=0, hole_rate=0.3):
    rng = np.random.default_rng(seed)
    rows = []
    for i, t_i in enumerate(lengths):
        values = rng.uniform(0.01, 0.49, size=(t_i, 2))
        values[rng.random(values.shape) < hole_rate] = NAN
        rows.append((f"v{i}", (np.arange(t_i) * 10).tolist(), values))
    return rows


@pytest.mark.parametrize("truncate", ["keep_last", "keep_first"])
def test_ctp_single_time_step_is_intercept_only(truncate):
    ds = make_dataset(ragged_visits([1, 3, 1, 2, 4, 1, 2], seed=1))
    fills = check_ctp_fills(ds, 1, truncate)
    assert (~np.isnan(fills)).any()


@pytest.mark.parametrize("truncate", ["keep_last", "keep_first"])
def test_ctp_single_event_visits(truncate):
    ds = make_dataset(ragged_visits([1, 1, 1, 1, 1, 1, 3, 3], seed=2, hole_rate=0.4))
    fills = check_ctp_fills(ds, 1, truncate)
    assert set(filled_cells(ds, fills)[:, 1].tolist()) <= {0, 1, 2}
    check_ctp_fills(ds, 3, truncate)


@pytest.mark.parametrize(
    "truncate, long_values",
    [
        # keep_last keeps events 2-3: step 1 only saw event 1, cut off
        ("keep_last", [[0.1, 0.2], [0.3, 0.4], [0.2, 0.3], [0.4, NAN]]),
        # keep_first keeps events 0-1: step 1 only saw event 3, cut off
        ("keep_first", [[0.1, 0.2], [0.3, NAN], [0.2, 0.3], [0.4, 0.1]]),
    ],
    ids=["keep_last", "keep_first"],
)
def test_ctp_column_emptied_by_truncation(truncate, long_values):
    rows = [
        ("a", [0, 10], [[0.1, 0.2], [0.2, NAN]]),
        ("b", [0, 10], [[0.3, NAN], [0.4, NAN]]),
        ("c", [0, 10], [[0.2, 0.1], [NAN, NAN]]),
        ("long", [0, 10, 20, 30], long_values),
    ]
    ds = make_dataset(rows)
    stack, event_of, _, _ = _ctp_stack(ds, 2, truncate)
    assert np.isnan(stack[1, :, 1]).all()
    fills = check_ctp_fills(ds, 2, truncate)
    # the emptied column's holes get no fill; the rest of the view does
    emptied = {(i, int(e), 1) for i, e in enumerate(event_of[:, 1])}
    filled = set(map(tuple, filled_cells(ds, fills).tolist()))
    assert len(emptied) == 4 and not emptied & filled
    assert (2, 1, 0) in filled


@pytest.mark.parametrize("truncate", ["keep_last", "keep_first"])
def test_ctp_constant_feature(truncate):
    rows = ragged_visits([3, 2, 4, 3, 3, 5], seed=4)
    for _, _, values in rows:
        values[:, 1] = np.where(np.isnan(values[:, 1]), NAN, 0.25)
    ds = make_dataset(rows)
    fills = check_ctp_fills(ds, 3, truncate)
    constant = fills[~np.isnan(fills[:, 1]), 1].tolist()
    assert constant and set(constant) == {0.25}
