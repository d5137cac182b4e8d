import numpy as np

import tadualcv.chained_equations as ce
from tadualcv.chained_equations import (
    RIDGE,
    fit_conditional,
    initialize_fills,
    pmm_draw,
    run_chains,
    sweep,
)

NAN = float("nan")


def ridge_oracle(design, y, lam=RIDGE):
    """Closed-form ridge solution, written independently of the module."""
    p = design.shape[1]
    return np.linalg.solve(design.T @ design + lam * np.eye(p), design.T @ y)


def duplicate_x_instance():
    """Six rows, y = 2x exactly, with the masked row's x duplicated.

    The duplicate makes one observed row's prediction identical to the
    missing row's, so the donor (and hence the fill) is exact.
    """
    x = np.array([1.0, 2.0, 3.0, 3.0, 4.0, 5.0])
    y = 2.0 * x
    matrix = np.column_stack([x, y])
    matrix[3, 1] = NAN
    return matrix


def test_initialize_single_donor():
    matrix = np.array([[3.0, 1.0], [NAN, 2.0], [NAN, 3.0]])
    state = initialize_fills(matrix, np.random.default_rng(0))
    assert state.matrix[1, 0] == 3.0 and state.matrix[2, 0] == 3.0


def test_initialize_complete_column_unchanged():
    matrix = np.array([[1.0, 5.0], [2.0, NAN]])
    state = initialize_fills(matrix, np.random.default_rng(0))
    np.testing.assert_array_equal(state.matrix[:, 0], [1.0, 2.0])


def test_initialize_inert_column():
    matrix = np.array([[NAN, 1.0], [NAN, 2.0]])
    state = initialize_fills(matrix, np.random.default_rng(0))
    assert state.inert[0] and not state.inert[1]
    np.testing.assert_array_equal(state.matrix[:, 0], [0.5, 0.5])


def test_initialize_draws_from_observed_values():
    rng = np.random.default_rng(7)
    col = np.array([1.0, 4.0, 9.0, NAN, NAN, NAN, NAN])
    state = initialize_fills(col[:, None], rng)
    assert set(state.matrix[3:, 0]) <= {1.0, 4.0, 9.0}


def test_conditional_matches_ridge_oracle():
    # fully observed x, y = 2x over x = 1..6 with one masked y
    x = np.arange(1.0, 7.0)
    matrix = np.column_stack([x, 2.0 * x])
    matrix[2, 1] = NAN
    state = initialize_fills(matrix, np.random.default_rng(1))
    model = fit_conditional(state, 1)
    obs = state.observed[1]
    design = np.column_stack([np.ones(obs.size), x[obs]])
    np.testing.assert_allclose(model.coefficients, ridge_oracle(design, 2.0 * x[obs]), atol=1e-12)
    # the regression itself recovers the relation at the missing row
    pred = model.coefficients[0] + model.coefficients[1] * 3.0
    assert abs(pred - 6.0) < 1e-3


def test_pmm_exact_fill_for_duplicated_predictor_row():
    matrix = duplicate_x_instance()
    for seed in range(5):
        state = initialize_fills(matrix, np.random.default_rng(seed))
        pmm_draw(state, 1)
        assert state.matrix[3, 1] == 6.0


def test_pmm_single_distinct_observed_value():
    matrix = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, NAN], [4.0, NAN]])
    state = initialize_fills(matrix, np.random.default_rng(0))
    fills = pmm_draw(state, 1)
    assert set(fills) == {5.0}


def test_pmm_constant_predictors_fill_from_observed_set():
    rng = np.random.default_rng(5)
    matrix = np.column_stack(
        [np.ones(8), np.array([1.0, 2.0, 3.0, 4.0, 5.0, NAN, NAN, NAN])]
    )
    state = initialize_fills(matrix, rng)
    fills = pmm_draw(state, 1)
    assert set(fills) <= {1.0, 2.0, 3.0, 4.0, 5.0}


def test_sweep_no_missing_leaves_matrix_unchanged():
    matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
    state = initialize_fills(matrix, np.random.default_rng(0))
    before = state.matrix.copy()
    sweep(state)
    np.testing.assert_array_equal(state.matrix, before)


def test_sweep_single_missing_cell_draws_once(monkeypatch):
    calls = []
    real = ce.pmm_draw

    def counting(state, col):
        calls.append(col)
        return real(state, col)

    monkeypatch.setattr(ce, "pmm_draw", counting)
    matrix = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, NAN]])
    state = initialize_fills(matrix, np.random.default_rng(0))
    ce.sweep(state)
    assert calls == [1]


def test_sweep_deterministic_replay():
    matrix = duplicate_x_instance()
    results = []
    for _ in range(2):
        state = initialize_fills(matrix, np.random.default_rng(42))
        sweep(state)
        results.append(state.matrix.copy())
    np.testing.assert_array_equal(results[0], results[1])


def test_run_chains_single_chain_zero_std():
    result = run_chains(duplicate_x_instance(), m=1, t=3, master_seed=0)
    assert np.all(result.per_cell_std == 0.0)


def test_run_chains_no_missing_identity():
    matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
    result = run_chains(matrix, m=3, t=2, master_seed=0)
    assert result.cells == []
    np.testing.assert_array_equal(result.completed(matrix), matrix)


def test_run_chains_pooled_fill_exact_on_duplicate_x():
    for seed in range(5):
        result = run_chains(duplicate_x_instance(), m=5, t=10, master_seed=seed)
        assert result.cells == [(3, 1)]
        assert abs(result.pooled_fill[0] - 6.0) < 1e-9


def test_run_chains_deterministic():
    matrix = duplicate_x_instance()
    a = run_chains(matrix, m=4, t=5, master_seed=9)
    b = run_chains(matrix, m=4, t=5, master_seed=9)
    np.testing.assert_array_equal(a.per_chain_fills, b.per_chain_fills)


def test_observed_cells_never_modified():
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(40, 5))
    holes = rng.random(matrix.shape) < 0.3
    holey = np.where(holes, np.nan, matrix)
    result = run_chains(holey, m=3, t=4, master_seed=1)
    completed = result.completed(holey)
    np.testing.assert_array_equal(completed[~holes], matrix[~holes])


def test_fills_are_observed_set_members():
    rng = np.random.default_rng(12)
    matrix = rng.normal(size=(60, 6))
    holes = rng.random(matrix.shape) < 0.4
    holey = np.where(holes, np.nan, matrix)
    result = run_chains(holey, m=3, t=5, master_seed=2)
    for chain_fills in result.per_chain_fills:
        for (r, c), value in zip(result.cells, chain_fills):
            observed = matrix[~holes[:, c], c]
            assert value in set(observed.tolist())


def test_per_cell_std_nonnegative_and_zero_on_agreement():
    result = run_chains(duplicate_x_instance(), m=5, t=10, master_seed=3)
    assert np.all(result.per_cell_std >= 0.0)
    assert result.per_cell_std[0] == 0.0  # every chain picks the exact donor
