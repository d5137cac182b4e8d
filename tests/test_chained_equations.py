import os
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tadualcv.chained_equations as ce
from tadualcv import forking, methods
from tadualcv.chained_equations import (
    INERT_FILL,
    PMM_DONORS,
    RIDGE,
    DegenerateModelError,
    Ensemble,
    chain_ensemble,
    initialize_fills,
    pmm_draw,
    run_chains,
)

from conftest import assert_no_child_left, assert_same_bits

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
    aug, holes, inert, _ = initialize_fills(matrix, np.random.default_rng(1)).batch()
    use = ce._design_columns(inert, 1)
    beta, _, _ = ce._fit(aug, ~holes[:, 1], use, 1)
    coefficients = beta[0, use[0]]
    obs = np.flatnonzero(~holes[0, 1])
    design = np.column_stack([np.ones(obs.size), x[obs]])
    np.testing.assert_allclose(coefficients, ridge_oracle(design, 2.0 * x[obs]), atol=1e-12)
    # the regression itself recovers the relation at the missing row
    pred = coefficients[0] + coefficients[1] * 3.0
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


def test_failed_gram_factorization_raises():
    # an infinite predictor value leaves the Gram matrix without a factor
    matrix = np.array([[1.0, 1.0], [np.inf, 2.0], [3.0, NAN], [4.0, 3.0]])
    state = initialize_fills(matrix, np.random.default_rng(0))
    with pytest.raises(DegenerateModelError):
        pmm_draw(state, 1)


def test_nonfinite_predictor_at_a_hole_raises():
    # the fit reads only the target's observed rows, so an infinite predictor
    # where the target is missing never reaches the Gram matrix
    matrix = np.array([[1.0, 1.0], [np.inf, NAN], [3.0, 2.0], [4.0, 3.0], [5.0, NAN]])
    state = initialize_fills(matrix, np.random.default_rng(0))
    with pytest.raises(DegenerateModelError, match="^degenerate conditional model for column 1$"):
        pmm_draw(state, 1)


def test_sweep_no_missing_leaves_matrix_unchanged():
    matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
    completed = chain_ensemble(matrix[None], m=1, t=1, master_seed=0, streams=[()])[0]
    np.testing.assert_array_equal(completed, matrix)


def test_sweep_single_missing_cell_draws_once(monkeypatch):
    calls = []
    real = ce._pmm_step

    def counting(aug, holes, inert, rngs, col):
        member, row, fills = real(aug, holes, inert, rngs, col)
        calls.extend((col, int(r)) for r in row)
        return member, row, fills

    monkeypatch.setattr(ce, "_pmm_step", counting)
    matrix = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, NAN]])
    run_chains(matrix, m=1, t=1, master_seed=0)
    assert calls == [(1, 2)]


def test_sweep_deterministic_replay():
    matrix = duplicate_x_instance()
    results = []
    for _ in range(2):
        results.append(run_chains(matrix, m=1, t=1, master_seed=42).completed(matrix))
    np.testing.assert_array_equal(results[0], results[1])


def test_run_chains_single_chain_zero_std():
    result = run_chains(duplicate_x_instance(), m=1, t=3, master_seed=0)
    assert np.all(result.per_cell_std == 0.0)


def test_run_chains_no_missing_identity():
    matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
    result = run_chains(matrix, m=3, t=2, master_seed=0)
    assert result.cells.shape == (0, 2) and result.cells.dtype == np.int64
    np.testing.assert_array_equal(result.completed(matrix), matrix)


def test_run_chains_pooled_fill_exact_on_duplicate_x():
    for seed in range(5):
        result = run_chains(duplicate_x_instance(), m=5, t=10, master_seed=seed)
        assert result.cells.tolist() == [[3, 1]]
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


def test_perturbed_coefficients_follow_their_posterior():
    # Two groups of N members over one 30 x 4 design, each member with its own
    # generator. Group 0 regresses column 1 on the intercept and columns 0, 2
    # and 3; group 1 has column 3 inert. The last member's observed target is
    # all 0, so its residual variance is 0.
    rng = np.random.default_rng(40)
    n, k, target, N = 30, 4, 1, 4000
    matrix = rng.normal(size=(n, 1)) + 0.4 * rng.normal(size=(n, k))
    matrix[:, target] = 1.0 + 2.0 * matrix[:, 0] - matrix[:, 2] + 0.3 * rng.normal(size=n)
    observed = np.arange(n) >= 6
    groups = [np.arange(N), np.arange(N, 2 * N)]
    B = 2 * N + 1
    inert = np.zeros((B, k), dtype=bool)
    inert[groups[1], 3] = True
    aug = np.empty((B, 1 + k, n))
    aug[:, 0] = 1.0
    aug[:, 1:] = matrix.T
    aug[:, 1:][inert] = INERT_FILL
    aug[-1, 1 + target] = np.where(observed, 0.0, 0.7)
    use = ce._design_columns(inert, target)
    beta, inv_chol, sigma2 = ce._fit(aug, np.broadcast_to(observed, (B, n)), use, target)
    rngs = [np.random.default_rng((41, b)) for b in range(B)]
    idle_state = rngs[-1].bit_generator.state
    draws = ce._perturb(beta, inv_chol, sigma2, use, np.arange(B), rngs)

    for members, predictors in zip(groups, ([0, 2, 3], [0, 2])):
        design = np.column_stack([np.ones(n), matrix[:, predictors]])[observed]
        y = matrix[observed, target]
        p = design.shape[1]
        mean = ridge_oracle(design, y)
        resid = y - design @ mean
        s2 = resid @ resid / (observed.sum() - p)
        cov = s2 * np.linalg.inv(design.T @ design + RIDGE * np.eye(p))
        np.testing.assert_allclose(sigma2[members], s2, rtol=1e-9)
        # the target and any inert column keep a coefficient of exactly 0
        cols = np.flatnonzero(use[members[0]])
        np.testing.assert_array_equal(cols, [0, *(1 + np.array(predictors))])
        assert np.all(draws[members][:, ~use[members[0]]] == 0.0)
        sample = draws[members][:, cols]
        # 5 standard errors from the sample size: the mean of N Gaussian draws
        # has standard error sqrt(C_jj / N); a sample covariance entry has
        # sqrt((C_ij^2 + C_ii C_jj) / N)
        var = np.diag(cov)
        assert np.all(np.abs(sample.mean(axis=0) - mean) <= 5 * np.sqrt(var / N))
        cov_se = np.sqrt((cov**2 + np.outer(var, var)) / N)
        assert np.all(np.abs(np.cov(sample, rowvar=False) - cov) <= 5 * cov_se)

    # the zero-variance member keeps its ridge fit and draws no normals
    assert sigma2[-1] == 0.0
    assert_same_bits(draws[-1], beta[-1])
    assert rngs[-1].bit_generator.state == idle_state


def test_fit_same_bits_alone_as_in_a_ragged_batch():
    # Members 0-2 are chains of one view and share their observed rows;
    # member 3 has none, as an inactive member has; members 4 and 5 are
    # adjacent members of different views with equal observed rows; member 6
    # has column 3 inert and differs from member 5 in its last row only.
    rng = np.random.default_rng(50)
    n, k, target, B = 20, 4, 1, 7
    matrix = rng.normal(size=(B, n, 1)) + 0.5 * rng.normal(size=(B, n, k))
    matrix[:, :, target] = 1.0 + 2.0 * matrix[:, :, 0] - matrix[:, :, 2] + 0.3 * rng.normal(size=(B, n))
    shared, equal = rng.random(n) < 0.6, rng.random(n) < 0.5
    last = equal.copy()
    last[-1] = not last[-1]
    observed = np.stack([shared] * 3 + [np.zeros(n, bool), equal, equal, last])
    inert = np.zeros((B, k), dtype=bool)
    inert[6, 3] = True
    aug = np.empty((B, 1 + k, n))
    aug[:, 0] = 1.0
    aug[:, 1:] = matrix.swapaxes(1, 2)
    aug[:, 1:][inert] = INERT_FILL
    use = ce._design_columns(inert, target)
    batch = ce._fit(aug, observed, use, target)

    for b in range(B):
        alone = ce._fit(aug[b:b + 1], observed[b:b + 1], use[b:b + 1], target)
        for got, want in zip(batch, alone):
            assert_same_bits(got[b], want[0])
        design = aug[b][use[b]].T[observed[b]]
        y = aug[b, 1 + target, observed[b]]
        mean = ridge_oracle(design, y)
        resid = y - design @ mean
        s2 = resid @ resid / max(1, observed[b].sum() - design.shape[1])
        np.testing.assert_allclose(batch[0][b, use[b]], mean, rtol=1e-9)
        assert np.all(batch[0][b, ~use[b]] == 0.0)
        np.testing.assert_allclose(batch[2][b], s2, rtol=1e-9)
    assert np.all(batch[0][3] == 0.0) and batch[2][3] == 0.0


def gibbs_oracle(matrix, m, t, seed, stream):
    """Plain per-chain Gibbs loop, written independently of the kernel.

    Bootstrap, then per sweep and column: ridge fit on the observed rows,
    coefficient perturbation, PMM; with the kernel's draw order and skip
    rules. Returns the ``(m, n, k)`` completed matrices.
    """
    holes = np.isnan(matrix)
    n, k = matrix.shape
    inert = holes.all(axis=0)
    out = []
    for chain in range(m):
        rng = np.random.default_rng(tuple(stream) + (seed, chain))
        mat = matrix.copy()
        for c in range(k):
            if inert[c]:
                mat[:, c] = INERT_FILL
            elif holes[:, c].any():
                mat[holes[:, c], c] = rng.choice(
                    mat[~holes[:, c], c], size=holes[:, c].sum(), replace=True
                )
        for _ in range(t):
            for c in range(k):
                obs, mis = np.flatnonzero(~holes[:, c]), np.flatnonzero(holes[:, c])
                if inert[c] or mis.size == 0 or obs.size < 2:
                    continue
                preds = [j for j in range(k) if j != c and not inert[j]]
                design = np.column_stack([np.ones(n), mat[:, preds]])
                beta = ridge_oracle(design[obs], mat[obs, c])
                p = design.shape[1]
                resid = mat[obs, c] - design[obs] @ beta
                sigma2 = resid @ resid / max(1, obs.size - p)
                if sigma2 > 0:
                    gram = design[obs].T @ design[obs] + RIDGE * np.eye(p)
                    z = rng.standard_normal(p)
                    beta = beta + np.sqrt(sigma2) * np.linalg.solve(np.linalg.cholesky(gram).T, z)
                pred = design @ beta
                mat[mis, c] = oracle_pmm(pred, mat[:, c], obs, mis, rng.random(mis.size))
        out.append(mat)
    return np.stack(out)


def oracle_pmm(pred, values, obs, mis, u):
    """PMM fills of rows ``mis`` from donor rows ``obs``, one uniform in ``u`` per hole.

    A hole draws among the first ``PMM_DONORS`` donors, in row order, whose
    prediction ties its own. Otherwise it draws among its ``PMM_DONORS``
    nearest donors of the ``PMM_DONORS`` sorted donors on each side of its
    insertion point, ranked by distance and then by sorted order.
    """
    donors = obs[np.argsort(pred[obs], kind="stable")]
    fills = []
    for hole, draw in zip(mis, u):
        ties = donors[pred[donors] == pred[hole]][:PMM_DONORS]
        if ties.size:
            fills.append(values[ties[int(draw * ties.size)]])
            continue
        at = np.searchsorted(pred[donors], pred[hole])
        window = donors[max(0, at - PMM_DONORS) : at + PMM_DONORS]
        near = sorted(window, key=lambda r: abs(pred[r] - pred[hole]))[:PMM_DONORS]
        fills.append(values[near[int(draw * len(near))]])
    return np.array(fills)


def ragged_stack():
    """Four 24 x 5 views with different hole patterns.

    View 0 has a column with no holes, view 1 an inert column (so its
    members regress on one predictor fewer) and a column observed exactly
    once, view 2 no holes at all, view 3 scattered holes everywhere.
    """
    rng = np.random.default_rng(20)
    base = rng.normal(size=(4, 24, 1)) + 0.5 * rng.normal(size=(4, 24, 5))
    holes = rng.random(base.shape) < 0.3
    holes[0, :, 4] = False
    holes[1, :, 2] = True
    holes[1, :, 3] = True
    holes[1, 7, 3] = False
    holes[2] = False
    return np.where(holes, np.nan, base)


def test_chain_members_isolated_and_match_oracle():
    stack = ragged_stack()
    streams = [(9, v) for v in range(len(stack))]
    m, t, seed = 3, 3, 4
    batch = chain_ensemble(stack, m, t, seed, streams).reshape(len(stack), m, *stack.shape[1:])
    for v, view in enumerate(stack):
        alone = chain_ensemble(view[None], m, t, seed, [streams[v]])
        oracle = gibbs_oracle(view, m, t, seed, streams[v])
        assert_same_bits(batch[v], alone)
        np.testing.assert_array_equal(batch[v], oracle)
    # the ragged cases took their intended paths
    np.testing.assert_array_equal(batch[1][:, :, 2], INERT_FILL)
    np.testing.assert_array_equal(batch[1][:, :, 3], stack[1, 7, 3])
    np.testing.assert_array_equal(batch[2], np.broadcast_to(stack[2], batch[2].shape))


# Reference for ``_match``, which must give its bits: a window-argsort donor
# match with one stable sort of each member's donors, a searchsorted per
# member and a stable argsort of each hole's 2k-slot window.
def window_match_oracle(pred, y, observed, holes, rngs):
    """PMM donors for every member's holes of one column.

    ``pred``, ``y``, ``observed`` and ``holes`` are ``(B, n)``. Each member's
    observed predictions, in row order and padded with ``+inf``, take one
    stable sort; each hole then finds its insertion point with that member's
    own ``searchsorted``. Preference order per hole: exact prediction ties
    first (capped at ``PMM_DONORS``), otherwise the ``PMM_DONORS`` nearest
    predictions. Returns the flat ``(member, row)`` hole indices,
    member-major, and their donor values.
    """
    n_obs = observed.sum(axis=1)
    obs_member, obs_row = np.nonzero(observed)
    obs_pos = np.arange(obs_member.size) - (np.cumsum(n_obs) - n_obs)[obs_member]
    key = np.full((pred.shape[0], max(int(n_obs.max()), 1)), np.inf)
    key[obs_member, obs_pos] = pred[obs_member, obs_row]
    donor_y = np.zeros_like(key)
    donor_y[obs_member, obs_pos] = y[obs_member, obs_row]
    order = np.argsort(key, axis=1, kind="stable")
    # PMM_DONORS slots of +inf on either side keep every donor window in range
    width = key.shape[1] + 2 * PMM_DONORS
    sorted_pred = np.full((pred.shape[0], width), np.inf)
    sorted_pred[:, PMM_DONORS:-PMM_DONORS] = np.take_along_axis(key, order, axis=1)
    sorted_y = np.take_along_axis(donor_y, order, axis=1)

    member, row = np.nonzero(holes)
    q = pred[member, row]
    counts = holes.sum(axis=1).tolist()
    ends = np.cumsum(counts).tolist()
    todo = [b for b, count in enumerate(counts) if count]
    lo = np.concatenate(
        [
            np.searchsorted(sorted_pred[b, PMM_DONORS:], q[ends[b] - counts[b] : ends[b]])
            for b in todo
        ]
    )
    u = np.concatenate([rngs[b].random(counts[b]) for b in todo])

    # The k nearest neighbours in a sorted array lie within k slots of the
    # insertion point, so ranking the 2k window around it is exact; padding
    # slots are infinitely far. Windows run down axis 0.
    dist = sorted_pred.ravel()[np.arange(2 * PMM_DONORS)[:, None] + (member * width + lo)]
    dist -= q
    np.abs(dist, out=dist)

    # exact ties sit at the insertion point and after it: a uniform draw
    # among the first PMM_DONORS of them
    pool = (dist[PMM_DONORS:] == 0.0).sum(axis=0)
    tie_pos = lo + np.minimum((u * pool).astype(np.int64), pool - 1)

    nearest = np.argsort(dist, axis=0, kind="stable")
    k = np.minimum(PMM_DONORS, n_obs[member])
    pick = np.minimum((u * k).astype(np.int64), k - 1)
    free_pos = lo + np.take_along_axis(nearest, pick[None], axis=0)[0] - PMM_DONORS

    pos = np.where(pool > 0, tie_pos, free_pos)
    return member, row, sorted_y[member, pos]


# Prediction levels for the match fuzz: exact ties, midpoints equally far
# from two levels, signed zeros, and levels far enough apart that distances
# from one to values a few ulp apart near another round equal.
LEVELS = (-2.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 8.0, 1e6)


@st.composite
def match_inputs(draw):
    """``_match`` arguments as ``_pmm_step`` passes them, dense in ties.

    Member 0 has holes; any other member has holes, no holes, or no rows at
    all (inactive). A member with holes has at least two donors. Donors
    predict a cluster of values a few ulp apart or one of up to three
    levels; holes predict up to three levels, which donors may or may not
    share.
    """
    n = draw(st.integers(3, 30))
    value = draw(st.sampled_from(LEVELS))
    cluster = []
    for step in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
        cluster.append(value)
        for _ in range(step):
            value = np.nextafter(value, np.inf)
    donor_levels = st.sampled_from(cluster + draw(st.lists(st.sampled_from(LEVELS), max_size=3)))
    hole_levels = st.sampled_from(draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3)))
    kinds = ["holes"] + draw(st.lists(st.sampled_from(["holes", "full", "inactive"]), max_size=4))
    B = len(kinds)
    observed = np.zeros((B, n), dtype=bool)
    holes = np.zeros((B, n), dtype=bool)
    for b, kind in enumerate(kinds):
        if kind == "full":
            observed[b] = True
        elif kind == "holes":
            n_obs = draw(st.integers(2, n - 1))
            rows = np.array(draw(st.permutations(range(n))))
            observed[b, rows[:n_obs]] = True
            holes[b, rows[n_obs:]] = True
    pred = np.array([draw(hole_levels if hole else donor_levels) for hole in holes.ravel()])
    y = np.random.default_rng(draw(st.integers(0, 2**32))).normal(size=(B, n))
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=B, max_size=B))
    return pred.reshape(B, n), y, observed, holes, seeds


def assert_match_equals_oracle(pred, y, observed, holes, seeds):
    """Same holes, same donor bits and same generator states as the oracle."""
    results = []
    for match in (ce._match, window_match_oracle):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        member, row, fills = match(pred, y, observed, holes, rngs)
        results.append((member, row, fills, [r.bit_generator.state for r in rngs]))
    (member, row, fills, states), (o_member, o_row, o_fills, o_states) = results
    np.testing.assert_array_equal(member, o_member)
    np.testing.assert_array_equal(row, o_row)
    assert_same_bits(fills, o_fills)
    assert states == o_states


def equal_distance_runs():
    """Runs of equally far donors longer than ``PMM_DONORS`` on both sides.

    Two members with nine donors at 0 and nine at 1, six holes at 0.5 and
    one each at 0, 1 and 0.25.
    """
    row = np.array([0.0] * 9 + [1.0] * 9 + [0.5] * 6 + [0.0, 1.0, 0.25])
    pred = np.stack([row, row[::-1]])
    holes = np.zeros(pred.shape, dtype=bool)
    holes[0, 18:] = True
    holes[1, :9] = True
    y = np.arange(pred.size, dtype=float).reshape(pred.shape)
    return pred, y, ~holes, holes, [3, 103]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(match_inputs())
@example(equal_distance_runs())
def test_match_same_bits_as_window_oracle(inputs):
    assert_match_equals_oracle(*inputs)


def test_match_draws_from_the_window_when_many_donors_tie_below():
    # Seven donors predict 0 and one predicts 5; the hole predicts 1. The
    # five nearest donors all predict 0, and the ranked window holds the
    # five just below the insertion point, lowest first: rows 2..6, not the
    # rows 0..4 that a sort over all donors gives. gibbs_oracle's PMM step
    # draws from the same window.
    pred = np.array([[0.0] * 7 + [5.0, 1.0]])
    y = np.arange(9.0)[None]
    holes = np.arange(9)[None] == 8
    drawn = set()
    for seed in range(40):
        u = np.random.default_rng(seed).random()
        _, _, fills = ce._match(pred, y, ~holes, holes, [np.random.default_rng(seed)])
        oracle = oracle_pmm(pred[0], y[0], np.arange(8), np.array([8]), [u])
        assert fills.tolist() == oracle.tolist() == [2.0 + int(5 * u)]
        drawn.add(fills[0])
    assert drawn == {2.0, 3.0, 4.0, 5.0, 6.0}


def in_groups(stack, m, t, seed, streams, groups):
    """The ensemble as ``groups`` contiguous member blocks, one per worker.

    ``methods.run_plan`` runs the first block here and each other in a
    forked child, as ``impute()`` runs a plan's chain blocks.
    """
    keep = np.ones(stack.shape, dtype=bool)
    ensemble = Ensemble(stack, m, t, seed, streams, keep, None, None)
    blocks = ensemble.cuts(groups)[-1]
    results = methods.run_plan([[("chains", block)] for block, _ in blocks], {"chains": ensemble})
    # every cell is kept, so chain i's values are its views' matrices in order
    matrices = ensemble.per_chain(results["chains"]).reshape(m, *stack.shape).swapaxes(0, 1)
    return matrices.reshape(-1, *stack.shape[1:])


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_member_groups_match_oracle(groups):
    # 12 members, 3 per view: 6/6 splits between views, 4/4/4 through views 1 and 2
    stack = ragged_stack()
    streams = [(9, v) for v in range(len(stack))]
    m, t, seed = 3, 3, 4
    batch = in_groups(stack, m, t, seed, streams, groups).reshape(len(stack), m, 24, 5)
    for v, view in enumerate(stack):
        assert_same_bits(batch[v], gibbs_oracle(view, m, t, seed, streams[v]))
    assert_no_child_left()


@pytest.mark.parametrize(("m", "groups"), [(5, 2), (5, 3), (1, 3)])
def test_member_groups_same_bits_as_one_group(m, groups):
    # B = 5 splits 3/2 and 2/2/1; B = 1 stays one group
    rng = np.random.default_rng(31)
    view = rng.normal(size=(30, 4))
    view[rng.random(view.shape) < 0.35] = np.nan
    alone = chain_ensemble(view[None], m, 4, 2, [(5,)])
    assert_same_bits(in_groups(view[None], m, 4, 2, [(5,)], groups), alone)
    assert_no_child_left()


def test_worker_count_follows_cpus_and_threads():
    cpus = len(os.sched_getaffinity(0))
    assert forking.workers() == cpus
    # a one-member ensemble stays one block, however many workers there are
    ensemble = Ensemble(np.zeros((1, 30, 4)), 1, 4, 0, [()], None, None, None)
    assert methods.plan({"chains": ensemble}, forking.workers()) == [[("chains", range(1))]]
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        assert forking.workers() == 1
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()


def degenerate_stack():
    """Two 4 x 2 views; the second has an infinite predictor value."""
    good = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, NAN], [4.0, 3.0]])
    bad = np.array([[1.0, 1.0], [np.inf, 2.0], [3.0, NAN], [4.0, 3.0]])
    return np.stack([good, bad])


@pytest.mark.parametrize("order", [1, -1])
def test_degenerate_member_in_any_group_raises(order):
    # order 1 puts the bad view's members in the forked group, -1 in this process
    stack = degenerate_stack()[::order]
    with pytest.raises(DegenerateModelError, match="^degenerate conditional model for column 1$"):
        in_groups(stack, 2, 2, 0, [(1,), (2,)], 2)
    assert_no_child_left()


def test_interrupted_parent_kills_its_children():
    class Stalls:
        """A stage whose first block interrupts this process; any other sleeps."""

        def run(self, members):
            if members.start == 0:
                raise KeyboardInterrupt
            time.sleep(60)

    shares = [[("stalls", range(0, 1))], [("stalls", range(1, 2))]]
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        methods.run_plan(shares, {"stalls": Stalls()})
    assert time.perf_counter() - start < 30
    assert_no_child_left()
