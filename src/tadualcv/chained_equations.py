"""Chained-equations imputation with predictive-mean-matching conditionals.

Works on a plain 2-D float matrix whose holes are NaN. Each incomplete column
is regressed on all other usable columns, the fit is perturbed with a draw
from the approximate coefficient posterior, and every hole receives the
observed value of a donor row whose prediction is closest to its own. Running
several independently seeded chains and pooling per-cell means/stds gives
both a point imputation and a dispersion estimate per hole.

Donor matching: rows whose prediction ties the missing row's prediction
exactly (identical predictor rows) are preferred and the draw is made among
them; otherwise the draw is uniform over the ``PMM_DONORS`` nearest
predictions. Either way the imputed value is always a member of the column's
observed-value set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

RIDGE = 1e-5
PMM_DONORS = 5

# Fill used for columns with no observations at all; data is expected to be
# range-normalized to [0, 1] before chained equations run.
INERT_FILL = 0.5


class DegenerateModelError(RuntimeError):
    """Conditional model could not be fit (singular design despite ridge)."""


@dataclass
class ConditionalModel:
    """Ridge regression of one column on the others, intercept first."""

    target_column: int
    predictor_columns: list[int]
    coefficients: np.ndarray
    residual_scale: float
    gram_factor: tuple | None = None


class ChainState:
    """Mutable working state of one chain: completed matrix plus bookkeeping."""

    def __init__(self, matrix, missing, observed, inert, rng):
        self.matrix = matrix
        self.missing = missing
        self.observed = observed
        self.inert = inert
        self.rng = rng

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


@dataclass
class ChainEnsembleResult:
    """Pooled output of ``m`` chains over the originally missing cells.

    ``cells`` lists (row, column) pairs in row-major order; the fill arrays
    align with it. ``per_cell_std`` is the sample standard deviation across
    chains (ddof=1), zero when only one chain ran.
    """

    cells: list[tuple[int, int]]
    per_chain_fills: np.ndarray
    pooled_fill: np.ndarray
    per_cell_std: np.ndarray

    def completed(self, matrix: np.ndarray) -> np.ndarray:
        """Copy of ``matrix`` with pooled fills written into its holes."""
        out = np.array(matrix, dtype=float)
        for (r, c), v in zip(self.cells, self.pooled_fill):
            out[r, c] = v
        return out


def initialize_fills(matrix: np.ndarray, rng: np.random.Generator) -> ChainState:
    """Bootstrap a chain: every hole gets a uniformly drawn observed donor.

    Columns with no observations are filled with ``INERT_FILL`` and flagged
    inert; they are never used as regression targets or predictors.
    """
    mat = np.array(matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n_cols = mat.shape[1]
    missing, observed = [], []
    inert = np.zeros(n_cols, dtype=bool)
    for c in range(n_cols):
        holes = np.isnan(mat[:, c])
        mis = np.nonzero(holes)[0]
        obs = np.nonzero(~holes)[0]
        missing.append(mis)
        observed.append(obs)
        if obs.size == 0:
            inert[c] = True
            mat[mis, c] = INERT_FILL
        elif mis.size:
            mat[mis, c] = rng.choice(mat[obs, c], size=mis.size, replace=True)
    return ChainState(mat, missing, observed, inert, rng)


def fit_conditional(state: ChainState, target_column: int) -> ConditionalModel:
    """Ridge least squares of the target on all other non-inert columns.

    Fit over the target's observed rows using the current completed values of
    the predictors. Falls back to an intercept-only model when every other
    column is inert.
    """
    col = target_column
    obs = state.observed[col]
    predictors = [c for c in range(state.n_columns) if c != col and not state.inert[c]]
    design = _design(state.matrix, obs, predictors)
    y = state.matrix[obs, col]

    p = design.shape[1]
    gram = design.T @ design + RIDGE * np.eye(p)
    try:
        factor = cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError(
            f"degenerate conditional model for column {col}"
        ) from exc
    beta = cho_solve(factor, design.T @ y)
    resid = y - design @ beta
    dof = max(1, obs.size - p)
    sigma2 = float(resid @ resid) / dof
    return ConditionalModel(col, predictors, beta, float(np.sqrt(sigma2)), factor)


def _design(matrix, rows, predictors):
    n = len(rows)
    if predictors:
        return np.hstack([np.ones((n, 1)), matrix[np.ix_(rows, predictors)]])
    return np.ones((n, 1))


def _perturb_coefficients(model: ConditionalModel, rng: np.random.Generator) -> np.ndarray:
    """Draw from the approximate coefficient posterior around the ridge fit."""
    sigma2 = model.residual_scale**2
    if sigma2 <= 0.0:
        return model.coefficients
    p = model.coefficients.size
    cov = sigma2 * cho_solve(model.gram_factor, np.eye(p))
    cov = 0.5 * (cov + cov.T)
    try:
        scale = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        scale = np.linalg.cholesky(cov + 1e-12 * sigma2 * np.eye(p))
    return model.coefficients + scale @ rng.standard_normal(p)


def _match_donors(pred_obs, y_obs, pred_mis, rng):
    """PMM donor selection, vectorized over all missing rows of a column.

    Preference order per missing row: exact prediction ties first (capped at
    PMM_DONORS), otherwise the PMM_DONORS nearest predictions. The donor's
    observed value is returned.
    """
    n_obs = pred_obs.size
    n_mis = pred_mis.size
    k = min(PMM_DONORS, n_obs)

    order = np.argsort(pred_obs, kind="stable")
    sorted_pred = pred_obs[order]
    lo = np.searchsorted(sorted_pred, pred_mis, side="left")
    hi = np.searchsorted(sorted_pred, pred_mis, side="right")
    u = rng.random(n_mis)

    fills = np.empty(n_mis)
    tie = hi > lo
    if np.any(tie):
        pool = np.minimum(hi[tie] - lo[tie], PMM_DONORS)
        pick = lo[tie] + np.minimum((u[tie] * pool).astype(np.int64), pool - 1)
        fills[tie] = y_obs[order[pick]]

    free = ~tie
    if np.any(free):
        # The k nearest neighbours in a sorted array lie within k slots of
        # the insertion point, so ranking a 2k window is exact.
        offsets = np.arange(-k, k)
        cand = np.clip(lo[free, None] + offsets[None, :], 0, n_obs - 1)
        dist = np.abs(sorted_pred[cand] - pred_mis[free, None])
        # Boundary clipping duplicates edge candidates; push duplicates out
        # of the top-k.
        dist[:, 1:][cand[:, 1:] == cand[:, :-1]] = np.inf
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        pick_col = np.minimum((u[free] * k).astype(np.int64), k - 1)
        chosen = np.take_along_axis(nearest, pick_col[:, None], axis=1)[:, 0]
        donor_pos = np.take_along_axis(cand, chosen[:, None], axis=1)[:, 0]
        fills[free] = y_obs[order[donor_pos]]
    return fills


def pmm_draw(state: ChainState, target_column: int) -> np.ndarray:
    """Refresh one column's fills via predictive mean matching.

    Fits the conditional model, perturbs its coefficients, predicts both
    observed and missing rows, and writes donor values into the holes.
    Returns the new fills in missing-row order.
    """
    col = target_column
    obs, mis = state.observed[col], state.missing[col]
    model = fit_conditional(state, col)
    beta = _perturb_coefficients(model, state.rng)

    # One stacked product so identical predictor rows get bitwise-identical
    # predictions regardless of which side of the split they fall on.
    pred = _design(state.matrix, np.concatenate([obs, mis]), model.predictor_columns) @ beta
    pred_obs, pred_mis = pred[: obs.size], pred[obs.size :]
    fills = _match_donors(pred_obs, state.matrix[obs, col], pred_mis, state.rng)
    state.matrix[mis, col] = fills
    return fills


def sweep(state: ChainState) -> ChainState:
    """One Gibbs pass: update every eligible column in ascending index order.

    Columns are skipped when inert, complete, or too thin to regress
    (fewer than two observed entries keep their bootstrap fill frozen).
    """
    for col in range(state.n_columns):
        if state.inert[col]:
            continue
        if state.missing[col].size == 0 or state.observed[col].size < 2:
            continue
        pmm_draw(state, col)
    return state


def run_chains(
    matrix: np.ndarray,
    m: int,
    t: int,
    master_seed: int,
    stream: tuple[int, ...] = (),
) -> ChainEnsembleResult:
    """Run ``m`` independent chains for ``t`` sweeps each and pool the fills.

    Chain ``i`` draws from a generator keyed by ``(*stream, master_seed, i)``,
    so results are reproducible and independent of scheduling. ``stream``
    lets callers carve out disjoint randomness for separate views.
    """
    if m < 1 or t < 1:
        raise ValueError("need at least one chain and one iteration")
    matrix = np.asarray(matrix, dtype=float)
    holes = np.isnan(matrix)
    rows, cols = np.nonzero(holes)
    cells = list(zip(rows.tolist(), cols.tolist()))
    if not cells:
        empty = np.zeros(0)
        return ChainEnsembleResult(cells, np.zeros((m, 0)), empty, empty.copy())

    per_chain = np.empty((m, len(cells)))
    for chain in range(m):
        rng = np.random.default_rng(tuple(stream) + (int(master_seed), chain))
        state = initialize_fills(matrix, rng)
        for _ in range(t):
            sweep(state)
        per_chain[chain] = state.matrix[holes]

    pooled = per_chain.mean(axis=0)
    if m > 1:
        std = per_chain.std(axis=0, ddof=1)
    else:
        std = np.zeros(len(cells))
    return ChainEnsembleResult(cells, per_chain, pooled, std)
