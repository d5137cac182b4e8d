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

Every chain runs through one batched kernel. A member is one chain of one
view (matrix) with its own generator; all members step through each column
in lockstep, with one ridge fit, one coefficient perturbation and one donor
match per column step for the whole batch. Members may have different hole
patterns but share the matrix shape. The kernel only combines values of the
same member, so a chain gives the same bits alone or in any batch;
``run_chains``, ``sweep``, ``pmm_draw`` and ``fit_conditional`` are batches
of one view. ``chain_ensemble`` splits its members into contiguous groups,
one per usable CPU, and runs every group but the first in a forked child
(``forking``); the output does not depend on the number of groups.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import forking

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


class ChainState:
    """Mutable working state of one chain: completed matrix plus bookkeeping.

    ``aug`` is the design state, one row per design column: a row of ones
    for the intercept, then the completed matrix transposed, which
    ``matrix`` views as ``(n, k)``. ``holes`` ``(k, n)`` marks the originally
    missing cells and ``inert`` the columns with no observation.
    """

    def __init__(self, aug, holes, rng):
        self.aug = aug
        self.holes = holes
        self.inert = holes.all(axis=1)
        self.rng = rng

    @property
    def matrix(self) -> np.ndarray:
        return self.aug[1:].T

    @property
    def observed(self) -> list[np.ndarray]:
        return [np.nonzero(~h)[0] for h in self.holes]

    def batch(self):
        """The chain as a batch of one: ``(aug, holes, inert, rngs)``."""
        return self.aug[None], self.holes[None], self.inert[None], [self.rng]


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
        rows, cols = np.array(self.cells, dtype=np.int64).reshape(-1, 2).T
        out[rows, cols] = self.pooled_fill
        return out


def _bootstrap(aug, rngs):
    """Fill every member's holes with uniformly drawn observed donors, in place.

    ``aug`` is a ``(B, 1 + k, n)`` stack whose rows after the first hold each
    member's matrix, transposed, NaN at holes. Columns with no observations
    are filled with ``INERT_FILL`` without a draw. Returns the ``(B, k, n)``
    hole mask and the ``(B, k)`` inert flags.
    """
    holes = np.isnan(aug[:, 1:])
    inert = holes.all(axis=2)
    for cols, mis, dead, rng in zip(aug[:, 1:], holes, inert, rngs):
        for col, hole, is_inert in zip(cols, mis, dead):
            if is_inert:
                col[:] = INERT_FILL
            elif hole.any():
                col[hole] = rng.choice(col[~hole], size=np.count_nonzero(hole), replace=True)
    return holes, inert


def initialize_fills(matrix: np.ndarray, rng: np.random.Generator) -> ChainState:
    """Bootstrap a chain: every hole gets a uniformly drawn observed donor.

    Columns with no observations are filled with ``INERT_FILL`` and flagged
    inert; they are never used as regression targets or predictors.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    aug = np.empty((1, mat.shape[1] + 1, mat.shape[0]))
    aug[0, 0] = 1.0
    aug[0, 1:] = mat.T
    holes, _ = _bootstrap(aug, [rng])
    return ChainState(aug[0], holes[0], rng)


def _design_columns(inert, col):
    """``(B, 1 + k)`` flags of the design columns each member regresses on.

    The intercept and every non-inert column other than the target.
    """
    use = np.ones((inert.shape[0], inert.shape[1] + 1), dtype=bool)
    use[:, 1:] = ~inert
    use[:, 1 + col] = False
    return use


def _inv_lower(chol):
    """Inverses of a ``(B, p, p)`` stack of lower-triangular factors.

    Forward substitution, one row of the inverse per step; each step is one
    stacked product per member, so no sum mixes members.
    """
    inv = np.zeros_like(chol)
    for j in range(chol.shape[1]):
        row = -(chol[:, j, None, :j] @ inv[:, :j])[:, 0]
        row[:, j] += 1.0
        inv[:, j] = row / chol[:, j, j, None]
    return inv


def _fit(aug, observed, use, col):
    """Ridge fits of column ``col`` for every member, over its observed rows.

    ``aug`` is ``(B, 1 + k, n)``, ``observed`` ``(B, n)`` each member's 0/1
    row weight and ``use`` its design columns. Design columns a member leaves
    out get an identity row in its Gram matrix and a zero right-hand side, so
    their coefficients are 0 and every member's system has the same size.
    Returns the coefficients ``(B, 1 + k)``, the inverses ``L^-1`` of the
    Grams' lower Cholesky factors and the residual variances ``(B,)``.
    """
    p = aug.shape[1]
    weights = observed.astype(float)
    weighted = aug * weights[:, None, :]
    # column 1 + col of A'WA is A'Wy, the right-hand side
    gram = aug @ weighted.swapaxes(1, 2)
    rhs = np.where(use, gram[:, :, 1 + col], 0.0)
    gram = np.where(use[:, :, None] & use[:, None, :], gram, 0.0)
    gram[:, range(p), range(p)] += np.where(use, RIDGE, 1.0)
    try:
        chol = np.linalg.cholesky(gram)
        # a non-finite Gram can factor into NaN without an error
        if not np.isfinite(chol).all():
            raise np.linalg.LinAlgError("non-finite factor")
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError(f"degenerate conditional model for column {col}") from exc
    inv_chol = _inv_lower(chol)
    # G^-1 rhs = L^-T (L^-1 rhs)
    beta = inv_chol.swapaxes(1, 2) @ (inv_chol @ rhs[:, :, None])
    beta = np.where(use, beta[:, :, 0], 0.0)

    resid = aug[:, 1 + col] - (beta[:, None, :] @ aug)[:, 0]
    dof = np.maximum(1, observed.sum(axis=1) - use.sum(axis=1))
    sigma2 = (weights * resid * resid).sum(axis=1) / dof
    return beta, inv_chol, sigma2


def _perturb(beta, inv_chol, sigma2, use, members, rngs):
    """Draw every member's coefficients from their approximate posterior.

    The draw is ``beta + sigma * L^-T z`` with ``z`` standard normal, so its
    covariance is ``sigma2 * G^-1`` through the fit's own factor, with
    ``sigma2`` at its point estimate. Members whose residual variance is 0
    keep their ridge fit and draw nothing; the others draw
    ``standard_normal(p)`` over their own ``p`` design columns. A left-out
    column's row and column of ``L^-1`` are those of the identity, so its
    coefficient stays 0.
    """
    draws = members[sigma2[members] > 0.0]
    if draws.size == 0:
        return beta
    z = np.zeros((draws.size, beta.shape[1], 1))
    sizes = use[draws].sum(axis=1)
    z[use[draws], 0] = np.concatenate([rngs[b].standard_normal(n) for b, n in zip(draws, sizes)])
    beta = beta.copy()
    beta[draws] += np.sqrt(sigma2[draws])[:, None] * (inv_chol[draws].swapaxes(1, 2) @ z)[:, :, 0]
    return beta


def _match(pred, y, observed, holes, rngs):
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


def _pmm_step(aug, holes, inert, rngs, col):
    """Refresh column ``col`` of every member by predictive mean matching.

    A member skips the column when it is inert, has no holes, or has fewer
    than two observed entries (its bootstrap fill stays frozen). Per member
    the draws are ``standard_normal(p)`` (only when the residual variance is
    positive) and then ``random(n_mis)``. Writes the fills into ``aug`` and
    returns the flat ``(member, row)`` hole indices and their fills.
    """
    mis = holes[:, col]
    n_mis = mis.sum(axis=1)
    active = (n_mis > 0) & (mis.shape[1] - n_mis >= 2)
    if not active.any():
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    observed = ~mis & active[:, None]
    use = _design_columns(inert, col)
    beta, inv_chol, sigma2 = _fit(aug, observed, use, col)
    beta = _perturb(beta, inv_chol, sigma2, use, np.flatnonzero(active), rngs)

    # One stacked product per member so identical predictor rows get
    # bitwise-identical predictions on either side of the split.
    pred = (beta[:, None, :] @ aug)[:, 0]
    member, row, fills = _match(pred, aug[:, 1 + col], observed, mis & active[:, None], rngs)
    aug[member, 1 + col, row] = fills
    return member, row, fills


def _sweep(aug, holes, inert, rngs):
    """One Gibbs pass over every member, columns in ascending index order."""
    for col in range(holes.shape[1]):
        _pmm_step(aug, holes, inert, rngs, col)


def _group_count(n_members: int) -> int:
    """Number of member groups: one per usable CPU, at most one per member.

    One (the ensemble runs in this process) where ``forking.can_fork`` says no.
    """
    if not forking.can_fork():
        return 1
    return max(1, min(n_members, len(os.sched_getaffinity(0))))


def _in_groups(out, n_groups, work):
    """Run ``work(lo, hi)`` over ``n_groups`` contiguous slices of ``out``.

    ``work`` writes its results into ``out[lo:hi]`` and changes nothing else
    the caller reads. The first slice runs here; each other slice runs in a
    forked child, which sends its rows back. The first failing group's
    exception is raised here, with its type and message. Every child is
    killed if need be and reaped before this returns or raises.
    """
    size, extra = divmod(len(out), n_groups)
    bounds = [g * size + min(g, extra) for g in range(n_groups + 1)]
    slices = list(zip(bounds[:-1], bounds[1:]))

    def run(lo, hi):
        work(lo, hi)
        return out[lo:hi]

    with forking.children() as spawn:
        groups = [spawn(run, lo, hi) for lo, hi in slices[1:]]
        work(*slices[0])
        for child, (lo, hi) in zip(groups, slices[1:]):
            out[lo:hi] = child.join()


def chain_ensemble(
    views: np.ndarray,
    m: int,
    t: int,
    master_seed: int,
    streams: list[tuple[int, ...]],
) -> np.ndarray:
    """Run ``m`` chains per view for ``t`` sweeps, every member in lockstep.

    ``views`` is a ``(V, n, k)`` stack, NaN at holes. Chain ``i`` of view
    ``v`` draws from a generator keyed by ``(*streams[v], master_seed, i)``.
    Returns the completed matrices as a ``(V, m, n, k)`` array.
    """
    n_views, n, k = views.shape
    aug = np.empty((n_views * m, k + 1, n))
    aug[:, 0] = 1.0
    aug[:, 1:].reshape(n_views, m, k, n)[:] = views.swapaxes(1, 2)[:, None]
    rngs = [
        np.random.default_rng(tuple(stream) + (int(master_seed), chain))
        for stream in streams
        for chain in range(m)
    ]
    holes, inert = _bootstrap(aug, rngs)

    def work(lo, hi):
        for _ in range(t):
            _sweep(aug[lo:hi], holes[lo:hi], inert[lo:hi], rngs[lo:hi])

    _in_groups(aug, _group_count(len(aug)), work)
    return aug[:, 1:].reshape(n_views, m, k, n).swapaxes(2, 3)


def fit_conditional(state: ChainState, target_column: int) -> ConditionalModel:
    """Ridge least squares of the target on all other non-inert columns.

    Fit over the target's observed rows using the current completed values of
    the predictors. Falls back to an intercept-only model when every other
    column is inert.
    """
    col = target_column
    aug, holes, inert, _ = state.batch()
    use = _design_columns(inert, col)
    beta, _, sigma2 = _fit(aug, ~holes[:, col], use, col)
    predictors = np.flatnonzero(use[0, 1:]).tolist()
    return ConditionalModel(col, predictors, beta[0, use[0]], float(np.sqrt(sigma2[0])))


def pmm_draw(state: ChainState, target_column: int) -> np.ndarray:
    """Refresh one column's fills via predictive mean matching.

    Fits the conditional model, perturbs its coefficients, predicts both
    observed and missing rows, and writes donor values into the holes.
    Returns the new fills in missing-row order; a column ``sweep`` would
    skip is left as it is.
    """
    return _pmm_step(*state.batch(), target_column)[2]


def sweep(state: ChainState) -> ChainState:
    """One Gibbs pass: update every eligible column in ascending index order.

    Columns are skipped when inert, complete, or too thin to regress
    (fewer than two observed entries keep their bootstrap fill frozen).
    """
    _sweep(*state.batch())
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
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    holes = np.isnan(matrix)
    rows, cols = np.nonzero(holes)
    cells = list(zip(rows.tolist(), cols.tolist()))
    if not cells:
        empty = np.zeros(0)
        return ChainEnsembleResult(cells, np.zeros((m, 0)), empty, empty.copy())

    per_chain = chain_ensemble(matrix[None], m, t, master_seed, [stream])[0][:, holes]
    pooled = per_chain.mean(axis=0)
    if m > 1:
        std = per_chain.std(axis=0, ddof=1)
    else:
        std = np.zeros(len(cells))
    return ChainEnsembleResult(cells, per_chain, pooled, std)
