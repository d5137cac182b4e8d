"""Chained-equations imputation with predictive-mean-matching conditionals.

Works on a plain 2-D float matrix whose holes are NaN. Each incomplete column
is regressed on all other usable columns, the fit is perturbed with a draw
from the approximate coefficient posterior, and every hole receives the
observed value of a donor row whose prediction is closest to its own. Running
several independently seeded chains and pooling per-cell means/stds gives
both a point imputation and a dispersion estimate per hole.

Donor matching: rows whose computed prediction ties the missing row's
exactly are preferred and the draw is made among them (two identical
predictor rows may be predicted 1 ulp apart, and then they do not tie);
otherwise the draw is uniform over the ``PMM_DONORS`` nearest predictions,
ranked by distance and then by position in the window of ``PMM_DONORS``
sorted donors on either side of the hole. When more than
``PMM_DONORS`` donors lie equally far below a hole, the draw is among the
ones nearest to it in sorted order: with donor predictions ``[0] * 7 + [5]``
and a hole at 1, the 3rd to 7th zeros. Either way the imputed value is
always a member of the column's observed-value set.

Every chain runs through one batched kernel. A member is one chain of one
view (matrix) with its own generator; all members step through each column
in lockstep, with one ridge fit, one coefficient perturbation and one donor
match per column step for the whole batch. Members may have different hole
patterns but share the matrix shape. The kernel only combines values of the
same member, so a chain gives the same bits alone or in any batch. Both
cross-visit views are one ``Ensemble`` each, and ``run_chains`` and
``pmm_draw`` are batches of one view; ``pool_chains`` turns every caller's
chains into per-cell means and stds. ``chain_ensemble`` runs any contiguous
block of an ensemble's members in this process, with the same bits as in the
whole ensemble. An ``Ensemble`` is a stage of ``methods.plan``: it offers its
members in contiguous blocks costed by ``block_cost``, a block's one-CPU
time estimated from its shape, and the plan decides which blocks run in
which process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RIDGE = 1e-5
PMM_DONORS = 5

# One-CPU seconds of a block of chain members (``block_cost``): t * k column
# steps, each costing BLOCK_STEP_S once per block plus, per member,
# MEMBER_ROW_S per row and MEMBER_COLUMN2_S per squared design column
# (p = k + 1). Least-squares fit, in relative error, to these timings of
# ``Config()`` ensembles (t = 10) pinned to one CPU, BLAS at one thread, on
# the inputs of the benchmark's cohort_m (M), long_visits (L) and
# cli_wide_mice (W), median of 3-5 runs:
#
#   block                      n   k  members    seconds  estimate
#   M CTP, whole             200  25       40       0.82      0.89
#   M CTP, features 0-3      200  25       20       0.51      0.54
#   M CTP, features 4-7      200  25       20       0.54      0.54
#   M CTP, 1 feature         200  25        5       0.29      0.28
#   M CFP                   5071   8        5       0.39      0.44
#   L CTP, whole              60  70       20  3.76-4.06      4.01
#   L CTP, members 0-9        60  70       10       2.41      2.28
#   L CTP, members 10-19      60  70       10       2.43      2.28
#   L CTP, 1 feature          60  70        5  1.42-1.49      1.42
#   L CFP                   4291   4        5       0.21      0.19
#   W CFP                  11921  16        5       2.32      1.92
BLOCK_STEP_S = 7.9e-4
MEMBER_ROW_S = 1.87e-7
MEMBER_COLUMN2_S = 4.68e-8

# Fill used for columns with no observations at all; data is expected to be
# range-normalized to [0, 1] before chained equations run.
INERT_FILL = 0.5


class DegenerateModelError(RuntimeError):
    """Conditional model could not be fit (singular design despite ridge)."""


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

    def batch(self):
        """The chain as a batch of one: ``(aug, holes, inert, rngs)``."""
        return self.aug[None], self.holes[None], self.inert[None], [self.rng]


@dataclass
class ChainEnsembleResult:
    """Pooled output of ``m`` chains over the originally missing cells.

    ``cells`` is a ``(K, 2)`` int64 array of (row, column) pairs in
    row-major order; the fill arrays align with it. ``per_cell_std`` is the
    sample standard deviation across chains (ddof=1), zero when only one
    chain ran.
    """

    cells: np.ndarray
    per_chain_fills: np.ndarray
    pooled_fill: np.ndarray
    per_cell_std: np.ndarray

    def completed(self, matrix: np.ndarray) -> np.ndarray:
        """Copy of ``matrix`` with pooled fills written into its holes."""
        out = np.array(matrix, dtype=float)
        out[tuple(self.cells.T)] = self.pooled_fill
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
                # the draws Generator.choice(pool, size, replace=True) makes
                pool = col[~hole]
                col[hole] = pool[rng.integers(0, pool.size, size=np.count_nonzero(hole))]
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

    ``aug`` is ``(B, 1 + k, n)``, ``observed`` ``(B, n)`` each member's
    observed rows and ``use`` its design columns. Adjacent members with the
    same observed rows (the chains of one view) form a run, and each run's
    observed columns of ``aug`` are taken once. The Gram matrix and the
    residual variance are then sums over a member's observed rows alone, so
    every product's shape, and so its bits, depend on that member only.
    Design columns a member leaves out get an identity row in its Gram
    matrix and a zero right-hand side, so their coefficients are 0 and every
    member's system has the same size. Returns the coefficients
    ``(B, 1 + k)``, the inverses ``L^-1`` of the Grams' lower Cholesky
    factors and the residual variances ``(B,)``.
    """
    n_members, p, _ = aug.shape
    cuts = np.flatnonzero((observed[1:] != observed[:-1]).any(axis=1)) + 1
    runs = list(zip([0, *cuts], [*cuts, n_members]))
    rows = [np.compress(observed[lo], aug[lo:hi], axis=2) for lo, hi in runs]
    # column 1 + col of A'A is A'y, the right-hand side
    gram = np.concatenate([x @ x.swapaxes(1, 2) for x in rows])
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

    resid = [x[:, 1 + col] - (beta[lo:hi, None, :] @ x)[:, 0] for x, (lo, hi) in zip(rows, runs)]
    dof = np.maximum(1, observed.sum(axis=1) - use.sum(axis=1))
    sigma2 = np.concatenate([(r * r).sum(axis=1) for r in resid]) / dof
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

    ``pred``, ``y``, ``observed`` and ``holes`` are ``(B, n)``. A hole draws
    uniformly among the first ``PMM_DONORS`` donors, in row order, whose
    prediction ties its own exactly, else among its ``PMM_DONORS`` nearest
    donors. Those are ranked by distance, then by position in the window of
    ``PMM_DONORS`` sorted donors on either side of the hole's insertion
    point: on equal distance a donor below comes before one above, and of
    donors equally far below, the lowest in the window comes first. Each
    member with holes draws ``random(n_mis)``, in member order. Returns the
    flat ``(member, row)`` hole indices, member-major, and their donor
    values.
    """
    k, n = PMM_DONORS, pred.shape[1]
    member, row = divmod(np.flatnonzero(holes), n)
    todo = np.flatnonzero(holes.any(axis=1))
    counts = holes[todo].sum(axis=1)
    u = np.concatenate([rngs[b].random(c) for b, c in zip(todo.tolist(), counts.tolist())])

    # One sort of all of a member's rows, holes and donors together.
    # ``order`` indexes the members' rows, flattened. ``start`` marks where
    # a run of equal predictions starts, a new member included; only the
    # positions in runs of two or more (``in_run``) are then sorted by (run,
    # row), which puts exact ties back in row order, as a stable sort of the
    # donors has them.
    order = np.argsort(pred[todo], axis=1)
    ranked = np.take_along_axis(pred[todo], order, axis=1).ravel()
    order = (order + n * np.arange(todo.size)[:, None]).ravel()
    start = np.ones(ranked.size + 1, dtype=bool)
    start[1:-1] = ranked[1:] != ranked[:-1]
    start[n::n] = True
    in_run = np.flatnonzero(~(start[:-1] & start[1:]))
    by_row = in_run[np.argsort(np.cumsum(start[in_run]) * ranked.size + order[in_run])]
    order[in_run], ranked[in_run] = order[by_row], ranked[by_row]
    is_donor = observed[todo].ravel()[order]

    # All members' donors in one flat array with k slots of +inf before,
    # between and after them: a walk k slots out stays within its member.
    ranks = np.flatnonzero(is_donor)
    slot = np.arange(ranks.size) + k * (ranks // n + 1)
    donor_pred = np.full(ranks.size + k * (todo.size + 1), np.inf)
    donor_pred[slot] = ranked[ranks]
    donor_y = np.zeros_like(donor_pred)
    donor_y[slot] = y[todo].ravel()[order[ranks]]

    # a hole's insertion point: the donors before its run of equal predictions
    below = np.cumsum(is_donor) - is_donor
    below[in_run] = np.maximum.accumulate(np.where(start[in_run], below[in_run], 0))
    below_by_row = np.empty_like(below)
    below_by_row[order] = below
    which = np.repeat(np.arange(todo.size), counts)
    lo = below_by_row[which * n + row] + k * (which + 1)
    q = pred[member, row]
    n_near = np.minimum(k, observed[todo].sum(axis=1)[which])
    pick = np.minimum((u * n_near).astype(np.int64), n_near - 1)

    # The pick-th nearest donor: pick steps outward from the insertion point,
    # each to the nearer side (below on equal distance), then the nearer of
    # the next two. Padding slots are infinitely far.
    left, right = lo - 1, lo.copy()
    for step in range(k - 1):
        go_left = np.abs(donor_pred[left] - q) <= np.abs(donor_pred[right] - q)
        left -= (step < pick) & go_left
        right += (step < pick) & ~go_left
    dist = np.abs(donor_pred[left] - q)
    go_left = dist <= np.abs(donor_pred[right] - q)
    pos = np.where(go_left, left, right)

    # The walk meets a run of equally far donors below the hole top down and
    # the window ranks it bottom up: mirror the pick within the run, clipped
    # to the window's k slots below the insertion point, lo - k to lo - 1.
    # A neighbour outside those bounds is read but never counted.
    odd = np.flatnonzero(go_left & (
        (left < lo - 1) & (np.abs(donor_pred[left + 1] - q) == dist)
        | (left > lo - k) & (np.abs(donor_pred[left - 1] - q) == dist)))
    q_odd, dist_odd, lo_odd = q[odd], dist[odd], lo[odd]
    top, bottom = left[odd], left[odd]
    for _ in range(k - 1):
        top += (top < lo_odd - 1) & (np.abs(donor_pred[top + 1] - q_odd) == dist_odd)
    for _ in range(k - 1):
        bottom -= (bottom > lo_odd - k) & (np.abs(donor_pred[bottom - 1] - q_odd) == dist_odd)
    pos[odd] = top + bottom - left[odd]

    # exact ties start at the insertion point: a uniform draw among the
    # first k of them
    tied = np.flatnonzero(donor_pred[lo] == q)
    pool = sum(donor_pred[lo[tied] + i] == q[tied] for i in range(k))
    pos[tied] = lo[tied] + np.minimum((u[tied] * pool).astype(np.int64), pool - 1)
    return member, row, donor_y[pos]


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

    # One stacked product per member. Ties are exact ties of these computed
    # predictions: the BLAS product can predict two identical predictor rows
    # 1 ulp apart, and then they do not tie (ROADMAP item 6's satellite).
    pred = (beta[:, None, :] @ aug)[:, 0]
    # the fit never reads a hole's predictors: a non-finite one shows here
    if not np.isfinite(pred[active]).all():
        raise DegenerateModelError(f"degenerate conditional model for column {col}")
    member, row, fills = _match(pred, aug[:, 1 + col], observed, mis & active[:, None], rngs)
    aug[member, 1 + col, row] = fills
    return member, row, fills


def _sweep(aug, holes, inert, rngs):
    """One Gibbs pass over every member, columns in ascending index order."""
    for col in range(holes.shape[1]):
        _pmm_step(aug, holes, inert, rngs, col)


def chain_ensemble(
    views: np.ndarray,
    m: int,
    t: int,
    master_seed: int,
    streams: list[tuple[int, ...]],
    members: range | None = None,
) -> np.ndarray:
    """Run ``m`` chains per view for ``t`` sweeps, every member in lockstep.

    ``views`` is a ``(V, n, k)`` stack, NaN at holes. Member ``v * m + i`` is
    chain ``i`` of view ``v`` and draws from a generator keyed by
    ``(*streams[v], master_seed, i)``. ``members`` picks a contiguous block
    of the ``V * m`` members, all of them by default; the block is
    bootstrapped and run in this process. Returns its completed matrices as a
    ``(len(members), n, k)`` array, the same bits in any block.
    """
    n_views, n, k = views.shape
    members = range(n_views * m) if members is None else members
    aug = np.empty((len(members), k + 1, n))
    aug[:, 0] = 1.0
    np.take(views.swapaxes(1, 2), [b // m for b in members], axis=0, out=aug[:, 1:], mode="clip")
    rngs = [
        np.random.default_rng(tuple(streams[b // m]) + (int(master_seed), b % m)) for b in members
    ]
    holes, inert = _bootstrap(aug, rngs)
    for _ in range(t):
        _sweep(aug, holes, inert, rngs)
    return aug[:, 1:].swapaxes(1, 2)


def block_cost(n: int, k: int, members: int, t: int) -> float:
    """Estimated one-CPU seconds of a block of ``members`` chains of ``(n, k)`` matrices."""
    return t * k * (BLOCK_STEP_S + members * (MEMBER_ROW_S * n + MEMBER_COLUMN2_S * (k + 1) ** 2))


def _blocks(members: int, count: int) -> list[range]:
    """``count`` contiguous blocks of ``members``, the first ``members % count`` one longer."""
    size, extra = divmod(members, count)
    bounds = [b * size + min(b, extra) for b in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class Ensemble:
    """One chain ensemble, ``m`` chains per view of a ``(V, n, k)`` stack: a stage of a plan.

    ``keep`` is a ``(V, n, k)`` mask of the cells whose chain values the
    caller pools, so only those leave a block, and ``at`` holds each kept
    cell's flat index in the caller's ``layout``, view by view in row-major
    order. The units of a cut are contiguous member blocks.
    """

    views: np.ndarray
    m: int
    t: int
    master_seed: int
    streams: list[tuple[int, ...]]
    keep: np.ndarray
    at: np.ndarray
    layout: tuple[int, int]

    def cuts(self, workers: int) -> list[list[tuple[range, float]]]:
        """Each way to cut the members into blocks, as ``(members, cost)`` units."""
        n_views, n, k = self.views.shape
        members = n_views * self.m
        return [
            [(b, block_cost(n, k, len(b), self.t)) for b in _blocks(members, count)]
            for count in range(1, min(workers, members) + 1)
        ]

    def run(self, members: range) -> np.ndarray:
        """The kept cells of a block of members' completed chains, member by member."""
        done = chain_ensemble(self.views, self.m, self.t, self.master_seed, self.streams, members)
        return np.concatenate([chain[self.keep[b // self.m]] for chain, b in zip(done, members)])

    def per_chain(self, blocks: list) -> np.ndarray:
        """``(m, cells)`` chain values at the kept cells, view by view in row-major order.

        ``blocks`` is a list of ``(members, run(members))`` pairs covering
        every member, in any order. It is emptied as each block is set in
        place, so no block's values outlive their copy.
        """
        counts = self.keep.reshape(len(self.keep), -1).sum(axis=1)
        starts = np.cumsum(counts) - counts
        out = np.empty((self.m, counts.sum()))
        while blocks:
            members, values = blocks.pop()
            offset = 0
            for b in members:
                view, chain = divmod(b, self.m)
                n = counts[view]
                out[chain, starts[view] : starts[view] + n] = values[offset : offset + n]
                offset += n
        return out

    def collect(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        """Pooled fills and stds as ``layout`` arrays, NaN off the kept cells.

        Pools before it allocates the layout arrays, which keeps them out of
        the pooling's peak memory.
        """
        mean, std = pool_chains(self.per_chain(blocks))
        fills, stds = np.full(self.layout, np.nan), np.full(self.layout, np.nan)
        fills.reshape(-1)[self.at], stds.reshape(-1)[self.at] = mean, std
        return fills, stds


def pmm_draw(state: ChainState, target_column: int) -> np.ndarray:
    """Refresh one column's fills via predictive mean matching.

    Fits the conditional model, perturbs its coefficients, predicts both
    observed and missing rows, and writes donor values into the holes.
    Returns the new fills in missing-row order; a column a sweep would skip
    is left as it is.
    """
    return _pmm_step(*state.batch(), target_column)[2]


def pool_chains(per_chain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell mean and std over the chains of an ``(m, cells)`` block.

    The std is the sample standard deviation (ddof=1), zero for one chain.
    """
    mean = per_chain.mean(axis=0)
    if len(per_chain) == 1:
        return mean, np.zeros_like(mean)
    return mean, per_chain.std(axis=0, ddof=1)


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
    per_chain = chain_ensemble(matrix[None], m, t, master_seed, [stream])[:, holes]
    return ChainEnsembleResult(np.argwhere(holes), per_chain, *pool_chains(per_chain))
