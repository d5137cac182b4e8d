"""Per-(visit, feature) Gaussian-process regression over event times.

Each feature observed at two or more times inside a visit gets its own
single-task GP: a squared-exponential correlation over (rescaled) times, a
constant mean and a process variance both concentrated out of the likelihood,
and a single inverse-squared-length-scale parameter found by golden-section
search on the negative profile log-likelihood. Predictions at the feature's
missing times provide a mean fill and a standard deviation used later as a
confidence signal.

Times are divided by the problem's observed span before fitting so one search
box works for visits spanning minutes or days; the fitted parameter is
expressed in those rescaled units.

Every fit runs through one batched kernel. Problems with the same observed
count ``n`` form a bucket whose golden-section searches run in lockstep: each
step evaluates one ``log10(alpha)`` per member with one batched Cholesky
factorization, and each member stops on its own bracket width and escalates
its own nugget. The kernel only combines values of the same member, so a fit
gives the same bits alone or in any batch; ``fit_gp``,
``profile_neg_log_likelihood`` and ``gp_predict`` are batches of one.
``GPBuckets`` is the GP stage of ``impute()``'s plan: it builds the table of
problems once, fits one bucket per ``run`` call, which may be in a separate
process, and ``collect`` writes any mix of bucket results into the layout;
``bucket_cost`` estimates a bucket's one-CPU time. ``gp_impute_visit`` runs
every bucket of one visit's ``GPBuckets`` in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset, FeatureSpec

# The nugget starts at n * NUGGET_BASE and doubles up to NUGGET_MAX until the
# correlation matrix factors; log10(alpha) is searched within the bounds.
# Functions read them at call time, not as default arguments, so tests can
# patch them.
NUGGET_BASE = 1e-8
NUGGET_MAX = 1e-2
LOG10_ALPHA_BOUNDS = (-6.0, 4.0)
ALPHA_SEARCH_TOL = 1e-3

# Keeps the concentrated log-likelihood finite when residuals vanish
# (constant training values).
RESIDUAL_FLOOR = 1e-24

# One-CPU seconds of a bucket of fits (``bucket_cost``): BUCKET_S, plus
# BUCKET_OBS_S per observation of one fit, plus BUCKET_FIT_OBS2_S per fit and
# squared observation. Least-squares fit, in relative error, to the one-CPU
# times (BLAS at one thread, median of 5 runs) of the 24 buckets of the
# benchmark's cohort_m input (M) and the 42 of long_visits' (L); a bucket's
# estimate is within 30% of its time. Summed over the buckets:
#
#   input   buckets   fits   seconds (whole GP)  estimate
#   M            24   1597          0.37           0.38
#   L            42    240          0.71           0.69
BUCKET_S = 5.7e-3
BUCKET_OBS_S = 1.23e-4
BUCKET_FIT_OBS2_S = 8.2e-7

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


class IllConditionedCorrelationError(RuntimeError):
    """Correlation matrix could not be factorized even at the maximum nugget."""


def corr(alpha: float, t_a, t_b):
    """Squared-exponential correlation exp(-alpha * (t_a - t_b)^2)."""
    diff = np.asarray(t_a, dtype=float) - np.asarray(t_b, dtype=float)
    return np.exp(-alpha * diff * diff)


def _cholesky(mats):
    """Lower Cholesky factors of a ``(B, n, n)`` stack, and which members factored.

    ``np.linalg.cholesky`` raises if any member is not positive definite, so a
    failing stack is halved until each failure is isolated; members that fail
    come back as NaN.
    """
    try:
        return np.linalg.cholesky(mats), np.ones(len(mats), dtype=bool)
    except np.linalg.LinAlgError:
        if len(mats) == 1:
            return np.full_like(mats, np.nan), np.zeros(1, dtype=bool)
        half = len(mats) // 2
        (low, ok_low), (high, ok_high) = _cholesky(mats[:half]), _cholesky(mats[half:])
        return np.concatenate([low, high]), np.concatenate([ok_low, ok_high])


def _whiten(chol, rhs):
    """Solve ``chol[b] @ x[b, k] = rhs[b, k]`` by forward substitution.

    ``chol`` is a ``(B, n, n)`` stack of lower-triangular factors and ``rhs``
    holds ``K`` right-hand sides per member, ``(B, K, n)``. Eliminating column
    by column takes elementwise operations only, so no sum mixes members or
    right-hand sides.
    """
    x = rhs.copy()
    for j in range(chol.shape[-1]):
        x[:, :, j] /= chol[:, None, j, j]
        x[:, :, j + 1 :] -= x[:, :, j, None] * chol[:, None, j + 1 :, j]
    return x


@dataclass
class _Profile:
    """Profile-likelihood terms of a bucket at one alpha per member.

    Members whose correlation matrix did not factor even at ``NUGGET_MAX``
    carry NaN in every field.
    """

    nugget: np.ndarray  # (B,)
    chol: np.ndarray  # (B, n, n) lower factor of R + nugget * I
    ones: np.ndarray  # (B, n) whitened ones, chol^-1 1
    resid: np.ndarray  # (B, n) whitened residuals, chol^-1 (y - mu)
    mu: np.ndarray  # (B,)
    quad: np.ndarray  # (B,) residual quadratic form
    nll: np.ndarray  # (B,) negative profile log-likelihood


def _profile(alpha, t, y) -> _Profile:
    """Profile terms for ``(B,)`` alphas at ``(B, n)`` times and values.

    The nugget starts at ``n * NUGGET_BASE`` and doubles up to ``NUGGET_MAX``
    for the members that failed to factor, and only for them.
    """
    size, n = y.shape
    base = corr(alpha[:, None, None], t[:, :, None], t[:, None, :])
    chol = np.full_like(base, np.nan)
    nugget = np.full(size, np.nan)
    todo = np.arange(size)
    delta = NUGGET_BASE * n
    while True:
        factors, ok = _cholesky(base[todo] + delta * np.eye(n))
        chol[todo[ok]] = factors[ok]
        nugget[todo[ok]] = delta
        todo = todo[~ok]
        if todo.size == 0 or delta >= NUGGET_MAX:
            break
        delta = min(2.0 * delta, NUGGET_MAX)

    z, ones = _whiten(chol, np.stack([y, np.ones_like(y)], axis=1)).transpose(1, 0, 2)
    mu = (ones * z).sum(axis=1) / (ones * ones).sum(axis=1)
    resid = z - mu[:, None] * ones
    quad = (resid * resid).sum(axis=1)
    logdet = 2.0 * np.log(chol[:, range(n), range(n)]).sum(axis=1)
    nll = logdet + n * np.log(quad + RESIDUAL_FLOOR)
    return _Profile(nugget, chol, ones, resid, mu, quad, nll)


def _search(t, y):
    """Golden-section search over log10(alpha), all members in lockstep.

    Each member follows the scalar search: it narrows its own bracket until
    that is no wider than ``ALPHA_SEARCH_TOL`` and returns the best point it
    evaluated (lowest objective, ties to the lower point). Returns
    ``(u, failed_alpha)``: ``u`` is the best log10(alpha), NaN for members
    that stopped because a correlation matrix did not factor, and
    ``failed_alpha`` is that matrix's alpha, NaN for the rest.
    """
    size = len(y)
    best_f, best_u = np.full(size, np.inf), np.full(size, np.nan)
    failed_alpha = np.full(size, np.nan)

    def objective(u, rows):
        alpha = 10.0**u
        f = _profile(alpha, t[rows], y[rows]).nll
        failed = np.isnan(f)
        failed_alpha[rows[failed]] = alpha[failed]
        better = (f < best_f[rows]) | ((f == best_f[rows]) & (u < best_u[rows]))
        best_f[rows[better]], best_u[rows[better]] = f[better], u[better]
        return f

    def live():
        return np.nonzero(np.isnan(failed_alpha))[0]

    lo, hi = LOG10_ALPHA_BOUNDS
    a, b = np.full(size, lo), np.full(size, hi)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = np.full(size, np.nan), np.full(size, np.nan)
    for u in (a, b):
        rows = live()
        objective(u[rows], rows)
    rows = live()
    fc[rows] = objective(c[rows], rows)
    rows = live()
    fd[rows] = objective(d[rows], rows)

    while True:
        rows = live()
        rows = rows[np.abs(b[rows] - a[rows]) > ALPHA_SEARCH_TOL]
        if rows.size == 0:
            break
        left = fc[rows] < fd[rows]
        old_c, old_d = c[rows], d[rows]
        a[rows] = np.where(left, a[rows], old_c)
        b[rows] = np.where(left, old_d, b[rows])
        new_a, new_b = a[rows], b[rows]
        c[rows] = np.where(left, new_b - _INV_PHI * (new_b - new_a), old_d)
        d[rows] = np.where(left, old_c, new_a + _INV_PHI * (new_b - new_a))
        f = objective(np.where(left, c[rows], d[rows]), rows)
        fc[rows], fd[rows] = np.where(left, f, fd[rows]), np.where(left, fc[rows], f)

    return np.where(np.isnan(failed_alpha), best_u, np.nan), failed_alpha


@dataclass
class _Fits:
    """GPs fitted to a bucket of problems, in rescaled time."""

    times: np.ndarray  # (B, n) training times divided by scale
    scale: np.ndarray  # (B,) observed time span
    alpha: np.ndarray  # (B,)
    sigma2: np.ndarray  # (B,) process variance
    profile: _Profile  # terms at alpha


def _fit(times, values):
    """Fit one GP per row of ``(B, n)`` raw times and values.

    Returns ``(fits, ok, failed_alpha)``: ``fits`` covers the rows where
    ``ok``; the other rows hit an ill-conditioned correlation matrix at
    ``failed_alpha``.
    """
    ordered = np.sort(times, axis=1)
    if (np.diff(ordered, axis=1) == 0).any():
        raise ValueError("training times must be distinct")
    scale = ordered[:, -1] - ordered[:, 0]
    t = times / scale[:, None]
    u, failed_alpha = _search(t, values)
    ok = ~np.isnan(u)
    alpha = 10.0 ** u[ok]
    profile = _profile(alpha, t[ok], values[ok])
    fits = _Fits(t[ok], scale[ok], alpha, profile.quad / values.shape[1], profile)
    return fits, ok, failed_alpha


def _predict(fits: _Fits, query):
    """Predictive mean and std at ``(B, m)`` query times in rescaled units.

    The variance accounts for the estimated mean and is clipped at zero
    before the square root.
    """
    p = fits.profile
    r = corr(fits.alpha[:, None, None], query[:, :, None], fits.times[:, None, :])
    s = _whiten(p.chol, r)
    mean = p.mu[:, None] + (s * p.resid[:, None, :]).sum(axis=2)
    quad = (s * s).sum(axis=2)
    one_r = (s * p.ones[:, None, :]).sum(axis=2)
    denom = (p.ones * p.ones).sum(axis=1)
    var = fits.sigma2[:, None] * np.maximum(0.0, 1.0 - quad + (1.0 - one_r) ** 2 / denom[:, None])
    return mean, np.sqrt(var)


def profile_neg_log_likelihood(alpha: float, times, values) -> float:
    """Negative profile log-likelihood with mean and variance concentrated out.

    Returns log|R| + n*log(residual quadratic form), where R carries the
    nugget actually used and the quadratic form is floored to stay finite for
    constant data. Requires n >= 2 and distinct times.
    """
    y = np.asarray(values, dtype=float)
    if y.size < 2:
        raise ValueError("need at least two observations")
    t = np.asarray(times, dtype=float)
    nll = _profile(np.array([alpha], dtype=float), t[None], y[None]).nll[0]
    if np.isnan(nll):
        raise IllConditionedCorrelationError(f"ill-conditioned correlation at alpha={alpha:g}")
    return float(nll)


@dataclass
class GPModel:
    """Fitted per-(visit, feature) GP in rescaled-time units."""

    alpha: float
    mu_hat: float
    sigma2_hat: float
    train_times: np.ndarray
    nugget: float
    time_scale: float
    _fits: _Fits = field(repr=False, default=None)


def fit_gp(times, values) -> GPModel:
    """Fit the length-scale parameter by golden-section search.

    The search runs over log10(alpha) within ``LOG10_ALPHA_BOUNDS`` to a
    bracket width of ``ALPHA_SEARCH_TOL``; no randomness is involved.
    """
    y = np.asarray(values, dtype=float)
    if y.size < 2:
        raise ValueError("need at least two observations to fit")
    fits, ok, failed_alpha = _fit(np.asarray(times, dtype=float)[None], y[None])
    if not ok[0]:
        raise IllConditionedCorrelationError(
            f"ill-conditioned correlation at alpha={failed_alpha[0]:g}"
        )
    return GPModel(
        alpha=float(fits.alpha[0]),
        mu_hat=float(fits.profile.mu[0]),
        sigma2_hat=float(fits.sigma2[0]),
        train_times=fits.times[0],
        nugget=float(fits.profile.nugget[0]),
        time_scale=float(fits.scale[0]),
        _fits=fits,
    )


def gp_predict(model: GPModel, query_times) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and standard deviation at the given (raw) times."""
    q = np.asarray(query_times, dtype=float) / model.time_scale
    mean, std = _predict(model._fits, q[None])
    return mean[0], std[0]


def _problems(dataset: Dataset):
    """Every (visit, feature) problem's observed and hole cells.

    A problem's id is ``feature * n_visits + visit``. Returns the per-problem
    observed and hole counts, then the feature-major event lists of observed
    cells and of holes, each problem's cells one run in event order, with
    each run's start.
    """
    values, n_visits, visit = dataset.values, dataset.n_visits, dataset.visit_of_row
    obs_f, obs_e = np.nonzero(~np.isnan(values.T))
    hole_f, hole_e = np.nonzero(np.isnan(values.T))
    n_problems = values.shape[1] * n_visits
    n_obs = np.bincount(obs_f * n_visits + visit[obs_e], minlength=n_problems)
    n_holes = np.bincount(hole_f * n_visits + visit[hole_e], minlength=n_problems)
    return n_obs, n_holes, obs_e, np.cumsum(n_obs) - n_obs, hole_e, np.cumsum(n_holes) - n_holes


def bucket_cost(n: int, fits: int) -> float:
    """Estimated one-CPU seconds of a bucket of ``fits`` fits with ``n`` observations each."""
    return BUCKET_S + BUCKET_OBS_S * n + BUCKET_FIT_OBS2_S * fits * n * n


class GPBuckets:
    """Every GP fit of a dataset, bucketed by observed count: a stage of a plan.

    A fit is a (visit, feature) with a hole and at least two observations;
    ``buckets`` maps each observed count ``n`` to its number of fits. The one
    cut is one unit per bucket. Every bucket's cells are its own, so
    ``collect`` does not depend on how the buckets were grouped or ordered.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.times = np.asarray(dataset.times, dtype=float)
        self.problems = _problems(dataset)
        n_obs, n_holes = self.problems[:2]
        counts, fits = np.unique(n_obs[(n_holes > 0) & (n_obs >= 2)], return_counts=True)
        self.buckets = dict(zip(counts.tolist(), fits.tolist()))

    def cuts(self, workers: int) -> list[list[tuple[int, float]]]:
        return [[(n, bucket_cost(n, fits)) for n, fits in self.buckets.items()]]

    def run(self, n: int) -> tuple:
        """Bucket ``n``'s ``(rows, cols, mean, std, failed)``.

        These are the stacked cells of its holes, their predictive means and
        stds, and the ``(problem id, alpha)`` pairs whose correlation matrix
        did not factor at ``NUGGET_MAX``.
        """
        times, values, n_visits = self.times, self.dataset.values, self.dataset.n_visits
        n_obs, n_holes, obs_e, obs_at, hole_e, hole_at = self.problems
        ids = np.nonzero((n_holes > 0) & (n_obs == n))[0]
        rows = obs_e[obs_at[ids, None] + np.arange(n)]
        fits, ok, failed_alpha = _fit(times[rows], values[rows, ids[:, None] // n_visits])
        failed = list(zip(ids[~ok].tolist(), failed_alpha[~ok].tolist()))
        ids = ids[ok]
        m = n_holes[ids]
        # every member queries max(m) times: its own holes, then its last hole again
        holes = hole_e[hole_at[ids, None] + np.minimum(np.arange(m.max(initial=1)), m[:, None] - 1)]
        mean, std = _predict(fits, times[holes] / fits.scale[:, None])
        return holes, ids[:, None] // n_visits, mean, std, failed

    def collect(self, results) -> tuple[np.ndarray, np.ndarray]:
        """Fills and stds from ``(n, run(n))`` pairs, NaN where no bucket filled."""
        fills = np.full(self.dataset.values.shape, np.nan)
        stds = fills.copy()
        for _, (holes, cols, mean, std, _) in results:
            fills[holes, cols] = mean
            stds[holes, cols] = std
        return fills, stds


@dataclass
class GPVisitResult:
    """Per-visit GP fills and stds as ``(T, D)`` arrays, NaN where the GP gave no value."""

    fills: np.ndarray
    stds: np.ndarray
    skipped_features: list[int]
    diagnostics: list[str] = field(default_factory=list)


def gp_impute_visit(times, values: np.ndarray) -> GPVisitResult:
    """GP-impute every feature of one visit's (T, D) normalized value matrix.

    Features with fewer than two observations are reported in
    ``skipped_features``; per-feature numerical failures downgrade to a skip
    with a diagnostic instead of failing the visit.
    """
    # copies: the dataset takes its arrays over and flags them read-only
    values = np.array(values, dtype=float)
    specs = [FeatureSpec(k, f"f_{k}") for k in range(values.shape[1])]
    visit = Dataset.from_stacked(
        specs, ["0"], np.array(times, dtype=float), values, np.array([0, len(values)])
    )
    stage = GPBuckets(visit)
    results = [(n, stage.run(n)) for n in stage.buckets]
    # with one visit, a problem's id is its feature
    n_obs, n_holes = stage.problems[:2]
    few = np.flatnonzero((n_holes > 0) & (n_obs < 2)).tolist()
    failed = dict(pair for _, result in results for pair in result[-1])
    return GPVisitResult(
        *stage.collect(results),
        skipped_features=sorted(few + list(failed)),
        diagnostics=[
            f"visit 0, feature {f}: ill-conditioned correlation at alpha={failed[f]:g}"
            for f in sorted(failed)
        ],
    )
