"""Per-(visit, feature) Gaussian-process regression over event times.

Each feature observed at two or more times inside a visit gets its own
single-task GP: a squared-exponential correlation over (rescaled) times, a
constant mean and a process variance both concentrated out of the likelihood,
and a single inverse-squared-length-scale parameter found by golden-section
search on the negative profile log-likelihood. Predictions at the feature's
missing times provide a mean fill and a standard deviation used later as a
confidence signal.

Times are divided by the visit's observed span before fitting so one search
box works for visits spanning minutes or days; the fitted parameter is
expressed in those rescaled units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


class IllConditionedCorrelationError(RuntimeError):
    """Correlation matrix could not be factorized even at the maximum nugget."""


def corr(alpha: float, t_a, t_b):
    """Squared-exponential correlation exp(-alpha * (t_a - t_b)^2)."""
    diff = np.asarray(t_a, dtype=float) - np.asarray(t_b, dtype=float)
    return np.exp(-alpha * diff * diff)


def corr_matrix(alpha: float, times: np.ndarray) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    return corr(alpha, t[:, None], t[None, :])


def _factor_correlation(alpha, times):
    """Cholesky of R + delta*I, doubling delta from n * NUGGET_BASE up to NUGGET_MAX."""
    n = len(times)
    base = corr_matrix(alpha, times)
    delta = NUGGET_BASE * n
    while True:
        try:
            factor = cho_factor(base + delta * np.eye(n), lower=True)
            return factor, delta
        except np.linalg.LinAlgError:
            if delta >= NUGGET_MAX:
                raise IllConditionedCorrelationError(
                    f"ill-conditioned correlation at alpha={alpha:g}"
                ) from None
            delta = min(2.0 * delta, NUGGET_MAX)


def _profile_terms(alpha, times, values):
    y = np.asarray(values, dtype=float)
    n = y.size
    factor, delta = _factor_correlation(alpha, times)
    ones = np.ones(n)
    rinv_y = cho_solve(factor, y)
    rinv_1 = cho_solve(factor, ones)
    mu = float(ones @ rinv_y) / float(ones @ rinv_1)
    resid = y - mu
    quad = float(resid @ cho_solve(factor, resid))
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return factor, delta, mu, quad, logdet


def profile_neg_log_likelihood(alpha: float, times, values) -> float:
    """Negative profile log-likelihood with mean and variance concentrated out.

    Returns log|R| + n*log(residual quadratic form), where R carries the
    nugget actually used and the quadratic form is floored to stay finite for
    constant data. Requires n >= 2 and distinct times.
    """
    y = np.asarray(values, dtype=float)
    if y.size < 2:
        raise ValueError("need at least two observations")
    _, _, _, quad, logdet = _profile_terms(alpha, times, y)
    return logdet + y.size * np.log(max(quad, 0.0) + RESIDUAL_FLOOR)


def _golden_section(f, a, b, tol):
    """Minimize f on [a, b]; returns the best point actually evaluated."""
    evals = [(f(a), a), (f(b), b)]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    evals += [(fc, c), (fd, d)]
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
            evals.append((fc, c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
            evals.append((fd, d))
    return min(evals)[1]


@dataclass
class GPModel:
    """Fitted per-(visit, feature) GP in rescaled-time units."""

    alpha: float
    mu_hat: float
    sigma2_hat: float
    train_times: np.ndarray
    nugget: float
    time_scale: float
    _factor: tuple = field(repr=False, default=None)
    _rinv_resid: np.ndarray = field(repr=False, default=None)
    _rinv_1: np.ndarray = field(repr=False, default=None)


def fit_gp(times, values) -> GPModel:
    """Fit the length-scale parameter by golden-section search.

    The search runs over log10(alpha) within ``LOG10_ALPHA_BOUNDS`` to a
    bracket width of ``ALPHA_SEARCH_TOL``; no randomness is involved.
    """
    times = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if y.size < 2:
        raise ValueError("need at least two observations to fit")
    if np.unique(times).size != times.size:
        raise ValueError("training times must be distinct")

    scale = float(times.max() - times.min())
    if scale <= 0:
        scale = 1.0
    t = times / scale

    def objective(u):
        return profile_neg_log_likelihood(10.0**u, t, y)

    lo, hi = LOG10_ALPHA_BOUNDS
    alpha = 10.0 ** _golden_section(objective, lo, hi, ALPHA_SEARCH_TOL)

    factor, delta, mu, quad, _ = _profile_terms(alpha, t, y)
    sigma2 = max(quad, 0.0) / y.size
    resid = y - mu
    return GPModel(
        alpha=alpha,
        mu_hat=mu,
        sigma2_hat=sigma2,
        train_times=t,
        nugget=delta,
        time_scale=scale,
        _factor=factor,
        _rinv_resid=cho_solve(factor, resid),
        _rinv_1=cho_solve(factor, np.ones(y.size)),
    )


def gp_predict(model: GPModel, query_times) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and standard deviation at the given (raw) times.

    The variance accounts for the estimated mean and is clipped at zero
    before the square root.
    """
    q = np.asarray(query_times, dtype=float) / model.time_scale
    r = corr(model.alpha, model.train_times[:, None], q[None, :])
    mean = model.mu_hat + r.T @ model._rinv_resid

    rinv_r = cho_solve(model._factor, r)
    quad = np.sum(r * rinv_r, axis=0)
    one_rinv_r = r.T @ model._rinv_1
    denom = float(np.sum(model._rinv_1))
    var = model.sigma2_hat * np.maximum(
        0.0, 1.0 - quad + (1.0 - one_rinv_r) ** 2 / denom
    )
    return mean, np.sqrt(var)


@dataclass
class GPVisitResult:
    """Per-visit GP fills keyed by (event index, feature index)."""

    fills: dict[tuple[int, int], float]
    stds: dict[tuple[int, int], float]
    skipped_features: list[int]
    diagnostics: list[str] = field(default_factory=list)


def gp_impute_visit(times, values: np.ndarray) -> GPVisitResult:
    """GP-impute every feature of one visit's (T, D) normalized value matrix.

    Features with fewer than two observations are reported in
    ``skipped_features``; per-feature numerical failures downgrade to a skip
    with a diagnostic instead of failing the visit.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    fills: dict[tuple[int, int], float] = {}
    stds: dict[tuple[int, int], float] = {}
    skipped: list[int] = []
    diagnostics: list[str] = []

    for feat in range(values.shape[1]):
        col = values[:, feat]
        obs = ~np.isnan(col)
        mis = np.nonzero(~obs)[0]
        if mis.size == 0:
            continue
        if obs.sum() < 2:
            skipped.append(feat)
            continue
        try:
            model = fit_gp(times[obs], col[obs])
            means, sds = gp_predict(model, times[mis])
        except (IllConditionedCorrelationError, np.linalg.LinAlgError) as exc:
            skipped.append(feat)
            diagnostics.append(f"feature {feat}: {exc}")
            continue
        for e, mu, sd in zip(mis.tolist(), means, sds):
            fills[(e, feat)] = float(mu)
            stds[(e, feat)] = float(sd)
    return GPVisitResult(fills, stds, skipped, diagnostics)
