"""Imputation method variants: the full pipeline, its ablations, baselines.

Each model variant is one cell of a grid: a cross-visit part (none, the
feature-perspective view alone, or the dual view) and the within-visit GP,
on or off (``MODEL_VARIANTS``). All of them run one path: the cross-visit
part, then the GP (in a forked child meanwhile, where ``forking.can_fork``
allows), fused visit by visit through a convex combination whose
weights favor whichever side showed the smaller dispersion for that visit.
A hole the cross-visit part left open takes the GP fill; a hole neither
filled takes its feature's mean. The feature-mean and expert-carry-forward
baselines stand apart.

Fills and stds travel as ``(E, D)`` arrays over the dataset's stacked
layout, NaN where a stage gave no value, so fusion and the fallbacks are
elementwise expressions. Every variant writes fills into a copy of the
caller's dataset, so observed cells pass through bit-identically regardless
of any internal rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forking
from .config import DEFAULT_ECF_WINDOWS, Config, ConfigError, check_ecf_windows
from .data_model import DataError, Dataset
from .dualcv import cfp_impute, dualcv_impute, per_visit_mean_std
from .evaluation import normalize
# gp_impute_visit stays importable here because perfbench/tracing.py wraps methods.gp_impute_visit
from .gp_within_visit import gp_impute_stacked, gp_impute_visit  # noqa: F401

# Model variant -> (cross-visit part, within-visit GP on). Parts are tags, not
# functions, so calls resolve through this module's attributes at run time.
MODEL_VARIANTS = {
    "ta_dualcv": ("dualcv", True),
    "ta_dualcv_noC": (None, True),
    "ta_dualcv_noI": ("dualcv", False),
    "three_d_mice": ("cfp", True),
    "mice_only": ("cfp", False),
}

VARIANTS = (*MODEL_VARIANTS, "mean_fill", "ecf")


@dataclass
class ImputationOutput:
    """A completed dataset plus the dispersion bookkeeping behind it.

    Per-visit arrays are NaN where the quantity is undefined (nothing
    imputed, or the variant does not produce it). ``stds`` is the ``(E, D)``
    per-cell dispersion on the original value scale over the dataset's
    stacked layout: zero at observed cells, and everywhere for the baselines.
    """

    dataset: Dataset
    variant: str
    per_visit_sigma_m: np.ndarray
    per_visit_sigma_g: np.ndarray
    per_visit_theta1: np.ndarray
    per_visit_theta2: np.ndarray
    stds: np.ndarray


def fusion_weights(sigma_m, sigma_g):
    """Weights on the (cross-visit, within-visit) fills, elementwise over visits.

    Each side is penalized in proportion to its own dispersion. Where either
    dispersion is undefined (NaN) or both vanish, the sides are trusted
    equally.
    """
    total = np.add(sigma_m, sigma_g)
    even = np.isnan(total) | (total == 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(even, 0.5, sigma_g / total), np.where(even, 0.5, sigma_m / total)


def fuse(cross, gp, theta1, theta2):
    """Blend cross-visit and GP values elementwise.

    Where both sides have a value it is ``theta1 * cross + theta2 * gp``;
    where one side is NaN the other side's value passes through.
    """
    blend = np.where(np.isnan(cross), gp, theta1 * cross + theta2 * gp)
    return np.where(np.isnan(gp), cross, blend)


def _require_observed(dataset: Dataset) -> np.ndarray:
    """Observed cells per feature; a feature with none is a ``DataError``."""
    counts = (~np.isnan(dataset.values)).sum(axis=0)
    for f in np.nonzero(counts == 0)[0]:
        raise DataError(f"feature {dataset.features[int(f)].name!r} has no observations")
    return counts


def feature_means(dataset: Dataset) -> np.ndarray:
    counts = _require_observed(dataset)
    return np.where(np.isnan(dataset.values), 0.0, dataset.values).sum(axis=0) / counts


def mean_fill(dataset: Dataset) -> Dataset:
    """Fill every hole with its feature's cross-visit observed mean."""
    means = feature_means(dataset)
    return dataset.with_values(np.where(np.isnan(dataset.values), means, dataset.values))


def ecf_fill(dataset: Dataset, windows: dict[str, int] | None = None) -> Dataset:
    """Expert carry-forward: recent same-visit value, else feature mean.

    A hole takes the most recent observed value of its feature earlier in the
    same visit, provided that value is no older than the window for the
    feature's kind; everything else falls back to the cross-visit mean.
    """
    windows = dict(DEFAULT_ECF_WINDOWS if windows is None else windows)
    check_ecf_windows(windows)
    means = feature_means(dataset)
    limit = np.array([windows.get(s.kind, windows.get("other", 480)) for s in dataset.features])

    values, times = dataset.values, dataset.times
    holes = np.isnan(values)
    # last observed row at or before each row, per feature, across the stack;
    # one before the row's visit start carries nothing
    last = np.maximum.accumulate(np.where(holes, -1, np.arange(len(values))[:, None]), axis=0)
    visit_start = dataset.starts[dataset.visit_of_row][:, None]
    source = np.maximum(last, 0)
    carry = (last >= visit_start) & (times[:, None] - times[source] <= limit)
    fills = np.where(carry, np.take_along_axis(values, source, axis=0), means)
    return dataset.with_values(np.where(holes, fills, values))


def _cross_visit(dataset: Dataset, cross: str | None, config: Config):
    """Cross-visit fills/stds as ``(E, D)`` arrays plus per-visit sigma (NaN if no fills)."""
    if cross == "dualcv":
        fills, stds = dualcv_impute(dataset, config)
    elif cross == "cfp":
        fills, stds = cfp_impute(dataset, config)
    else:
        fills = stds = np.full(dataset.values.shape, np.nan)
    return fills, stds, per_visit_mean_std(dataset, stds)


def impute(dataset: Dataset, variant: str, config: Config | None = None) -> ImputationOutput:
    """Impute every missing cell of ``dataset`` with the chosen variant.

    Chained-equation and GP variants run on range-normalized values and their
    fills are mapped back afterwards; observed cells are copied from the
    source and never rescaled. Every feature needs at least one observed
    value, else ``DataError``.
    """
    config = config or Config()
    n = dataset.n_visits
    if variant not in VARIANTS:
        raise ConfigError(f"unknown method variant {variant!r}")
    _require_observed(dataset)

    if variant in ("mean_fill", "ecf"):
        if variant == "mean_fill":
            completed = mean_fill(dataset)
        else:
            completed = ecf_fill(dataset, config.ecf_windows)
        undefined = (np.full(n, np.nan) for _ in range(4))
        return ImputationOutput(completed, variant, *undefined, np.zeros(dataset.values.shape))

    cross, gp = MODEL_VARIANTS[variant]
    normalized, nmap = normalize(dataset)
    with forking.children() as spawn:
        # the GP reads nothing the cross-visit part writes, so where forking is
        # allowed it runs in a child while the cross-visit part runs here
        forked = gp and cross is not None and forking.can_fork()
        child = spawn(gp_impute_stacked, normalized) if forked else None
        fills, stds, sigma_m = _cross_visit(normalized, cross, config)
        if gp:
            gp_out = child.join() if forked else gp_impute_stacked(normalized)
    if gp:
        sigma_g = per_visit_mean_std(normalized, gp_out.stds)
        # theta stays NaN for visits the cross-visit part filled nothing
        theta1, theta2 = (
            np.where(np.isnan(sigma_m), np.nan, w) for w in fusion_weights(sigma_m, sigma_g)
        )
        t1, t2 = (w[normalized.visit_of_row][:, None] for w in (theta1, theta2))
        fills = fuse(fills, gp_out.fills, t1, t2)
        stds = fuse(stds, gp_out.stds, t1, t2)
    else:
        sigma_g, theta1, theta2 = (np.full(n, np.nan) for _ in range(3))

    holes = np.isnan(normalized.values)
    unfilled = holes & np.isnan(fills)
    if unfilled.any():
        # a hole neither part filled takes its feature's mean, with std 0
        fills = np.where(unfilled, feature_means(normalized), fills)
        stds = np.where(unfilled, 0.0, stds)

    return ImputationOutput(
        dataset=dataset.with_values(
            np.where(holes, fills * nmap.scales + nmap.offsets, dataset.values)
        ),
        variant=variant,
        per_visit_sigma_m=sigma_m,
        per_visit_sigma_g=sigma_g,
        per_visit_theta1=theta1,
        per_visit_theta2=theta2,
        stds=np.where(holes, stds * nmap.scales, 0.0),
    )
