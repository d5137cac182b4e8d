"""Imputation method variants: the full pipeline, its ablations, baselines.

Each model variant is one cell of a grid: a cross-visit part (none, the
feature-perspective view alone, or the dual view) and the within-visit GP,
on or off (``MODEL_VARIANTS``). All of them run one path: the cross-visit
part, then the GP, fused visit by visit through a convex combination whose
weights favor whichever side showed the smaller dispersion for that visit.
A hole the cross-visit part left open takes the GP fill; a hole neither
filled takes its feature's mean. The feature-mean and expert-carry-forward
baselines stand apart.

Every variant writes fills into a copy of the caller's dataset, so observed
cells pass through bit-identically regardless of any internal rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_ECF_WINDOWS, Config, ConfigError
from .data_model import CellIndex, DataError, Dataset, Visit, write_cells
from .dualcv import cfp_impute, dualcv_impute, per_visit_mean_std
from .evaluation import denormalize_value, identity_map, normalize
from .gp_within_visit import gp_impute_visit

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
    imputed, or the variant does not produce it). ``cell_stds`` is on the
    original value scale; baselines report zero dispersion.
    """

    dataset: Dataset
    variant: str
    per_visit_sigma_m: np.ndarray
    per_visit_sigma_g: np.ndarray
    per_visit_theta1: np.ndarray
    per_visit_theta2: np.ndarray
    cell_stds: dict[CellIndex, float] = field(default_factory=dict)


def fusion_weights(sigma_m: float, sigma_g: float) -> tuple[float, float]:
    """Visit-level weights on (cross-visit, within-visit) fills.

    Each side is penalized in proportion to its own dispersion. When either
    dispersion is undefined or both vanish, the sides are trusted equally.
    """
    if np.isnan(sigma_m) or np.isnan(sigma_g) or sigma_m + sigma_g == 0.0:
        return 0.5, 0.5
    total = sigma_m + sigma_g
    return sigma_g / total, sigma_m / total


def fuse_visit(
    dualcv_vals: dict[CellIndex, float],
    gp_vals: dict[CellIndex, float],
    sigma_m: float,
    sigma_g: float,
) -> tuple[dict[CellIndex, float], float, float]:
    """Blend one visit's fills; cells without a GP value pass through."""
    theta1, theta2 = fusion_weights(sigma_m, sigma_g)
    fused = {}
    for cell, value in dualcv_vals.items():
        gp_value = gp_vals.get(cell)
        if gp_value is None:
            fused[cell] = value
        else:
            fused[cell] = theta1 * value + theta2 * gp_value
    return fused, theta1, theta2


def feature_means(dataset: Dataset) -> np.ndarray:
    stacked = np.vstack([v.values for v in dataset.visits])
    holes = np.isnan(stacked)
    counts = (~holes).sum(axis=0)
    for f in np.nonzero(counts == 0)[0]:
        raise DataError(f"feature {dataset.features[int(f)].name!r} has no observations")
    return np.where(holes, 0.0, stacked).sum(axis=0) / counts


def mean_fill(dataset: Dataset) -> Dataset:
    """Fill every hole with its feature's cross-visit observed mean."""
    means = feature_means(dataset)
    visits = []
    for visit in dataset.visits:
        values = visit.values.copy()
        holes = np.isnan(values)
        values[holes] = np.broadcast_to(means, values.shape)[holes]
        visits.append(Visit(visit.visit_id, visit.times, values))
    return Dataset(dataset.features, visits)


def ecf_fill(dataset: Dataset, windows: dict[str, int] | None = None) -> Dataset:
    """Expert carry-forward: recent same-visit value, else feature mean.

    A hole takes the most recent observed value of its feature earlier in the
    same visit, provided that value is no older than the window for the
    feature's kind; everything else falls back to the cross-visit mean.
    """
    windows = dict(DEFAULT_ECF_WINDOWS if windows is None else windows)
    for kind, minutes in windows.items():
        if minutes <= 0:
            raise ConfigError(f"ECF window for {kind!r} must be positive")
    means = feature_means(dataset)

    visits = []
    for visit in dataset.visits:
        values = visit.values.copy()
        times = visit.times
        for f, spec in enumerate(dataset.features):
            window = windows.get(spec.kind, windows.get("other", 480))
            col = visit.values[:, f]
            obs = np.nonzero(~np.isnan(col))[0]
            for e in np.nonzero(np.isnan(col))[0]:
                pos = np.searchsorted(times[obs], times[e], side="right") - 1
                carried = None
                if pos >= 0 and times[e] - times[obs[pos]] <= window:
                    carried = col[obs[pos]]
                values[e, f] = means[f] if carried is None else carried
        visits.append(Visit(visit.visit_id, visit.times, values))
    return Dataset(dataset.features, visits)


def missing_indicators(dataset: Dataset) -> list[np.ndarray]:
    """Per-visit (T, D) binary arrays: 1 exactly where a value is missing."""
    return [(~visit.observed()).astype(np.int8) for visit in dataset.visits]


def _gp_per_visit(dataset: Dataset, config: Config):
    """GP fills/stds per cell plus per-visit mean GP std (NaN if no fills)."""
    fills: dict[CellIndex, float] = {}
    stds: dict[CellIndex, float] = {}
    bounds = (config.gp_log10_alpha_lo, config.gp_log10_alpha_hi)
    for i, visit in enumerate(dataset.visits):
        result = gp_impute_visit(
            visit.times,
            visit.values,
            nugget_base=config.gp_nugget,
            nugget_max=config.gp_nugget_max,
            log10_alpha_bounds=bounds,
        )
        for (e, f), value in result.fills.items():
            cell = CellIndex(i, e, f)
            fills[cell] = value
            stds[cell] = result.stds[(e, f)]
    sigma_g = per_visit_mean_std(dataset.n_visits, stds)
    return fills, stds, sigma_g


def _cross_visit(dataset: Dataset, cross: str | None, config: Config):
    """Cross-visit fills/stds per cell plus per-visit sigma (NaN if no fills)."""
    if cross == "dualcv":
        out = dualcv_impute(dataset, config)
        return out.cell_fills, out.cell_stds, out.per_visit_sigma
    if cross == "cfp":
        fills, stds = cfp_impute(dataset, config)
        return fills, stds, per_visit_mean_std(dataset.n_visits, stds)
    return {}, {}, np.full(dataset.n_visits, np.nan)


def _fuse(fills, stds, gp_fills, gp_stds, sigma_m, sigma_g):
    """Blend GP fills into the cross-visit fills visit by visit, in place.

    A cell only the GP filled takes the GP value and std. Returns each
    visit's fusion weights, NaN where the cross-visit part filled nothing.
    """
    theta1, theta2 = np.full(sigma_m.size, np.nan), np.full(sigma_m.size, np.nan)
    by_visit: dict[int, dict[CellIndex, float]] = {}
    for cell, value in fills.items():
        by_visit.setdefault(cell.visit, {})[cell] = value
    for i, visit_fills in by_visit.items():
        visit_gp = {c: gp_fills[c] for c in visit_fills if c in gp_fills}
        fused, t1, t2 = fuse_visit(visit_fills, visit_gp, sigma_m[i], sigma_g[i])
        theta1[i], theta2[i] = t1, t2
        fills.update(fused)
        for cell in visit_gp:
            stds[cell] = t1 * stds[cell] + t2 * gp_stds[cell]
    for cell, value in gp_fills.items():
        if cell not in fills:
            fills[cell] = value
            stds[cell] = gp_stds[cell]
    return theta1, theta2


def _fill_with_means(dataset: Dataset, fills, stds) -> None:
    """Give every hole still without a fill its feature's mean, with std 0."""
    means = None
    for i, visit in enumerate(dataset.visits):
        rows, cols = np.nonzero(np.isnan(visit.values))
        for e, f in zip(rows.tolist(), cols.tolist()):
            cell = CellIndex(i, e, f)
            if cell not in fills:
                if means is None:
                    means = feature_means(dataset)
                fills[cell] = float(means[f])
                stds[cell] = 0.0


def impute(dataset: Dataset, variant: str, config: Config | None = None) -> ImputationOutput:
    """Impute every missing cell of ``dataset`` with the chosen variant.

    Chained-equation and GP variants run on range-normalized values and their
    fills are mapped back afterwards; observed cells are copied from the
    source and never rescaled.
    """
    config = config or Config()
    n = dataset.n_visits
    if variant not in VARIANTS:
        raise ConfigError(f"unknown method variant {variant!r}")

    if variant in ("mean_fill", "ecf"):
        if variant == "mean_fill":
            completed = mean_fill(dataset)
        else:
            completed = ecf_fill(dataset, config.ecf_windows)
        return ImputationOutput(completed, variant, *(np.full(n, np.nan) for _ in range(4)))

    cross, gp = MODEL_VARIANTS[variant]
    if config.normalize:
        normalized, nmap = normalize(dataset)
    else:
        normalized, nmap = dataset, identity_map(dataset.n_features)

    fills, stds, sigma_m = _cross_visit(normalized, cross, config)
    if gp:
        gp_fills, gp_stds, sigma_g = _gp_per_visit(normalized, config)
        theta1, theta2 = _fuse(fills, stds, gp_fills, gp_stds, sigma_m, sigma_g)
    else:
        sigma_g, theta1, theta2 = (np.full(n, np.nan) for _ in range(3))
    _fill_with_means(normalized, fills, stds)

    raw_fills = [denormalize_value(value, cell.feature, nmap) for cell, value in fills.items()]
    raw_stds = {cell: value * float(nmap.scales[cell.feature]) for cell, value in stds.items()}
    return ImputationOutput(
        dataset=write_cells(dataset, fills.keys(), raw_fills),
        variant=variant,
        per_visit_sigma_m=sigma_m,
        per_visit_sigma_g=sigma_g,
        per_visit_theta1=theta1,
        per_visit_theta2=theta2,
        cell_stds=raw_stds,
    )
