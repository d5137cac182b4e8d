"""Dual cross-visit imputation: two tensorizations fused by a compromise rule.

The feature-perspective view stacks every visit's events into one tall
(events x features) matrix, so chained equations exploit correlations between
features across the whole population. The temporal-perspective view builds
one (visits x time-steps) matrix per feature, with every visit padded or
truncated to the population's median event count, so chained equations
exploit correlations between time-steps across visits. Cells covered by both
views are blended with fixed weights. Two kinds of cell keep the
feature-perspective fill alone: cells of visits longer than the median, and
cells of a time-step column with no observations in the temporal view, whose
chains would only carry a placeholder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chained_equations import run_chains
from .config import Config, ConfigError
from .data_model import CellIndex, Dataset, median_event_count

# Seed-stream tags keeping the two views' randomness disjoint.
_CFP_STREAM = 1
_CTP_STREAM = 2


@dataclass
class CfpView:
    """All visits stacked event-wise: rows map back through ``row_origin``."""

    matrix: np.ndarray
    row_origin: list[tuple[int, int]]


@dataclass
class CtpView:
    """One feature's (visits x median-length) matrix.

    ``event_of[i, m]`` is the event index behind column m of visit i, or -1
    for padding placeholders. Placeholder cells are holes during the run but
    their fills are discarded on the way out.
    """

    feature: int
    matrix: np.ndarray
    event_of: np.ndarray
    n_padded: np.ndarray
    n_truncated: np.ndarray


def build_cfp_view(dataset: Dataset) -> CfpView:
    blocks, origin = [], []
    for i, visit in enumerate(dataset.visits):
        blocks.append(visit.values)
        origin.extend((i, e) for e in range(visit.n_events))
    return CfpView(np.vstack(blocks), origin)


def build_ctp_view(dataset: Dataset, feature: int, t_med: int, truncate: str) -> CtpView:
    n = dataset.n_visits
    matrix = np.full((n, t_med), np.nan)
    event_of = np.full((n, t_med), -1, dtype=np.int64)
    n_padded = np.zeros(n, dtype=np.int64)
    n_truncated = np.zeros(n, dtype=np.int64)

    for i, visit in enumerate(dataset.visits):
        t_i = visit.n_events
        if t_i >= t_med:
            offset = t_i - t_med if truncate == "keep_last" else 0
            kept = np.arange(offset, offset + t_med)
            n_truncated[i] = t_i - t_med
        else:
            kept = np.arange(t_i)
            n_padded[i] = t_med - t_i
        event_of[i, : kept.size] = kept
        matrix[i, : kept.size] = visit.values[kept, feature]
    return CtpView(feature, matrix, event_of, n_padded, n_truncated)


def cfp_impute(
    dataset: Dataset, config: Config
) -> tuple[dict[CellIndex, float], dict[CellIndex, float]]:
    """Chained-equation fills for every missing cell, via the stacked view.

    Returns (fills, per-cell chain stds) keyed by dataset cell. Expects
    range-normalized data.
    """
    view = build_cfp_view(dataset)
    result = run_chains(
        view.matrix, config.chains, config.iterations, config.seed, stream=(_CFP_STREAM,)
    )
    fills: dict[CellIndex, float] = {}
    stds: dict[CellIndex, float] = {}
    for (row, col), fill, std in zip(result.cells, result.pooled_fill, result.per_cell_std):
        visit, event = view.row_origin[row]
        cell = CellIndex(visit, event, col)
        fills[cell] = float(fill)
        stds[cell] = float(std)
    return fills, stds


def ctp_impute(
    dataset: Dataset, t_med: int, config: Config
) -> tuple[dict[CellIndex, float], dict[CellIndex, float]]:
    """Per-feature time-step-view fills for all real (non-placeholder) cells.

    Visits longer than ``t_med`` contribute only their kept window (the most
    recent events by default); fills for padding placeholders never leave
    this function. Nor do fills of a time-step column with no observations:
    the chains hold only a placeholder constant there.
    """
    if t_med < 1:
        raise ValueError("t_med must be >= 1")
    fills: dict[CellIndex, float] = {}
    stds: dict[CellIndex, float] = {}
    for feature in range(dataset.n_features):
        view = build_ctp_view(dataset, feature, t_med, config.ctp_truncate)
        unobserved = np.isnan(view.matrix).all(axis=0)
        result = run_chains(
            view.matrix,
            config.chains,
            config.iterations,
            config.seed,
            stream=(_CTP_STREAM, feature),
        )
        for (row, col), fill, std in zip(
            result.cells, result.pooled_fill, result.per_cell_std
        ):
            event = view.event_of[row, col]
            if event < 0 or unobserved[col]:
                continue
            cell = CellIndex(row, int(event), feature)
            fills[cell] = float(fill)
            stds[cell] = float(std)
    return fills, stds


def compromise(
    cfp_fill: float,
    ctp_fill: float | None,
    t_i: int,
    t_med: int,
    w1: float,
    w2: float,
) -> float:
    """Blend the two views' fills for one cell.

    Visits no longer than the median take the weighted combination; longer
    visits, and cells the temporal view gave no fill, take the
    feature-perspective fill alone.
    """
    if abs(w1 + w2 - 1.0) > 1e-12:
        raise ConfigError(f"view weights must sum to 1, got {w1} + {w2}")
    if t_i > t_med or ctp_fill is None:
        return cfp_fill
    return w1 * cfp_fill + w2 * ctp_fill


@dataclass
class DualcvOutput:
    """Combined fills and stds per cell plus their per-visit dispersion.

    ``per_visit_sigma`` is NaN for visits that had nothing to impute.
    ``cell_fills``/``cell_stds`` stay on the caller's (normalized) scale.
    """

    per_visit_sigma: np.ndarray
    cell_fills: dict[CellIndex, float]
    cell_stds: dict[CellIndex, float]


def dualcv_impute(dataset: Dataset, config: Config) -> DualcvOutput:
    """Run both views and fuse them cell by cell.

    Per-cell dispersion combines the two views' chain stds with the same
    weights used for the fills; a visit's sigma is the mean over its imputed
    cells.
    """
    t_med = median_event_count(dataset)
    cfp_fills, cfp_stds = cfp_impute(dataset, config)
    ctp_fills, ctp_stds = ctp_impute(dataset, t_med, config)

    cell_fills: dict[CellIndex, float] = {}
    cell_stds: dict[CellIndex, float] = {}
    for cell, cfp_fill in cfp_fills.items():
        t_i = dataset.visits[cell.visit].n_events
        ctp_fill = ctp_fills.get(cell)
        fused = compromise(cfp_fill, ctp_fill, t_i, t_med, config.w1, config.w2)
        cell_fills[cell] = fused
        if t_i <= t_med and cell in ctp_stds:
            cell_stds[cell] = config.w1 * cfp_stds[cell] + config.w2 * ctp_stds[cell]
        else:
            cell_stds[cell] = cfp_stds[cell]

    sigma = per_visit_mean_std(dataset.n_visits, cell_stds)
    return DualcvOutput(sigma, cell_fills, cell_stds)


def per_visit_mean_std(n_visits: int, cell_stds: dict[CellIndex, float]) -> np.ndarray:
    """Mean per-cell std per visit; NaN where a visit has no imputed cells."""
    sums = np.zeros(n_visits)
    counts = np.zeros(n_visits)
    for cell, std in cell_stds.items():
        sums[cell.visit] += std
        counts[cell.visit] += 1
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
