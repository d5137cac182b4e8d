"""Dual cross-visit imputation: two tensorizations fused by a compromise rule.

The feature-perspective view is the dataset's own stacked (events x
features) layout, so chained equations exploit correlations between
features across the whole population. The temporal-perspective view builds
one (visits x time-steps) matrix per feature, with every visit padded or
truncated to the population's median event count, so chained equations
exploit correlations between time-steps across visits. Cells covered by both
views are blended with fixed weights. Two kinds of cell keep the
feature-perspective fill alone: cells of visits longer than the median, and
cells of a time-step column with no observations in the temporal view, whose
chains would only carry a placeholder.

Fills and stds come back as arrays over the stacked layout, NaN where a
stage gave no value, so the compromise is one elementwise expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chained_equations import run_chains
from .config import Config
from .data_model import CellIndex, Dataset, median_event_count

# Seed-stream tags keeping the two views' randomness disjoint.
_CFP_STREAM = 1
_CTP_STREAM = 2


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


def cfp_impute(dataset: Dataset, config: Config) -> tuple[np.ndarray, np.ndarray]:
    """Chained-equation fills for every hole, run on the stacked layout.

    Returns (fills, chain stds) as ``(E, D)`` arrays that are NaN at
    observed cells. Expects range-normalized data.
    """
    result = run_chains(
        dataset.values, config.chains, config.iterations, config.seed, stream=(_CFP_STREAM,)
    )
    holes = np.isnan(dataset.values)
    fills, stds = np.full(holes.shape, np.nan), np.full(holes.shape, np.nan)
    fills[holes] = result.pooled_fill
    stds[holes] = result.per_cell_std
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


def compromise(cfp, ctp, t_i, t_med: int, w1: float, w2: float):
    """Blend the two views' fills (or stds) elementwise.

    Cells of visits no longer than the median take the weighted combination;
    cells of longer visits (``t_i > t_med``), and cells the temporal view
    gave no value (NaN in ``ctp``), take the feature-perspective value alone.
    """
    return np.where((t_i > t_med) | np.isnan(ctp), cfp, w1 * cfp + w2 * ctp)


@dataclass
class DualcvOutput:
    """Combined fills and stds plus their per-visit dispersion.

    ``fills``/``stds`` are ``(E, D)`` arrays on the caller's (normalized)
    scale, NaN at observed cells. ``per_visit_sigma`` is NaN for visits that
    had nothing to impute.
    """

    per_visit_sigma: np.ndarray
    fills: np.ndarray
    stds: np.ndarray


def dualcv_impute(dataset: Dataset, config: Config) -> DualcvOutput:
    """Run both views and blend them cell by cell.

    Per-cell dispersion combines the two views' chain stds with the same
    weights used for the fills; a visit's sigma is the mean over its imputed
    cells.
    """
    t_med = median_event_count(dataset)
    cfp_fills, cfp_stds = cfp_impute(dataset, config)
    ctp_cell_fills, ctp_cell_stds = ctp_impute(dataset, t_med, config)

    at = dataset.rows(ctp_cell_fills)
    ctp_fills, ctp_stds = np.full_like(cfp_fills, np.nan), np.full_like(cfp_stds, np.nan)
    ctp_fills[at] = np.fromiter(ctp_cell_fills.values(), float, len(ctp_cell_fills))
    ctp_stds[at] = np.fromiter(ctp_cell_stds.values(), float, len(ctp_cell_stds))

    lengths = np.diff(dataset.starts)
    t_i = np.repeat(lengths, lengths)[:, None]
    fills = compromise(cfp_fills, ctp_fills, t_i, t_med, config.w1, config.w2)
    stds = compromise(cfp_stds, ctp_stds, t_i, t_med, config.w1, config.w2)
    return DualcvOutput(per_visit_mean_std(dataset, stds), fills, stds)


def per_visit_mean_std(dataset: Dataset, stds: np.ndarray) -> np.ndarray:
    """Mean std per visit over its imputed cells; NaN where it has none.

    ``stds`` is an ``(E, D)`` array, NaN at cells that were not imputed; each
    visit's cells are summed in row-major order.
    """
    at = np.nonzero(~np.isnan(stds))
    lengths = np.diff(dataset.starts)
    visit = np.repeat(np.arange(dataset.n_visits), lengths)[at[0]]
    # bincount adds the weights one by one in input order
    sums = np.bincount(visit, weights=stds[at], minlength=dataset.n_visits)
    counts = np.bincount(visit, minlength=dataset.n_visits)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
