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

Both views reach the chain kernel the same way: each passes its stack of
matrices to ``chain_ensemble`` and pools the chains with ``pool_chains``. Fills
and stds come back as arrays over the stacked layout, NaN where a stage gave
no value, so the compromise is one elementwise expression.
"""

from __future__ import annotations

import numpy as np

from .chained_equations import chain_ensemble, pool_chains
# run_chains stays importable here because perfbench/tracing.py wraps dualcv.run_chains
from .chained_equations import run_chains  # noqa: F401
from .config import Config
from .data_model import CellIndex, Dataset, median_event_count

# Seed-stream tags keeping the two views' randomness disjoint.
_CFP_STREAM = 1
_CTP_STREAM = 2


def _ctp_stack(dataset: Dataset, t_med: int, truncate: str):
    """All features' temporal views as one ``(D, n_visits, t_med)`` gather.

    Also returns ``event_of`` and the per-visit padded and truncated counts,
    which depend on visit lengths only and so hold for every feature.
    """
    lengths = dataset.lengths
    steps = np.arange(t_med)
    n_truncated = np.maximum(lengths - t_med, 0)
    offset = n_truncated if truncate == "keep_last" else np.zeros_like(lengths)
    event_of = np.where(steps < lengths[:, None], offset[:, None] + steps, -1)
    real = event_of >= 0
    rows = dataset.starts[:-1, None] + np.where(real, event_of, 0)
    # clip: an empty last visit starts past the final row
    values = np.where(real[:, :, None], dataset.values.take(rows, axis=0, mode="clip"), np.nan)
    return values.transpose(2, 0, 1), event_of, np.maximum(t_med - lengths, 0), n_truncated


def cfp_impute(dataset: Dataset, config: Config) -> tuple[np.ndarray, np.ndarray]:
    """Chained-equation fills for every hole, run on the stacked layout.

    Returns (fills, chain stds) as ``(E, D)`` arrays that are NaN at
    observed cells. Expects range-normalized data.
    """
    completed = chain_ensemble(
        dataset.values[None], config.chains, config.iterations, config.seed, [(_CFP_STREAM,)]
    )
    holes = np.isnan(dataset.values)
    fills, stds = np.full(holes.shape, np.nan), np.full(holes.shape, np.nan)
    fills[holes], stds[holes] = pool_chains(completed[0][:, holes])
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
    stack, event_of, _, _ = _ctp_stack(dataset, t_med, config.ctp_truncate)
    streams = [(_CTP_STREAM, feature) for feature in range(dataset.n_features)]
    completed = chain_ensemble(stack, config.chains, config.iterations, config.seed, streams)

    holes = np.isnan(stack)
    kept = holes & (event_of >= 0) & ~holes.all(axis=1, keepdims=True)
    pooled, std = pool_chains(completed.swapaxes(0, 1)[:, kept])
    feature, row, col = np.nonzero(kept)
    cells = [
        CellIndex(r, e, f)
        for f, r, e in zip(feature.tolist(), row.tolist(), event_of[row, col].tolist())
    ]
    return dict(zip(cells, pooled.tolist())), dict(zip(cells, std.tolist()))


def compromise(cfp, ctp, t_i, t_med: int, w1: float, w2: float):
    """Blend the two views' fills (or stds) elementwise.

    Cells of visits no longer than the median take the weighted combination;
    cells of longer visits (``t_i > t_med``), and cells the temporal view
    gave no value (NaN in ``ctp``), take the feature-perspective value alone.
    """
    return np.where((t_i > t_med) | np.isnan(ctp), cfp, w1 * cfp + w2 * ctp)


def dualcv_impute(dataset: Dataset, config: Config) -> tuple[np.ndarray, np.ndarray]:
    """Run both views and blend them cell by cell.

    Returns (fills, stds) as ``(E, D)`` arrays that are NaN at observed
    cells, like ``cfp_impute``. Per-cell dispersion combines the two views'
    chain stds with the same weights used for the fills.
    """
    t_med = median_event_count(dataset)
    cfp_fills, cfp_stds = cfp_impute(dataset, config)
    ctp_cell_fills, ctp_cell_stds = ctp_impute(dataset, t_med, config)

    at = dataset.rows(ctp_cell_fills)
    ctp_fills, ctp_stds = np.full_like(cfp_fills, np.nan), np.full_like(cfp_stds, np.nan)
    ctp_fills[at] = np.fromiter(ctp_cell_fills.values(), float, len(ctp_cell_fills))
    ctp_stds[at] = np.fromiter(ctp_cell_stds.values(), float, len(ctp_cell_stds))

    t_i = dataset.lengths[dataset.visit_of_row][:, None]
    fills = compromise(cfp_fills, ctp_fills, t_i, t_med, config.w1, config.w2)
    stds = compromise(cfp_stds, ctp_stds, t_i, t_med, config.w1, config.w2)
    return fills, stds


def per_visit_mean_std(dataset: Dataset, stds: np.ndarray) -> np.ndarray:
    """Mean std per visit over its imputed cells; NaN where it has none.

    ``stds`` is an ``(E, D)`` array, NaN at cells that were not imputed; each
    visit's cells are summed in row-major order.
    """
    at = np.nonzero(~np.isnan(stds))
    visit = dataset.visit_of_row[at[0]]
    # bincount adds the weights one by one in input order
    sums = np.bincount(visit, weights=stds[at], minlength=dataset.n_visits)
    counts = np.bincount(visit, minlength=dataset.n_visits)
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
