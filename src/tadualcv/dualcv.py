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

Each view is one chain ensemble over its stack of matrices
(``cross_visit_chains``), which the caller runs whole or in member blocks;
only the chains' values at the cells a view hands on leave a block.
``cross_visit_fills`` pools them with ``pool_chains`` and scatters them onto
the stacked layout. Fills and stds are arrays over that
layout, NaN where a stage gave no value, so the compromise is one
elementwise expression.
"""

from __future__ import annotations

import numpy as np

from .chained_equations import Ensemble, pool_chains
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


def _ctp_kept(dataset: Dataset, t_med: int, truncate: str):
    """``_ctp_stack``'s views and ``event_of``, and the cells whose fills leave them.

    A kept cell is a real hole (not padding) of a time-step column with at
    least one observation; a column with none only carries a placeholder.
    """
    stack, event_of, _, _ = _ctp_stack(dataset, t_med, truncate)
    holes = np.isnan(stack)
    return stack, event_of, holes & (event_of >= 0) & ~holes.all(axis=1, keepdims=True)


def _cfp_chains(dataset: Dataset, config: Config) -> Ensemble:
    views = dataset.values[None]
    streams = [(_CFP_STREAM,)]
    return Ensemble(views, config.chains, config.iterations, config.seed, streams, np.isnan(views))


def _ctp_chains(dataset: Dataset, t_med: int, config: Config) -> Ensemble:
    stack, _, kept = _ctp_kept(dataset, t_med, config.ctp_truncate)
    streams = [(_CTP_STREAM, feature) for feature in range(dataset.n_features)]
    return Ensemble(stack, config.chains, config.iterations, config.seed, streams, kept)


def _cfp_fills(dataset: Dataset, per_chain: np.ndarray):
    """Pooled fills and stds of the CFP chains' ``(m, holes)`` values."""
    holes = np.isnan(dataset.values)
    fills, stds = np.full(holes.shape, np.nan), np.full(holes.shape, np.nan)
    fills[holes], stds[holes] = pool_chains(per_chain)
    return fills, stds


def _ctp_fills(dataset: Dataset, t_med: int, config: Config, per_chain: np.ndarray):
    """Pooled fills and stds of the CTP chains' ``(m, kept cells)`` values.

    Each kept cell goes straight to its stacked cell ``(starts[visit] +
    event, feature)``; every other cell is NaN.
    """
    _, event_of, kept = _ctp_kept(dataset, t_med, config.ctp_truncate)
    feature, visit, col = np.nonzero(kept)
    at = dataset.starts[visit] + event_of[visit, col], feature
    fills, stds = np.full(dataset.values.shape, np.nan), np.full(dataset.values.shape, np.nan)
    fills[at], stds[at] = pool_chains(per_chain)
    return fills, stds


def cross_visit_chains(dataset: Dataset, cross: str, config: Config) -> dict[str, Ensemble]:
    """The chain ensembles of a cross-visit part, by stage name, in stage order.

    ``"cfp"`` is the feature-perspective view alone; ``"dualcv"`` adds the
    temporal-perspective view as ``"ctp"``. Expects range-normalized data.
    """
    chains = {"cfp": _cfp_chains(dataset, config)}
    if cross == "dualcv":
        chains["ctp"] = _ctp_chains(dataset, median_event_count(dataset), config)
    return chains


def cross_visit_fills(dataset: Dataset, config: Config, per_chain: dict[str, np.ndarray]):
    """(fills, stds) of a cross-visit part from each stage's ``Ensemble.per_chain``.

    Returns ``(E, D)`` arrays that are NaN at observed cells. With both
    views, each cell blends them by ``compromise``, its dispersion included.
    """
    fills, stds = _cfp_fills(dataset, per_chain["cfp"])
    if "ctp" not in per_chain:
        return fills, stds
    t_med = median_event_count(dataset)
    ctp_fills, ctp_stds = _ctp_fills(dataset, t_med, config, per_chain["ctp"])
    t_i = dataset.lengths[dataset.visit_of_row][:, None]
    return (
        compromise(fills, ctp_fills, t_i, t_med, config.w1, config.w2),
        compromise(stds, ctp_stds, t_i, t_med, config.w1, config.w2),
    )


def cfp_impute(dataset: Dataset, config: Config) -> tuple[np.ndarray, np.ndarray]:
    """Chained-equation fills for every hole, run on the stacked layout.

    Returns (fills, chain stds) as ``(E, D)`` arrays that are NaN at
    observed cells. Expects range-normalized data.
    """
    return _cfp_fills(dataset, _cfp_chains(dataset, config).per_chain())


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
    # the dict return stays because perfbench/tracing.py's ctp_info iterates
    # it; impute() takes the arrays of _ctp_fills
    per_chain = _ctp_chains(dataset, t_med, config).per_chain()
    fills, stds = _ctp_fills(dataset, t_med, config, per_chain)
    row, feature = np.nonzero(~np.isnan(fills.T))[::-1]
    visit = dataset.visit_of_row[row]
    cells = [
        CellIndex(v, e, f)
        for v, e, f in zip(visit.tolist(), (row - dataset.starts[visit]).tolist(), feature.tolist())
    ]
    return (
        dict(zip(cells, fills[row, feature].tolist())),
        dict(zip(cells, stds[row, feature].tolist())),
    )


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
    chains = cross_visit_chains(dataset, "dualcv", config)
    return cross_visit_fills(dataset, config, {s: c.per_chain() for s, c in chains.items()})


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
