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
(``cross_visit_chains``), built with the stacked cell each kept value lands
on, so the view's gather is made once. The caller runs an ensemble whole or
in member blocks, only the chains' values at the cells a view hands on
leave a block, and the ensemble's ``collect`` pools and scatters them onto
the stacked layout. ``cross_visit_fills`` takes both views' collected fills
and stds, arrays over that layout that are NaN where a view gave no value,
so the compromise is one elementwise expression.
"""

from __future__ import annotations

import numpy as np

from .chained_equations import Ensemble
# run_chains stays importable here because perfbench/tracing.py wraps dualcv.run_chains
from .chained_equations import run_chains  # noqa: F401
from .config import Config
from .data_model import Dataset, median_event_count

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


def _cfp_chains(dataset: Dataset, config: Config) -> Ensemble:
    holes = np.isnan(dataset.values)
    return Ensemble(dataset.values[None], config.chains, config.iterations, config.seed,
                    [(_CFP_STREAM,)], holes[None], np.flatnonzero(holes), holes.shape)


def _ctp_chains(dataset: Dataset, t_med: int, config: Config) -> Ensemble:
    """The temporal view's ensemble, whose kept cells land on ``(starts[visit] + event, feature)``.

    A kept cell is a real hole (not padding) of a time-step column with at
    least one observation; a column with none only carries a placeholder.
    """
    stack, event_of, _, _ = _ctp_stack(dataset, t_med, config.ctp_truncate)
    holes = np.isnan(stack)
    kept = holes & (event_of >= 0) & ~holes.all(axis=1, keepdims=True)
    feature, visit, col = np.nonzero(kept)
    at = (dataset.starts[visit] + event_of[visit, col]) * dataset.n_features + feature
    streams = [(_CTP_STREAM, feature) for feature in range(dataset.n_features)]
    return Ensemble(stack, config.chains, config.iterations, config.seed, streams,
                    kept, at, dataset.values.shape)


def _run_here(stage):
    """A plan stage's ``collect`` of its one-worker cut, every unit run here."""
    return stage.collect([(part, stage.run(part)) for part, _ in stage.cuts(1)[0]])


def cross_visit_chains(dataset: Dataset, cross: str, config: Config) -> dict[str, Ensemble]:
    """The chain ensembles of a cross-visit part, by stage name, in stage order.

    ``"cfp"`` is the feature-perspective view alone; ``"dualcv"`` adds the
    temporal-perspective view as ``"ctp"``. Expects range-normalized data.
    """
    chains = {"cfp": _cfp_chains(dataset, config)}
    if cross == "dualcv":
        chains["ctp"] = _ctp_chains(dataset, median_event_count(dataset), config)
    return chains


def cross_visit_fills(dataset: Dataset, config: Config, collected: dict[str, tuple]):
    """(fills, stds) of a cross-visit part from each chain stage's ``collect``.

    Returns ``(E, D)`` arrays that are NaN at observed cells. With both
    views, each cell blends them by ``compromise``, its dispersion included.
    """
    if "ctp" not in collected:
        return collected["cfp"]
    t_med = median_event_count(dataset)
    t_i = dataset.lengths[dataset.visit_of_row][:, None]
    return tuple(
        compromise(cfp, ctp, t_i, t_med, config.w1, config.w2)
        for cfp, ctp in zip(collected["cfp"], collected["ctp"])
    )


def cfp_impute(dataset: Dataset, config: Config) -> tuple[np.ndarray, np.ndarray]:
    """Chained-equation fills for every hole, run on the stacked layout.

    Returns (fills, chain stds) as ``(E, D)`` arrays that are NaN at
    observed cells. Expects range-normalized data.
    """
    return _run_here(_cfp_chains(dataset, config))


def ctp_impute(dataset: Dataset, t_med: int, config: Config) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature time-step-view fills for all real (non-placeholder) cells.

    Returns (fills, chain stds) as ``(E, D)`` arrays, NaN off the kept
    cells, like ``cfp_impute``. Visits longer than ``t_med`` contribute only
    their kept window (the most recent events by default); fills for padding
    placeholders never leave this function. Nor do fills of a time-step
    column with no observations: the chains hold only a placeholder constant
    there.
    """
    if t_med < 1:
        raise ValueError("t_med must be >= 1")
    return _run_here(_ctp_chains(dataset, t_med, config))


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
    return cross_visit_fills(dataset, config, {s: _run_here(c) for s, c in chains.items()})


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
