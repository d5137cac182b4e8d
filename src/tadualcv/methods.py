"""Imputation method variants: the full pipeline, its ablations, baselines.

Every variant is one row of ``VARIANTS``: a cross-visit part (none, the
feature-perspective view alone, or the dual view), the within-visit GP, on
or off, and a fallback. All seven run one path. The CFP chains, the CTP
chains and the GP fits read only the normalized dataset, and each is a
stage: ``cuts(workers)`` lists the ways to cut it into ``(part, estimated
one-CPU cost)`` units, ``run(part)`` returns a picklable result, and
``collect`` turns ``(part, result)`` pairs into ``(E, D)`` fills and stds.
``plan`` packs the units longest first onto ``forking.workers()``
processes, and ``run_plan`` runs the first share here and each other in one
forked child. No unit combines two chains or two GP fits, so the output has
the same bits at any worker count. The two parts are then fused visit by
visit through a convex combination whose weights favor whichever side
showed the smaller dispersion for that visit.
A hole the cross-visit part left open takes the GP fill. A hole neither
filled takes the fallback on the original scale, with std 0: its feature's
mean, or for ``ecf`` the expert carry-forward. The feature-mean and
carry-forward baselines are the rows with neither part, so the fallback
fills every hole.

Fills and stds travel as ``(E, D)`` arrays over the dataset's stacked
layout, NaN where a stage gave no value, so fusion and the fallbacks are
elementwise expressions. Every variant writes fills into a copy of the
caller's dataset, so observed cells pass through bit-identically regardless
of any internal rescaling.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from . import forking
from .config import Config, ConfigError
from .data_model import DataError, Dataset
from .dualcv import cross_visit_chains, cross_visit_fills, per_visit_mean_std
# cfp_impute, dualcv_impute and gp_impute_visit stay importable here because
# perfbench/tracing.py wraps them as methods attributes
from .dualcv import cfp_impute, dualcv_impute  # noqa: F401
from .evaluation import normalize
from .gp_within_visit import GPBuckets
from .gp_within_visit import gp_impute_visit  # noqa: F401

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


def carry_forward(dataset: Dataset, config: Config) -> np.ndarray:
    """Expert carry-forward fills: a recent same-visit value, else the feature mean.

    A cell takes the most recent observed value of its feature at or before
    it in the same visit, provided that value is no older than the window
    ``config.ecf_window_<kind>`` of the feature's kind; every other cell
    takes the cross-visit mean. Returns ``(E, D)`` fills over the stacked
    layout.
    """
    limit = np.array([getattr(config, f"ecf_window_{s.kind}") for s in dataset.features])

    values, times = dataset.values, dataset.times
    holes = np.isnan(values)
    # last observed row at or before each row, per feature, across the stack;
    # one before the row's visit start carries nothing
    last = np.maximum.accumulate(np.where(holes, -1, np.arange(len(values))[:, None]), axis=0)
    visit_start = dataset.starts[dataset.visit_of_row][:, None]
    source = np.maximum(last, 0)
    carry = (last >= visit_start) & (times[:, None] - times[source] <= limit)
    return np.where(carry, np.take_along_axis(values, source, axis=0), feature_means(dataset))


def _means(dataset: Dataset, config: Config) -> np.ndarray:
    return feature_means(dataset)


# Variant -> (cross-visit part, within-visit GP on, fallback). The fallback
# maps the caller's dataset and the config to fills for the holes that both
# parts left open, on the original scale.
VARIANTS = {
    "ta_dualcv": ("dualcv", True, _means),
    "ta_dualcv_noC": (None, True, _means),
    "ta_dualcv_noI": ("dualcv", False, _means),
    "three_d_mice": ("cfp", True, _means),
    "mice_only": ("cfp", False, _means),
    "mean_fill": (None, False, _means),
    "ecf": (None, False, carry_forward),
}


def _lpt(units, workers: int):
    """Graham's longest-processing-time-first packing of ``(unit, cost)`` pairs.

    Costliest first, each unit joins the least loaded worker, the
    lowest-numbered one on a tie. Returns the makespan and each worker's units.
    """
    shares = [[] for _ in range(workers)]
    loads = [(0.0, w) for w in range(workers)]
    for unit, cost in sorted(units, key=lambda u: -u[1]):
        load, w = heapq.heappop(loads)
        shares[w].append(unit)
        heapq.heappush(loads, (load + cost, w))
    return max(load for load, _ in loads), shares


def plan(stages: dict, workers: int):
    """Work units per worker, packed longest first; worker 0 is the caller.

    ``stages`` maps each stage name, in stage order, to its stage. Every
    combination of the stages' ``cuts(workers)`` is packed by ``_lpt`` on its
    units' estimated one-CPU costs, and the smallest makespan wins, ties to
    fewer units. A worker's units are ``(name, part)`` pairs in stage order
    and, within a stage, in the order of its cut. Workers left without a
    unit are dropped, so the plan may have fewer shares than ``workers``.
    """
    best = None
    for cuts in itertools.product(*(stage.cuts(workers) for stage in stages.values())):
        # a unit is (stage index, index in its cut), so sorting a share orders it
        units = [((s, i), cost) for s, cut in enumerate(cuts) for i, (_, cost) in enumerate(cut)]
        makespan, shares = _lpt(units, workers)
        if best is None or (makespan, len(units)) < best[0]:
            best = (makespan, len(units)), cuts, shares
    _, cuts, shares = best
    names = list(stages)
    shares = [[(names[s], cuts[s][i][0]) for s, i in sorted(share)] for share in shares]
    return [share for share in shares if share] or [[]]


def _run_share(share, stages):
    """One worker's units, in order; the first to raise an ``Exception`` ends the share.

    Returns each unit run's ``(name, part, result)`` and the failure, if
    any, as ``(stage index, exception)``. The exception is made
    ``forking.portable``, so it is the same whichever worker ran the unit.
    """
    done = []
    for name, part in share:
        try:
            done.append((name, part, stages[name].run(part)))
        except Exception as exc:  # noqa: BLE001 - run_plan raises it once every share has run
            return done, (list(stages).index(name), forking.portable(exc))
    return done, None


def run_plan(shares, stages):
    """Run ``plan``'s shares: the first here, each other in one forked child.

    Returns each stage's ``(part, result)`` pairs, by stage name. Once every
    share has run, the failure of the earliest stage is raised, and of that
    stage's failures, the lowest-numbered share's. A ``BaseException`` that
    is not an ``Exception`` propagates at once. Every child is killed if need
    be and reaped before this returns or raises.
    """
    with forking.children() as spawn:
        children = [spawn(_run_share, share, stages) for share in shares[1:]]
        outcomes = [_run_share(shares[0], stages), *(c.join() for c in children)]
    # (stage index, share index, exception); no two share a share index
    failures = [(failed[0], w, failed[1]) for w, (_, failed) in enumerate(outcomes) if failed]
    if failures:
        raise min(failures)[2]
    return {
        name: [(part, result) for done, _ in outcomes for s, part, result in done if s == name]
        for name in stages
    }


def impute(dataset: Dataset, variant: str, config: Config | None = None) -> ImputationOutput:
    """Impute every missing cell of ``dataset`` with the chosen variant.

    The variant's cross-visit part and GP run on range-normalized values and
    their fills are mapped back afterwards; the variant's fallback then fills
    what they left open, with std 0. Observed cells are copied from the
    source and never rescaled. Every feature needs at least one observed
    value, else ``DataError``.
    """
    config = config or Config()
    if variant not in VARIANTS:
        raise ConfigError(f"unknown method variant {variant!r}")
    _require_observed(dataset)

    cross, gp, fallback = VARIANTS[variant]
    normalized, nmap = normalize(dataset)
    # CFP chains, CTP chains and the GP read only ``normalized``: one plan
    # spreads them over the usable CPUs, forking once
    stages = cross_visit_chains(normalized, cross, config) if cross else {}
    if gp:
        stages["gp"] = GPBuckets(normalized)
    results = run_plan(plan(stages, forking.workers()), stages)
    collected = {name: stage.collect(results[name]) for name, stage in stages.items()}
    if cross:
        fills, stds = cross_visit_fills(normalized, config, collected)
    else:
        fills = stds = np.full(normalized.values.shape, np.nan)
    sigma_m = per_visit_mean_std(normalized, stds)
    if gp:
        gp_fills, gp_stds = collected["gp"]
        sigma_g = per_visit_mean_std(normalized, gp_stds)
        # theta stays NaN for visits the cross-visit part filled nothing
        theta1, theta2 = (
            np.where(np.isnan(sigma_m), np.nan, w) for w in fusion_weights(sigma_m, sigma_g)
        )
        t1, t2 = (w[normalized.visit_of_row][:, None] for w in (theta1, theta2))
        fills = fuse(fills, gp_fills, t1, t2)
        stds = fuse(stds, gp_stds, t1, t2)
    else:
        sigma_g, theta1, theta2 = (np.full(dataset.n_visits, np.nan) for _ in range(3))

    holes = np.isnan(dataset.values)
    values = np.where(holes, fills * nmap.scales + nmap.offsets, dataset.values)
    stds = np.where(holes, stds * nmap.scales, 0.0)
    unfilled = np.isnan(values)
    if unfilled.any():
        values = np.where(unfilled, fallback(dataset, config), values)
        stds = np.where(unfilled, 0.0, stds)

    return ImputationOutput(
        dataset=dataset.with_values(values),
        variant=variant,
        per_visit_sigma_m=sigma_m,
        per_visit_sigma_g=sigma_g,
        per_visit_theta1=theta1,
        per_visit_theta2=theta2,
        stds=stds,
    )
