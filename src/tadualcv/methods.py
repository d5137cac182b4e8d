"""Imputation method variants: the full pipeline, its ablations, baselines.

Each model variant is one cell of a grid: a cross-visit part (none, the
feature-perspective view alone, or the dual view) and the within-visit GP,
on or off (``MODEL_VARIANTS``). All of them run one path. The CFP chains,
the CTP chains and the GP fits read only the normalized dataset, so
``plan`` cuts them into work units (contiguous blocks of a chain stage's
members, and GP buckets) and packs them longest first onto
``forking.workers()`` processes from estimated one-CPU costs, and
``run_plan`` runs the first share here and each other in one forked child.
No unit combines two chains or two GP fits, so the output has the same bits
at any worker count. The two parts are then fused visit by visit through a
convex combination whose weights favor whichever side showed the smaller
dispersion for that visit.
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

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from . import forking
from .chained_equations import block_cost
from .config import DEFAULT_ECF_WINDOWS, Config, ConfigError, check_ecf_windows
from .data_model import DataError, Dataset
from .dualcv import cross_visit_chains, cross_visit_fills, per_visit_mean_std
# cfp_impute, dualcv_impute and gp_impute_visit stay importable here because
# perfbench/tracing.py wraps them as methods attributes
from .dualcv import cfp_impute, dualcv_impute  # noqa: F401
from .evaluation import normalize
from .gp_within_visit import bucket_cost, gp_buckets, gp_collect, gp_fit_buckets
from .gp_within_visit import gp_impute_visit  # noqa: F401

# Model variant -> (cross-visit part, within-visit GP on).
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


def _blocks(members: int, count: int) -> list[range]:
    """``count`` contiguous blocks of ``members``, the first ``members % count`` one longer."""
    size, extra = divmod(members, count)
    bounds = [b * size + min(b, extra) for b in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


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


def plan(chains: dict[str, tuple[int, int, int, int]], buckets: dict[int, int], workers: int):
    """Work units per worker, packed longest first; worker 0 is the caller.

    ``chains`` maps each chain stage, in stage order, to its ``(n, k,
    members, t)`` shape and ``buckets`` each GP bucket's observed count to
    its number of fits. Every chain stage is tried in 1 to ``workers``
    contiguous member blocks; each candidate is packed by ``_lpt`` on the
    estimated one-CPU costs (``block_cost``, ``bucket_cost``), and the
    smallest makespan wins, ties to fewer blocks. A worker's units are its
    chain blocks, ``(stage, members)`` in stage and member order, then at
    most one ``("gp", counts)`` unit holding its buckets. Workers left
    without a unit are dropped, so the plan may have fewer shares than
    ``workers``.
    """
    gp = [(("gp", n), bucket_cost(n, fits)) for n, fits in buckets.items()]
    order = {stage: i for i, stage in enumerate(chains)}
    best = None
    for counts in itertools.product(*(range(1, min(workers, s[2]) + 1) for s in chains.values())):
        units = list(gp)
        for (stage, (n, k, members, t)), count in zip(chains.items(), counts):
            units += [((stage, b), block_cost(n, k, len(b), t)) for b in _blocks(members, count)]
        makespan, shares = _lpt(units, workers)
        if best is None or (makespan, sum(counts)) < best[0]:
            best = (makespan, sum(counts)), shares
    shares = []
    for share in best[1]:
        blocks = sorted((u for u in share if u[0] != "gp"), key=lambda u: (order[u[0]], u[1].start))
        counts = tuple(sorted(n for stage, n in share if stage == "gp"))
        shares.append(blocks + ([("gp", counts)] if counts else []))
    return [share for share in shares if share] or [[]]


def _run_share(share, chains, dataset):
    """One worker's units: its chain blocks, then its GP buckets.

    Returns each block's ``Ensemble.run`` values, the GP buckets' results
    and the GP error, if any. A chain failure raises here; a GP failure is
    returned, to be raised only once every worker's chains have run, since
    a chain failure wins over it.
    """
    done = [(stage, part, chains[stage].run(part)) for stage, part in share if stage != "gp"]
    try:
        fitted = [gp_fit_buckets(dataset, part) for stage, part in share if stage == "gp"]
    except Exception as exc:  # noqa: BLE001 - raised by the caller after the chains
        return done, [], exc
    return done, fitted, None


def run_plan(shares, chains, dataset):
    """Run ``plan``'s shares: the first here, each other in one forked child.

    Returns each chain stage's ``Ensemble.per_chain`` values, set together
    from its blocks, and the GP buckets' results. The first chain failure is
    raised as soon as it is seen; a GP failure only once every share has
    run. Every child is killed if need be and reaped before this returns or
    raises.
    """
    with forking.children() as spawn:
        children = [spawn(_run_share, share, chains, dataset) for share in shares[1:]]
        outcomes = [_run_share(shares[0], chains, dataset), *(c.join() for c in children)]
    for _, _, error in outcomes:
        if error is not None:
            raise error
    per_chain = {
        stage: chains[stage].per_chain(
            [(part, values) for done, _, _ in outcomes for s, part, values in done if s == stage]
        )
        for stage in chains
    }
    return per_chain, [bucket for _, fitted, _ in outcomes for part in fitted for bucket in part]


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
    # CFP chains, CTP chains and the GP read only ``normalized``: one plan
    # spreads them over the usable CPUs, forking once
    chains = cross_visit_chains(normalized, cross, config) if cross else {}
    buckets = gp_buckets(normalized) if gp else {}
    shapes = {stage: c.shape for stage, c in chains.items()}
    per_chain, fitted = run_plan(plan(shapes, buckets, forking.workers()), chains, normalized)
    if cross:
        fills, stds = cross_visit_fills(normalized, config, per_chain)
    else:
        fills = stds = np.full(normalized.values.shape, np.nan)
    sigma_m = per_visit_mean_std(normalized, stds)
    if gp:
        gp_out = gp_collect(normalized, fitted)
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
