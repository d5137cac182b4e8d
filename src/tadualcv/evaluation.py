"""Masking protocols, range normalization, nRMSE scoring, experiment runner.

The masking helpers hide observed cells while recording their true values;
imputers then see only the masked dataset, and the scorer compares their
fills against the recorded truths. Residuals are normalized by each patient's
own pre-mask value range per feature, and the per-feature scores use the
total masked-cell count of that feature as the denominator.

Normalization maps every feature to [0, 1] using the observed min/max of the
dataset it is given; inside experiments that is the post-mask data, so the
imputer never sees information derived from hidden truths.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data_model import (
    DataError,
    Dataset,
    MaskSet,
    apply_mask,
)

_MAX_MASK_REDRAWS = 100


@dataclass(frozen=True)
class NormalizationMap:
    """Per-feature affine transform to [0, 1] and back.

    Constant (or unobserved) features get scale 1 so they map to 0 and
    denormalize exactly.
    """

    offsets: np.ndarray
    scales: np.ndarray


def fit_normalization(dataset: Dataset) -> NormalizationMap:
    holes = np.isnan(dataset.values)
    lo = np.min(np.where(holes, np.inf, dataset.values), axis=0)
    hi = np.max(np.where(holes, -np.inf, dataset.values), axis=0)
    unobserved = ~np.isfinite(lo)
    lo = np.where(unobserved, 0.0, lo)
    hi = np.where(unobserved, 0.0, hi)
    scales = np.where(hi == lo, 1.0, hi - lo)
    return NormalizationMap(lo, scales)


def normalize(dataset: Dataset) -> tuple[Dataset, NormalizationMap]:
    """Scale every feature into [0, 1]; returns the map for the way back."""
    nmap = fit_normalization(dataset)
    return dataset.with_values((dataset.values - nmap.offsets) / nmap.scales), nmap


def denormalize(dataset: Dataset, nmap: NormalizationMap) -> Dataset:
    return dataset.with_values(dataset.values * nmap.scales + nmap.offsets)


# NumPy's SeedSequence (a pool of 4 uint32 words and its hash constants) and
# PCG64's 128-bit LCG multiplier, split into 64-bit halves
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hasher(h: int, mult: int):
    """SeedSequence's ``hashmix``; its running constant ``h`` is a Python int."""

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ h
        h = h * mult & _M32
        v = v * h
        return v ^ (v >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each ``a * b`` (uint64 ``a``, 64-bit int ``b``), by 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (t >> 32) + ((t & _M32) + a0 * b1 >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """``state * multiplier + inc`` mod 2**128 on (high, low) uint64 halves."""
    new_lo = lo * _PCG_LO + inc_lo
    carry = new_lo < inc_lo
    return hi * _PCG_LO + lo * _PCG_HI + _mulhi64(lo, _PCG_LO) + inc_hi + carry, new_lo


def _pcg64_states(seed: int, keys: np.ndarray):
    """Each key row's PCG64 ``(state, inc)`` for ``default_rng((seed, *key))``.

    ``keys`` is ``(K, w)`` for any width ``w``, with entries in ``[0, 2**32)``.
    Every row's state is NumPy's ``SeedSequence`` over the entropy words of
    ``(seed, *key)`` seeding a PCG64 generator, computed as uint32/uint64
    array arithmetic for all rows at once. Returns the 128-bit state and
    increment as four ``(K,)`` uint64 arrays: ``state_hi, state_lo, inc_hi,
    inc_lo``. NumPy's compatibility policy fixes the seeding, and the
    ``default_rng`` oracles in ``tests/test_evaluation.py`` catch any drift.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if keys.size and (keys.min() < 0 or keys.max() > _M32):
        raise ValueError("key words must lie in [0, 2**32)")
    # entropy words: the seed's little-endian uint32 words (0 is one word),
    # then one word per key column
    seed_words = [seed & _M32]
    while seed := seed >> 32:
        seed_words.append(seed & _M32)
    k = len(keys)
    words = [np.full(k, w, np.uint32) for w in seed_words] + list(keys.T.astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(k, np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words, paired low word first, give
    # the seed's and the increment's (high, low) halves
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    # PCG64 seeding: inc = (i << 1) | 1; state 0, one step, add s, one step
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = inc_lo + s_lo
    hi, lo = _pcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _keyed_uniforms(seed: int, keys: np.ndarray, n: int):
    """Yield column ``j < n`` of ``default_rng((seed, *key)).random(n)`` over ``keys`` rows.

    Each row's stream starts from its ``_pcg64_states`` state; each column
    is one PCG64 step and XSL-RR output per row, for all rows at once.
    """
    hi, lo, inc_hi, inc_lo = _pcg64_states(seed, keys)
    for _ in range(n):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        yield ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0**-53


def mask_random(dataset: Dataset, rate: float, seed: int) -> MaskSet:
    """Mask each observed cell independently with probability ``rate``.

    Draws are keyed by (seed, visit, event, redraw attempt), so the mask is
    reproducible and independent of traversal order; they are computed for
    all pending events at once, one redraw round at a time, and give the
    same masks as one ``default_rng((seed, visit, event, attempt))`` per
    event did. An event that would lose all of its observed values is
    redrawn (every event keeps at least one, which also keeps every visit
    non-empty and the masked dataset valid); if redraws keep failing (rates
    at or near 1) the event's first observed cell survives deterministically.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    observed = ~np.isnan(dataset.values)
    n_obs = observed.sum(axis=1)
    hidden = np.zeros(observed.shape, dtype=bool)
    # the events (stacked rows) with an observed cell, all pending at first
    rows = np.flatnonzero(n_obs)
    visits = dataset.visit_of_row[rows]
    keys = np.stack([visits, rows - dataset.starts[visits], np.zeros_like(rows)], axis=1)
    for attempt in range(_MAX_MASK_REDRAWS):
        if not rows.size:
            break
        keys[:, 2] = attempt
        # one feature's draws at a time, so no (events, features) float block
        below = np.empty((dataset.n_features, rows.size), dtype=bool)
        for f, draws in enumerate(_keyed_uniforms(seed, keys, dataset.n_features)):
            np.less(draws, rate, out=below[f])
        chosen = observed[rows] & below.T
        # an event that would lose every observed cell is redrawn; at rate 1,
        # or on its last redraw (which then chose them all), its first
        # observed cell survives instead
        full = chosen.sum(axis=1) == n_obs[rows]
        done = ~full | (rate >= 1.0) | (attempt == _MAX_MASK_REDRAWS - 1)
        kept = np.flatnonzero(full & done)
        chosen[kept, np.argmax(chosen[kept], axis=1)] = False
        hidden[rows[done]] = chosen[done]
        rows, keys = rows[~done], keys[~done]
    # entries in stacked order: visit, then event, then feature
    rows, features = np.divmod(np.flatnonzero(hidden), dataset.n_features)
    visits = dataset.visit_of_row[rows]
    return MaskSet(
        visits, rows - dataset.starts[visits], features, dataset.values[rows, features],
        strategy="random_rate", rate=rate, seed=seed,
    )


def mask_one_per_feature_visit(dataset: Dataset, seed: int) -> MaskSet:
    """Mask exactly one observed value per (visit, feature) pair.

    Pairs with fewer than two observations are skipped so at least one
    observation always remains for carry-forward and GP fitting, and the
    choice avoids emptying an event (cells whose event would be left with no
    values are ineligible).
    """
    observed, visit_of_row = ~np.isnan(dataset.values), dataset.visit_of_row
    # observed cells per row not yet masked
    remaining = observed.sum(axis=1)
    rngs = [np.random.default_rng((int(seed), i)) for i in range(dataset.n_visits)]
    hidden = np.zeros(observed.shape, dtype=bool)
    # one feature at a time, every visit at once; each visit's generator
    # draws once per feature it masks, in feature order
    for f in range(dataset.n_features):
        observed_f = observed[:, f]
        pairs = np.bincount(visit_of_row[observed_f], minlength=dataset.n_visits) >= 2
        eligible = np.flatnonzero(observed_f & (remaining >= 2) & pairs[visit_of_row])
        sizes = np.bincount(visit_of_row[eligible], minlength=dataset.n_visits)
        visits = np.flatnonzero(sizes)
        counts = sizes[visits]
        draws = [rngs[i].integers(k) for i, k in zip(visits.tolist(), counts.tolist())]
        chosen = eligible[np.cumsum(counts) - counts + np.array(draws, dtype=np.int64)]
        remaining[chosen] -= 1
        hidden[chosen, f] = True
    rows, features = np.nonzero(hidden)
    # entries in visit order, then feature order
    order = np.lexsort((features, visit_of_row[rows]))
    rows, features = rows[order], features[order]
    visits = visit_of_row[rows]
    return MaskSet(
        visits, rows - dataset.starts[visits], features, dataset.values[rows, features],
        strategy="one_per_feature_visit", rate=None, seed=seed,
    )


@dataclass
class EvalReport:
    """Per-feature and macro nRMSE for one (variant, mask, seed) run."""

    variant: str
    strategy: str
    rate: float | None
    seed: int
    per_feature_nrmse: dict[int, float]
    per_feature_masked: dict[int, int]
    macro_nrmse: float | None
    config_echo: dict[str, str]


def _per_patient_ranges(premask: Dataset) -> np.ndarray:
    """(N, D) observed value range per visit and feature; 1 where degenerate."""
    ranges = np.ones((premask.n_visits, premask.n_features))
    # fmin/fmax skip NaN; an empty visit's start would alias the next visit
    # (or lie past the last row), so only non-empty visits are reduced
    nonempty = premask.lengths > 0
    at = premask.starts[:-1][nonempty]
    span = np.fmax.reduceat(premask.values, at, axis=0) - np.fmin.reduceat(
        premask.values, at, axis=0
    )
    ranges[nonempty] = np.where(np.isfinite(span) & (span > 0), span, 1.0)
    return ranges


def nrmse(
    mask: MaskSet,
    imputed: Dataset,
    premask: Dataset,
    variant: str = "",
    config_echo: dict[str, str] | None = None,
) -> EvalReport:
    """Score imputed values at masked cells against their recorded truths.

    ``premask`` is the dataset before masking (native holes included); it
    supplies the per-patient ranges. Every masked cell must carry a value in
    ``imputed``.
    """
    ranges = _per_patient_ranges(premask)
    cells = mask.cells()
    rows, cols = imputed.rows(cells)
    values = imputed.values[rows, cols]
    missing = np.isnan(values)
    if missing.any():
        cell = tuple(cells[np.argmax(missing)].tolist())
        raise DataError(f"incomplete imputation: cell {cell} still missing")
    resid = (values - mask.truth) / ranges[mask.visit, cols]
    # bincount adds the weights one by one in mask order
    sq_sums = np.bincount(cols, weights=resid * resid, minlength=imputed.n_features)
    counts = np.bincount(cols, minlength=imputed.n_features)

    per_feature = {
        int(f): float(np.sqrt(sq_sums[f] / counts[f])) for f in np.nonzero(counts)[0]
    }
    macro = float(np.mean(list(per_feature.values()))) if per_feature else None
    return EvalReport(
        variant=variant,
        strategy=mask.strategy,
        rate=mask.rate,
        seed=mask.seed,
        per_feature_nrmse=per_feature,
        per_feature_masked={f: int(counts[f]) for f in per_feature},
        macro_nrmse=macro,
        config_echo=dict(config_echo or {}),
    )


def run_experiment(dataset, variants, strategies, seeds, config) -> list[EvalReport]:
    """Mask, impute, and score every (seed, strategy, variant) combination.

    ``strategies`` is a sequence of ("random_rate", rate) or
    ("one_per_feature_visit", None) pairs. Reports come back in declared
    order: seeds outermost, then strategies, then variants.
    """
    from .methods import impute  # deferred: methods imports normalize from here

    reports = []
    for seed in seeds:
        for strategy, rate in strategies:
            if strategy == "random_rate":
                mask = mask_random(dataset, rate, seed)
            elif strategy == "one_per_feature_visit":
                mask = mask_one_per_feature_visit(dataset, seed)
            else:
                raise ValueError(f"unknown masking strategy {strategy!r}")
            masked = apply_mask(dataset, mask)
            for variant in variants:
                run_config = replace(config, seed=seed)
                output = impute(masked, variant, run_config)
                echo = config_echo(run_config)
                reports.append(
                    nrmse(mask, output.dataset, dataset, variant=variant, config_echo=echo)
                )
    return reports


def config_echo(config) -> dict[str, str]:
    """A config's fields as ``name -> str(value)``, in field order: config-file lines."""
    return {f.name: str(getattr(config, f.name)) for f in fields(config)}
