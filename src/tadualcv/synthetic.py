"""Seeded generator of EHR-like irregular series with known ground truth.

Each visit gets an irregular integer time grid, a set of smooth latent
sinusoids with per-visit random phases, and features that are row-normalized
mixtures of those latents plus optional noise. Mixing makes features linearly
dependent (food for the cross-feature view), the sinusoids make them smooth
in time (food for the temporal and GP views), and the full pre-missingness
values are returned alongside so tests can check fills against truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, FeatureSpec

# Integer minutes between consecutive events.
_GAP_RANGE = (10, 45)
# Default latent periods in minutes, log-spaced per feature.
_PERIOD_RANGE = (600.0, 2400.0)


@dataclass
class SynthConfig:
    n_visits: int = 50
    n_features: int = 4
    events_per_visit: tuple[int, int] = (6, 12)
    frequencies: tuple[float, ...] | None = None
    mixing: np.ndarray | None = None
    noise_scale: float = 0.0
    native_missing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_visits < 1 or self.n_features < 1:
            raise ValueError("n_visits and n_features must be >= 1")
        lo, hi = self.events_per_visit
        if lo < 2 or hi < lo:
            raise ValueError("events_per_visit must satisfy 2 <= min <= max")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if not 0.0 <= self.native_missing_rate < 1.0:
            raise ValueError("native_missing_rate must be in [0, 1)")
        if self.frequencies is not None and any(f <= 0 for f in self.frequencies):
            raise ValueError("frequencies must be positive")


def default_mixing(n_features: int, spread: float = 1.0) -> np.ndarray:
    """Row-normalized mixing where consecutive feature pairs share latents.

    Features 2k and 2k+1 draw on the same two latents, so each has a
    linearly dependent partner for the cross-feature view to exploit.
    """
    a = np.zeros((n_features, n_features))
    for f in range(n_features):
        base = (f // 2) * 2
        a[f, base % n_features] = 1.0
        a[f, (base + 1) % n_features] = spread
    return a / a.sum(axis=1, keepdims=True)


def generate(config: SynthConfig) -> tuple[Dataset, list[np.ndarray]]:
    """Build a dataset plus the complete per-visit truth matrices.

    Everything is keyed off (seed, visit index), so regeneration is exact.
    Native missingness never empties an event row, and every feature keeps at
    least one observation overall.
    """
    d = config.n_features
    if config.frequencies is None:
        periods = np.geomspace(*_PERIOD_RANGE, d)
        freqs = 2.0 * np.pi / periods
    else:
        if len(config.frequencies) != d:
            raise ValueError("need one frequency per feature")
        freqs = np.asarray(config.frequencies, dtype=float)
    mixing = default_mixing(d) if config.mixing is None else np.asarray(config.mixing, float)
    if mixing.shape != (d, d):
        raise ValueError("mixing matrix must be D x D")

    features = [FeatureSpec(f, f"f{f}", "other") for f in range(d)]
    n, (lo, hi) = config.n_visits, config.events_per_visit
    rate, noisy = config.native_missing_rate, config.noise_scale > 0
    # every visit's draws, in the order one generator per visit makes them;
    # all other arithmetic runs once over the stacked (E, D) layout
    rngs, lengths, phases = [], np.empty(n, np.int64), np.empty((n, d))
    gaps, noise, uniforms = [], [], []
    for i in range(n):
        rng = np.random.default_rng((int(config.seed), i))
        t_i = lengths[i] = rng.integers(lo, hi + 1)
        # a visit's first event has gap 0, which restarts its clock
        gaps += [[0], rng.integers(_GAP_RANGE[0], _GAP_RANGE[1] + 1, size=t_i - 1)]
        phases[i] = rng.uniform(0.0, 2.0 * np.pi, size=d)
        if noisy:
            noise.append(rng.standard_normal((t_i, d)))
        if rate > 0:
            uniforms.append(rng.random((t_i, d)))
        rngs.append(rng)

    clock = np.cumsum(np.concatenate(gaps))
    starts = np.concatenate(([0], np.cumsum(lengths)))
    visit_of_row = np.repeat(np.arange(n), lengths)
    times = clock - clock[starts[:-1]][visit_of_row]
    latent = np.sin(times[:, None] * freqs[None, :] + phases[visit_of_row])
    full = latent @ mixing.T
    if noisy:
        full = full + config.noise_scale * np.concatenate(noise)

    holes = np.concatenate(uniforms) < rate if rate > 0 else np.zeros(full.shape, dtype=bool)
    emptied = np.flatnonzero(holes.all(axis=1))
    # an emptied row keeps one feature, drawn last from its visit's
    # generator, one draw per row in row order
    for rows in np.split(emptied, np.flatnonzero(np.diff(visit_of_row[emptied])) + 1):
        if rows.size:
            holes[rows, rngs[visit_of_row[rows[0]]].integers(d, size=rows.size)] = False
    # a new array, so the truths share no memory with the dataset's values
    stacked = np.where(holes, np.nan, full)
    # A feature that lost every observation would break downstream baselines.
    lost = np.isnan(stacked).all(axis=0)
    stacked[0, lost] = full[0, lost]

    ids = [f"v{i}" for i in range(n)]
    truths = np.split(full, starts[1:-1])
    return Dataset.from_stacked(features, ids, times, stacked, starts), truths
