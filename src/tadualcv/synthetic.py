"""Seeded generator of EHR-like irregular series with known ground truth.

Each visit gets an irregular integer time grid, a set of smooth latent
sinusoids with per-visit random phases, and features that are row-normalized
mixtures of those latents plus optional noise. Mixing makes features linearly
dependent (food for the cross-feature view), the sinusoids make them smooth
in time (food for the temporal and GP views), and the full pre-missingness
values are returned alongside so tests can check fills against truth.

Visit ``i`` draws from its own PCG64 stream, the one NumPy's default
generator seeded with the entropy ``(seed, i)`` starts. The streams' states
are computed for all visits in one array pass (``evaluation._pcg64_states``),
and one reused generator is set to each visit's state in turn, so no
generator is built per visit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, FeatureSpec
from .evaluation import _pcg64_states

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


def default_mixing(n_features: int) -> np.ndarray:
    """Row-normalized mixing where consecutive feature pairs share latents.

    Features 2k and 2k+1 draw on the same two latents, so each has a
    linearly dependent partner for the cross-feature view to exploit.
    """
    a = np.zeros((n_features, n_features))
    for f in range(n_features):
        base = (f // 2) * 2
        a[f, base % n_features] = 1.0
        a[f, (base + 1) % n_features] = 1.0
    return a / a.sum(axis=1, keepdims=True)


def _stream_states(seed: int, n: int) -> list[dict]:
    """Per visit ``i < n``, the PCG64 state of NumPy's default generator seeded with ``(seed, i)``.

    Each dict is a whole PCG64 state: assigning it also clears the half word
    that a scalar ``integers`` draw of an earlier visit left buffered.
    """
    parts = (a.tolist() for a in _pcg64_states(seed, np.arange(n)[:, None]))
    return [
        {"bit_generator": "PCG64", "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
         "has_uint32": 0, "uinteger": 0}
        for s_hi, s_lo, i_hi, i_lo in zip(*parts)
    ]


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
    states = _stream_states(config.seed, n)
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)

    def draw(i):
        """Visit ``i``'s draws from the start of its stream, in their fixed order."""
        bit_gen.state = states[i]
        t_i = int(rng.integers(lo, hi + 1))
        gaps = rng.integers(_GAP_RANGE[0], _GAP_RANGE[1] + 1, size=t_i - 1)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=d)
        noise = rng.standard_normal((t_i, d)) if noisy else None
        return t_i, gaps, phases, noise, rng.random((t_i, d)) if rate > 0 else None

    # every visit's draws; all other arithmetic runs once over the stacked
    # (E, D) layout
    lengths, phases = np.empty(n, np.int64), np.empty((n, d))
    gaps, noise, uniforms = [], [], []
    for i in range(n):
        lengths[i], gaps_i, phases[i], noise_i, uniforms_i = draw(i)
        # a visit's first event has gap 0, which restarts its clock
        gaps += [[0], gaps_i]
        noise.append(noise_i)
        uniforms.append(uniforms_i)

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
    # an emptied row keeps one feature, drawn from its visit's stream after
    # the visit's own draws (replayed), one draw per row in row order
    for rows in np.split(emptied, np.flatnonzero(np.diff(visit_of_row[emptied])) + 1):
        if rows.size:
            draw(visit_of_row[rows[0]])
            holes[rows, rng.integers(d, size=rows.size)] = False
    # a new array, so the truths share no memory with the dataset's values
    stacked = np.where(holes, np.nan, full)
    # A feature that lost every observation would break downstream baselines.
    lost = np.isnan(stacked).all(axis=0)
    stacked[0, lost] = full[0, lost]

    ids = [f"v{i}" for i in range(n)]
    truths = np.split(full, starts[1:-1])
    return Dataset.from_stacked(features, ids, times, stacked, starts), truths
