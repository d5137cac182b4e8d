"""Run configuration shared by the imputation pipeline and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .data_model import FEATURE_KINDS


class ConfigError(ValueError):
    """Raised for invalid configuration values.

    ``keys`` names the settings of a rejected value as a config file spells
    them (``ecf_window_<kind>`` for a window), so a parser can name their lines.
    """

    def __init__(self, message: str, keys=()):
        super().__init__(message)
        self.keys = tuple(keys)


DEFAULT_ECF_WINDOWS = {"vital": 480, "lab": 1440, "other": 480}

CTP_TRUNCATE_MODES = ("keep_last", "keep_first")


@dataclass
class Config:
    """Pipeline settings with the defaults used throughout.

    ``w1``/``w2`` weight the two cross-visit views when both cover a cell and
    must sum to 1. ``chains``/``iterations`` size the chained-equation runs.
    ``ctp_truncate`` picks which end of an over-long visit feeds the
    per-time-step view. ECF windows are minutes per feature kind; a kind
    left out of ``ecf_windows`` keeps its ``DEFAULT_ECF_WINDOWS`` entry.
    The GP's nugget schedule and length-scale search box are fixed by the
    constants of ``gp_within_visit``.
    """

    w1: float = 0.5
    w2: float = 0.5
    chains: int = 5
    iterations: int = 10
    ctp_truncate: str = "keep_last"
    ecf_windows: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_ECF_WINDOWS))
    seed: int = 0

    def __post_init__(self):
        weights = ("w1", "w2")
        if not (math.isfinite(self.w1) and math.isfinite(self.w2)):
            bad = [key for key in weights if not math.isfinite(getattr(self, key))]
            raise ConfigError(f"view weights must be finite, got {self.w1} and {self.w2}", bad)
        if abs(self.w1 + self.w2 - 1.0) > 1e-12:
            raise ConfigError(f"w1 + w2 must equal 1, got {self.w1} + {self.w2}", weights)
        if self.w1 < 0 or self.w2 < 0:
            bad = [key for key in weights if getattr(self, key) < 0]
            raise ConfigError("view weights must be non-negative", bad)
        if self.chains < 1:
            raise ConfigError("chains must be >= 1", ["chains"])
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1", ["iterations"])
        if self.ctp_truncate not in CTP_TRUNCATE_MODES:
            raise ConfigError(f"ctp_truncate must be one of {CTP_TRUNCATE_MODES}", ["ctp_truncate"])
        # each window is keyed by a feature kind of data_model.FEATURE_KINDS
        for kind, minutes in self.ecf_windows.items():
            if kind not in FEATURE_KINDS:
                raise ConfigError(
                    f"unknown ECF window kind {kind!r}, expected one of {FEATURE_KINDS}"
                )
            if minutes <= 0:
                key = f"ecf_window_{kind}"
                raise ConfigError(f"ECF window for {kind!r} must be positive", [key])
        # a kind left out keeps its default window; the caller's dict is not changed
        self.ecf_windows = {**DEFAULT_ECF_WINDOWS, **self.ecf_windows}
