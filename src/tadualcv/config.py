"""Run configuration shared by the imputation pipeline and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data_model import FEATURE_KINDS


class ConfigError(ValueError):
    """Raised for invalid configuration values.

    ``keys`` names the ``Config`` fields of a rejected value, which are also
    its config-file keys, so a parser can name their lines.
    """

    def __init__(self, message: str, keys=()):
        super().__init__(message)
        self.keys = tuple(keys)


CTP_TRUNCATE_MODES = ("keep_last", "keep_first")


@dataclass
class Config:
    """Pipeline settings with the defaults used throughout.

    Each field is also a config-file key and a line of a report's
    ``[config]`` block. ``w1``/``w2`` weight the two cross-visit views when
    both cover a cell and must sum to 1. ``chains``/``iterations`` size the
    chained-equation runs. ``ctp_truncate`` picks which end of an over-long
    visit feeds the per-time-step view. ``ecf_window_<kind>`` is the ECF
    carry-forward window in minutes for features of that kind. ``seed`` is
    the non-negative master seed. The GP's nugget schedule and length-scale
    search box are fixed by the constants of ``gp_within_visit``.
    """

    w1: float = 0.5
    w2: float = 0.5
    chains: int = 5
    iterations: int = 10
    ctp_truncate: str = "keep_last"
    ecf_window_lab: int = 1440
    ecf_window_vital: int = 480
    ecf_window_other: int = 480
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
        for kind in FEATURE_KINDS:
            key = f"ecf_window_{kind}"
            if getattr(self, key) <= 0:
                raise ConfigError(f"ECF window for {kind!r} must be positive", [key])
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", ["seed"])
