"""Run configuration shared by the imputation pipeline and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised for invalid configuration values."""


DEFAULT_ECF_WINDOWS = {"vital": 480, "lab": 1440, "other": 480}

CTP_TRUNCATE_MODES = ("keep_last", "keep_first")


def check_ecf_windows(windows: dict[str, int]) -> None:
    """Raise ``ConfigError`` unless every carry-forward window is positive."""
    for kind, minutes in windows.items():
        if minutes <= 0:
            raise ConfigError(f"ECF window for {kind!r} must be positive")


@dataclass
class Config:
    """Pipeline settings with the defaults used throughout.

    ``w1``/``w2`` weight the two cross-visit views when both cover a cell and
    must sum to 1. ``chains``/``iterations`` size the chained-equation runs.
    ``ctp_truncate`` picks which end of an over-long visit feeds the
    per-time-step view. ECF windows are minutes per feature kind. The GP's
    nugget schedule and length-scale search box are fixed by the constants
    of ``gp_within_visit``.
    """

    w1: float = 0.5
    w2: float = 0.5
    chains: int = 5
    iterations: int = 10
    ctp_truncate: str = "keep_last"
    ecf_windows: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_ECF_WINDOWS))
    seed: int = 0

    def __post_init__(self):
        if abs(self.w1 + self.w2 - 1.0) > 1e-12:
            raise ConfigError(f"w1 + w2 must equal 1, got {self.w1} + {self.w2}")
        if self.w1 < 0 or self.w2 < 0:
            raise ConfigError("view weights must be non-negative")
        if self.chains < 1:
            raise ConfigError("chains must be >= 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.ctp_truncate not in CTP_TRUNCATE_MODES:
            raise ConfigError(f"ctp_truncate must be one of {CTP_TRUNCATE_MODES}")
        check_ecf_windows(self.ecf_windows)
