"""Run configuration shared by the checks, the gallery and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from .asymptotics import EpsGrid


@dataclass(frozen=True)
class Config:
    """Check parameters; defaults resolve every gallery entry in < 1 s each.

    grid_base / grid_k_min / grid_k_max : the epsilon grid base**k.
    k_max           : highest derivative order checked.
    n_cap           : moderateness cap, Pass requires slope >= -n_cap.
    m_probe         : negligibility probe order (cutoff for "all m").
    r2_min          : minimum log-log fit quality for decisive verdicts.
    vanish_tol      : tail threshold for the vanishing judge.
    margin_min      : boundary-escape margin, fraction of chart extent.
    seed            : seed of the extra sample points a library caller's
                      ``trials`` > 0 draws (set by --config, no flag).
    zero_tol        : sup values at or below this count as exact zeros.
    pad_frac        : padding applied to image bounding regions.
    """

    grid_base: float = 0.5
    grid_k_min: int = 2
    grid_k_max: int = 16
    k_max: int = 3
    n_cap: int = 10
    m_probe: int = 5
    r2_min: float = 0.9
    vanish_tol: float = 1e-3
    margin_min: float = 0.01
    seed: int = 0
    zero_tol: float = 1e-13
    pad_frac: float = 0.10

    def __post_init__(self):
        if not 0.0 < self.grid_base < 1.0:
            raise ValueError("grid_base must lie in (0,1)")
        if self.k_max < 1 or self.n_cap < 0 or self.m_probe < 0:
            raise ValueError("k_max >= 1, n_cap >= 0, m_probe >= 0 required")
        if not 0.0 <= self.r2_min <= 1.0:
            raise ValueError("r2_min must lie in [0,1]")

    def grid(self) -> EpsGrid:
        return EpsGrid(self.grid_base, self.grid_k_min, self.grid_k_max)

    def with_updates(self, **kwargs) -> "Config":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "Config":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


DEFAULT_CONFIG = Config()
