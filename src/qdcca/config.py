"""Analysis configuration: defaults, file parsing and validation.

The config file is INI-style; keys are grouped into sections but every key
name matches its CLI flag one-to-one, so either source can set any value.

    [analysis]
    q = 1, 4
    s = 10, 60, 180, 360
    poly_order = 2
    residual = false
    lags = -1, 0, 1
    threshold = 0.25
    resolution = 1.0

    [window]
    window = 10080
    step = 1440

    [data]
    base =
    anchors = BTC, ETH
    grid = uniform
    stable_threshold = 1e-6
    max_missing = 0.01
    global_norm = false

    [run]
    seed = 0
    threads = 1
    verbose = false
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}

# Execution-only knobs: they never change results, so they stay out of the
# manifest and its hash (outputs must be byte-identical at any thread count).
# verbose stays in: it widens the topology schema.
_EXECUTION_KEYS = ("threads",)


@dataclass(frozen=True)
class AnalysisConfig:
    q: tuple[float, ...] = (1.0, 4.0)
    s: tuple[int, ...] = (10, 60, 180, 360)
    poly_order: int = 2
    window: int = 10_080
    step: int = 1_440
    base: str | None = None
    residual: bool = False
    lags: tuple[int, ...] = (-1, 0, 1)
    threshold: float = 0.25
    anchors: tuple[str, ...] = ("BTC", "ETH")
    resolution: float = 1.0
    grid: str = "uniform"
    stable_threshold: float = 1e-6
    max_missing: float = 0.01
    global_norm: bool = False
    seed: int = 0
    threads: int = 1
    verbose: bool = False

    def validate(self) -> "AnalysisConfig":
        if not self.q or any(not (qv > 0) for qv in self.q):
            raise ConfigError(f"q values must be positive, got {self.q}")
        if not self.s or any(sv < self.poly_order + 2 for sv in self.s):
            raise ConfigError(
                f"every scale must be >= poly_order + 2 = {self.poly_order + 2}, got {self.s}"
            )
        if self.window < 2 * max(self.s):
            raise ConfigError(
                f"window of {self.window} samples is too short for scale "
                f"{max(self.s)}: need at least {2 * max(self.s)}"
            )
        if self.step < 1:
            raise ConfigError(f"step must be >= 1, got {self.step}")
        if self.poly_order < 0:
            raise ConfigError(f"poly_order must be >= 0, got {self.poly_order}")
        if any(abs(t) > self.window - 2 * max(self.s) for t in self.lags if t != 0):
            raise ConfigError(
                f"lags {self.lags} leave too little overlap for window "
                f"{self.window} at scale {max(self.s)}"
            )
        if self.grid not in ("uniform", "intersection"):
            raise ConfigError(f"grid must be 'uniform' or 'intersection', got {self.grid!r}")
        if not (0.0 <= self.max_missing <= 1.0):
            raise ConfigError(f"max_missing must be in [0, 1], got {self.max_missing}")
        if self.resolution <= 0:
            raise ConfigError(f"resolution must be positive, got {self.resolution}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        return self

    def semantic_dict(self) -> dict:
        """Everything that can influence output values, flags excluded."""
        out = {}
        for f in fields(self):
            if f.name in _EXECUTION_KEYS:
                continue
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_list(raw: str, conv):
    return tuple(conv(tok.strip()) for tok in raw.split(",") if tok.strip())


_PARSERS = {
    "q": lambda v: _parse_list(v, float),
    "s": lambda v: _parse_list(v, int),
    "poly_order": int,
    "window": int,
    "step": int,
    "base": lambda v: v.strip() or None,
    "residual": lambda v: _parse_bool("residual", v),
    "lags": lambda v: _parse_list(v, int),
    "threshold": float,
    "anchors": lambda v: _parse_list(v, str),
    "resolution": float,
    "grid": str.strip,
    "stable_threshold": float,
    "max_missing": float,
    "global_norm": lambda v: _parse_bool("global_norm", v),
    "seed": int,
    "threads": int,
    "verbose": lambda v: _parse_bool("verbose", v),
}

CONFIG_KEYS = tuple(_PARSERS)


def load_config(path: str) -> AnalysisConfig:
    """Parse an INI config file; unknown keys are rejected."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _PARSERS:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            if key in values:
                raise ConfigError(f"config key {key!r} set more than once")
            try:
                values[key] = _PARSERS[key](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    return AnalysisConfig(**values)


def apply_overrides(cfg: AnalysisConfig, overrides: dict) -> AnalysisConfig:
    """Overlay non-None CLI values onto a config."""
    clean = {k: v for k, v in overrides.items() if v is not None}
    unknown = set(clean) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return replace(cfg, **clean)
