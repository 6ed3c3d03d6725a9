"""Analysis configuration: defaults, file parsing and validation.

Each setting is declared once, as an `AnalysisConfig` field: its default,
the parser that both its INI value and its CLI argument go through, and its
``--help`` text.  `load_config` and the CLI read those fields, so every key
name matches its flag one-to-one (``poly_order`` is ``--poly-order``) and
either source can set any value; flags override the file.  A boolean's flag
comes in two forms, ``--residual`` and ``--no-residual``, so a flag can also
undo a file's ``true``.  Lists are comma-separated, and ``q``, ``s``,
``lags`` and ``anchors`` reject a repeated value.  Float settings reject
nan and inf, which would otherwise run silently (a nan threshold finds no
period).  ``stable_threshold`` may not be negative, which would keep every
series just as 0 does.  An empty ``base`` means no re-basing.

The config file is INI-style; keys are grouped into sections, which are
only for the reader (any key may sit in any section):

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
import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError

# Execution-only knobs: they never change results, so they stay out of the
# manifest and its hash (outputs must be byte-identical at any thread count).
# verbose stays in: it widens the topology schema.
_EXECUTION_KEYS = ("threads",)


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def finite_float(raw: str) -> float:
    """A float setting: nan and inf are rejected, not read as numbers."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw.strip()}")
    return value


def comma_list(conv):
    """A parser of comma-separated ``conv`` values; blank items are skipped."""

    def parse(raw: str) -> tuple:
        return tuple(conv(tok.strip()) for tok in raw.split(",") if tok.strip())

    return parse


def _setting(default, parse, help_text: str):
    return field(default=default, metadata={"parse": parse, "help": help_text})


@dataclass(frozen=True)
class AnalysisConfig:
    q: tuple[float, ...] = _setting((1.0, 4.0), comma_list(finite_float),
                                    "comma list of q exponents")
    s: tuple[int, ...] = _setting((10, 60, 180, 360), comma_list(int),
                                  "comma list of scales (minutes)")
    poly_order: int = _setting(2, int, "detrending polynomial order")
    window: int = _setting(10_080, int, "window width in samples")
    step: int = _setting(1_440, int, "window step in samples")
    base: str | None = _setting(None, lambda raw: raw.strip() or None,
                                "re-base prices to this ticker (e.g. BTC)")
    residual: bool = _setting(False, _parse_bool,
                              "also compute the residual pass (leading mode removed)")
    lags: tuple[int, ...] = _setting((-1, 0, 1), comma_list(int), "comma list of lags in samples")
    threshold: float = _setting(0.25, finite_float, "threshold for period detection")
    anchors: tuple[str, ...] = _setting(("BTC", "ETH"), comma_list(str),
                                        "comma list of anchor tickers for lag and cluster outputs")
    resolution: float = _setting(1.0, finite_float, "community detection resolution")
    grid: str = _setting("uniform", str.strip,
                         "gap policy: 'uniform' (minute grid with zero fills) or "
                         "'intersection' (contiguous re-indexing of the common samples)")
    stable_threshold: float = _setting(1e-6, finite_float,
                                       "exclude assets whose return std is below this")
    max_missing: float = _setting(0.01, finite_float,
                                  "skip windows with a larger gap-fill fraction")
    global_norm: bool = _setting(False, _parse_bool,
                                 "normalize once over the full series instead of per window")
    seed: int = _setting(0, int, "seed for all seeded choices")
    threads: int = _setting(1, int, "worker threads over windows")
    verbose: bool = _setting(False, _parse_bool,
                             "emit extra columns (both path-length conventions)")

    def validate(self) -> "AnalysisConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ConfigError(f"{f.name} must be finite, got {value}")
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
        if self.stable_threshold < 0:
            raise ConfigError(f"stable_threshold must be >= 0, got {self.stable_threshold}")
        if not (0.0 <= self.max_missing <= 1.0):
            raise ConfigError(f"max_missing must be in [0, 1], got {self.max_missing}")
        if self.resolution <= 0:
            raise ConfigError(f"resolution must be positive, got {self.resolution}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        for key in ("q", "s", "lags", "anchors"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise ConfigError(f"{key} repeats a value: {values}")
        if bad := [a for a in self.anchors if not a or "/" in a or os.sep in a]:
            raise ConfigError(f"anchor {bad[0]!r} cannot name its output files: "
                              "it is empty or holds a path separator")
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


CONFIG_KEYS = tuple(f.name for f in fields(AnalysisConfig))
_PARSE = {f.name: f.metadata["parse"] for f in fields(AnalysisConfig)}


def parse_setting(key: str, raw: str, source: str):
    """The value of setting ``key`` from its text; a value its parser rejects
    raises `ConfigError` naming ``source`` (a file's key or a flag)."""
    try:
        return _PARSE[key](raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str) -> AnalysisConfig:
    """Parse an INI config file; unknown keys are rejected."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:  # its message names the file and line
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if parser.defaults():  # they would be ignored alone and repeat into every section
        raise ConfigError(f"{path}: keys under [{parser.default_section}] are not supported")
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _PARSE:
                raise ConfigError(f"{path}: unknown config key {key!r} in [{section}]")
            if key in values:
                raise ConfigError(f"{path}: config key {key!r} set more than once")
            values[key] = parse_setting(key, raw, f"{path}: {key}")
    return AnalysisConfig(**values)
