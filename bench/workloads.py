"""Benchmark workloads: settings, inputs made from a seed, and the outcome
each input must produce.

Every input comes from ``qdcca.synth``.  Gaps are planted on top of the
synthetic quotes, so the windows the sweep must skip are known before it
runs and the checks need no stored reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from qdcca.config import AnalysisConfig
from qdcca.data import QuoteSeries
from qdcca.pipeline import ALL_FAMILIES
from qdcca.synth import GeneratorSpec, synth_quotes

# Spans every traced workload must record (see spans.SPANS for the names).
_COMMON_SPANS = (
    "data.align", "pipeline.run_analysis", "pipeline.window", "dfa.fluct",
    "spectra.corr", "spectra.eigh", "network.distance", "network.mst",
    "network.path", "network.powerlaw", "emit.write", "emit.csv",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: GeneratorSpec
    cfg: AnalysisConfig
    families: tuple[str, ...]
    expected_spans: tuple[str, ...]
    from_files: bool = False  # quotes are written as CSVs and read back


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep80",
            why="the paper's study shape (N=80, q=1,4, lags, all families): "
                "the dfa kernel, signed power, lagged pass and window threading dominate",
            spec=GeneratorSpec("factor", 80, 17_280,
                               {"beta": 1.0, "sigma": 1.0, "response_spread": 30}),
            cfg=AnalysisConfig(q=(1.0, 4.0), s=(10, 60), lags=(-1, 0, 1),
                               anchors=("SYN00", "SYN01"), threads=2),
            families=ALL_FAMILIES,
            expected_spans=_COMMON_SPANS + (
                "dfa.cross", "network.louvain", "network.louvain_level"),
        ),
        Workload(
            name="universe250",
            why="N=250 daily windows at q=2: the pure-Python network layer "
                "(Louvain, path lengths, Prim) dominates; no signed power, no lagged pass",
            spec=GeneratorSpec("blocks", 250, 8_640,
                               {"sizes": [50] * 5, "within": 0.4, "across": 0.1}),
            cfg=AnalysisConfig(q=(2.0,), s=(30, 120), window=1_440, step=1_440,
                               lags=(0,), anchors=("SYN00", "SYN01"),
                               verbose=True, threads=2),
            families=ALL_FAMILIES,
            expected_spans=_COMMON_SPANS + ("network.louvain", "network.louvain_level"),
        ),
        Workload(
            name="ingest_gappy",
            why="the CLI path from per-ticker CSVs, single-threaded: parsing, "
                "re-basing, peg exclusion, gap skips and the q=2 kernel with residuals",
            spec=GeneratorSpec("factor", 40, 21_600,
                               {"beta": 1.0, "sigma": 1.0, "response_spread": 30}),
            cfg=AnalysisConfig(q=(2.0,), s=(10, 60, 180, 360), base="SYN00",
                               residual=True, lags=(0,), anchors=("SYN01", "SYN02"),
                               threads=1),
            families=("spectra", "edges", "lagged", "periods"),
            expected_spans=_COMMON_SPANS + ("data.load", "spectra.residual"),
            from_files=True,
        ),
    )
}

PEG = "USDX"             # constant-price ticker added to the file workload
OUTAGE_MINUTES = 120     # shared outage: every ticker misses these minutes
OUTAGE_WINDOW = 3        # windows 0..OUTAGE_WINDOW contain the whole outage
DROP_FRACTION = 5e-5     # each ticker also misses this share of its minutes


@dataclass
class Inputs:
    """What one seed of a workload hands the pipeline, and what must come out."""

    quotes: list[QuoteSeries] | None  # in-memory quotes, or None when read from csv_dir
    csv_dir: str | None
    n_windows: int
    skipped: frozenset[int]          # window indices the sweep must skip
    excluded: frozenset[str]         # tickers ingestion must drop
    retained: tuple[str, ...]        # tickers left in the return matrix


def _n_windows(n_returns: int, cfg: AnalysisConfig) -> int:
    return (n_returns - cfg.window) // cfg.step + 1


def make_inputs(wl: Workload, seed: int, work_dir: str) -> Inputs:
    """Generate the seed's inputs; file workloads write CSVs under work_dir."""
    quotes = synth_quotes(wl.spec, seed)
    tickers = tuple(q.ticker for q in quotes)
    n_windows = _n_windows(wl.spec.n_samples, wl.cfg)
    if not wl.from_files:
        return Inputs(quotes, None, n_windows, frozenset(), frozenset(), tickers)
    quotes, skipped = _plant_gaps(quotes, wl.cfg, seed)
    csv_dir = os.path.join(work_dir, f"quotes_{seed}")
    os.makedirs(csv_dir)
    for qs in quotes:
        with open(os.path.join(csv_dir, f"{qs.ticker}.csv"), "w") as fh:
            fh.write("timestamp,price\n")
            fh.writelines(
                f"{t},{p!r}\n" for t, p in zip(qs.timestamps.tolist(), qs.prices.tolist())
            )
            # Write back now: a flush during the timed passes slows them.
            fh.flush()
            os.fsync(fh.fileno())
    base = wl.cfg.base
    return Inputs(
        quotes=None,
        csv_dir=csv_dir,
        n_windows=n_windows,
        skipped=skipped,
        excluded=frozenset({base, PEG}),
        retained=tuple(t for t in tickers if t != base),
    )


def _plant_gaps(quotes: list[QuoteSeries], cfg: AnalysisConfig, seed: int):
    """Drop a few random minutes per ticker plus one shared outage, add a
    constant-price peg, and predict which windows exceed max_missing.

    The first and last minute are never dropped, so the minute grid and the
    window count stay those of the gap-free input.
    """
    rng = np.random.default_rng([seed, 1])
    n_prices = quotes[0].timestamps.size
    start = OUTAGE_WINDOW * cfg.step + int(rng.integers(0, cfg.step - OUTAGE_MINUTES))
    outage = np.arange(start, start + OUTAGE_MINUTES)
    n_drop = max(1, round(DROP_FRACTION * n_prices))
    peg = QuoteSeries(PEG, quotes[0].timestamps, np.ones(n_prices))
    gapped, missing = [], set(outage.tolist())
    for qs in [*quotes, peg]:
        drop = set(outage.tolist())
        drop.update(rng.choice(np.arange(1, n_prices - 1), n_drop, replace=False).tolist())
        if qs.ticker != PEG:  # the peg is excluded before alignment
            missing |= drop
        keep = np.setdiff1d(np.arange(n_prices), sorted(drop))
        gapped.append(QuoteSeries(qs.ticker, qs.timestamps[keep], qs.prices[keep]))
    # Return k (minute k + 1) is a zero fill when price minute k + 1 is missing.
    filled = np.zeros(n_prices - 1, dtype=bool)
    filled[np.array(sorted(missing)) - 1] = True
    skipped = frozenset(
        k for k in range(_n_windows(n_prices - 1, cfg))
        if filled[k * cfg.step : k * cfg.step + cfg.window].mean() > cfg.max_missing
    )
    return gapped, skipped
