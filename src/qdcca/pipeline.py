"""Rolling-window sweep: correlation matrices, spectra, trees, communities
and lagged coefficients for every (window, q, scale) combination.

Windows are independent work units and run concurrently on a thread pool
(numpy releases the GIL inside the heavy kernels); results are collected
back in window order before anything is written, and every random choice
is seeded from (config seed, window index), so a sweep's output is
byte-identical at any thread count.  A window that fails validation (too
many gap fills, an asset constant inside the window, ...) is recorded in
the skip log and the sweep continues.

Overlapping windows share their detrended boxes.  With blk = gcd(step,
width), every window is a run of whole blk-sample blocks of the return
matrix.  A scale s is block-eligible when blk % s == 0 and the fit order
m >= 1: the coefficient is invariant under a per-series affine map for
m >= 1, so the raw returns can stand in for each window's normalized ones,
and the window's boxes are exactly the s-tilings of its blocks.  For each
eligible s the sweep first computes the box sums of every block that some
window passing the gap-fill check needs (`spectra.fluctuation_matrices`,
one block at a time, on the same pool, collected in block order); each
window then adds its blocks in order, and the zero-variance, diagonal and
bound checks run on the window's totals (`spectra.correlation_matrices`).
Any other (s, m) is one block per window: the window's normalized values.
The lagged and residual passes stay per window; a window where a series'
lagged overlap has zero detrended variance is skipped, as in the self path.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import network, spectra
from .config import AnalysisConfig
from .data import ReturnMatrix, normalize
from .dfa import cross_fluctuation_matrices
from .errors import ConfigError, QdccaError, ShapeMismatchError
from .network import SpanningTree
from .spectra import DetrendedCorrelationMatrix

ALL_FAMILIES = ("spectra", "topology", "edges", "clusters", "lagged", "periods")


@dataclass(frozen=True)
class WindowPlan:
    width: int = 10_080
    step: int = 1_440


def rolling_windows(n_samples: int, plan: WindowPlan) -> list[tuple[int, int]]:
    """(start, stop) sample offsets at 0, step, 2*step, ... while they fit."""
    if plan.width < 1 or plan.step < 1:
        raise ConfigError(f"window plan must be positive, got {plan}")
    if n_samples < plan.width:
        raise ConfigError(
            f"series of {n_samples} samples is shorter than one window of {plan.width}"
        )
    starts = range(0, n_samples - plan.width + 1, plan.step)
    return [(s, s + plan.width) for s in starts]


def threshold_periods(points, threshold: float) -> list[tuple[int, int]]:
    """Maximal runs of (timestamp, value) pairs with value > threshold."""
    periods = []
    run_start = None
    prev_ts = None
    for ts, value in points:
        if prev_ts is not None and ts <= prev_ts:
            raise ShapeMismatchError("threshold input must be chronologically sorted")
        prev_ts = ts
        if value > threshold:
            if run_start is None:
                run_start = ts
            run_end = ts
        elif run_start is not None:
            periods.append((run_start, run_end))
            run_start = None
    if run_start is not None:
        periods.append((run_start, run_end))
    return periods


@dataclass
class SpectralRow:
    lambda1: float
    lambda2: float
    h1: float
    h2: float
    v1max: float
    v2max: float
    degenerate: bool
    res_lambda1: float | None = None
    res_h1: float | None = None
    res_v1max: float | None = None


@dataclass
class TopologyRow:
    k_max: int
    hub: str
    mean_path: float
    gamma: float | None
    gamma_se: float | None
    mean_path_paper: float | None = None
    mean_path_weighted: float | None = None


@dataclass
class WindowResult:
    index: int
    end_ts: int
    spectral: dict = field(default_factory=dict)   # (q, s) -> SpectralRow
    topology: dict = field(default_factory=dict)   # (q, s) -> TopologyRow
    trees: dict = field(default_factory=dict)      # (q, s) -> SpanningTree
    partitions: dict = field(default_factory=dict) # s -> network.Partition
    lagged: dict = field(default_factory=dict)     # (anchor, q, s) -> {tau: mean rho}
    mean_rho: dict = field(default_factory=dict)   # (q, s) -> mean off-diagonal


@dataclass
class SweepResult:
    windows: list[WindowResult]
    skipped: list[tuple[int, str]]
    tickers: tuple[str, ...]
    n_windows_planned: int


def _mean_offdiagonal(c: DetrendedCorrelationMatrix) -> float:
    n = c.dim
    return float((c.values.sum() - np.trace(c.values)) / (n * (n - 1)))


def _spectral_row(summary: spectra.SpectralSummary) -> SpectralRow:
    return SpectralRow(
        lambda1=float(summary.eigenvalues[0]),
        lambda2=float(summary.eigenvalues[1]),
        h1=float(summary.entropies[0]),
        h2=float(summary.entropies[1]),
        v1max=float(summary.max_components[0]),
        v2max=float(summary.max_components[1]),
        degenerate=summary.degenerate,
    )


def _topology_row(tree: SpanningTree, verbose: bool) -> TopologyRow:
    degrees = tree.degrees()
    k_max = int(degrees.max())
    hub = tree.labels[int(np.argmax(degrees))]
    mean_path = network.mean_path_length(tree)
    try:
        gamma, se = network.powerlaw_fit(network.degree_distribution(tree))
    except network.InsufficientSupportError:
        gamma, se = None, None
    row = TopologyRow(
        k_max=k_max, hub=hub, mean_path=mean_path, gamma=gamma, gamma_se=se
    )
    if verbose:
        row.mean_path_paper = mean_path / 2.0
        row.mean_path_weighted = network.mean_path_length(tree, weighted=True)
    return row


def gap_fill_skip(returns: ReturnMatrix, start: int, stop: int, max_missing: float):
    """Why samples [start, stop) are skipped for gap fills, or None."""
    if returns.filled is None:
        return None
    frac = float(returns.filled[start:stop].mean())
    if frac > max_missing:
        return f"{frac:.2%} of samples are gap fills (limit {max_missing:.2%})"
    return None


def _window_values(returns: ReturnMatrix, start: int, stop: int, cfg: AnalysisConfig):
    reason = gap_fill_skip(returns, start, stop, cfg.max_missing)
    if reason is not None:
        raise QdccaError(reason)
    sliced = returns.values[:, start:stop]
    if cfg.global_norm:
        return sliced
    out = np.empty_like(sliced)
    for k in range(sliced.shape[0]):
        try:
            out[k] = normalize(sliced[k])
        except QdccaError as exc:
            raise QdccaError(f"{returns.tickers[k]}: {exc}") from exc
    return out


def _residual_fields(window_returns: ReturnMatrix, q, s, cfg, row: SpectralRow, summary):
    values = window_returns.values
    z1 = spectra.eigensignal(values, summary.eigenvectors[:, 0])
    res = spectra.residual_returns(values, z1)
    c_res = spectra.correlation_matrices(
        replace(window_returns, values=res.residuals), s, cfg.poly_order, [q]
    )[q]
    res_summary = spectra.eigendecompose(c_res)
    row.res_lambda1 = float(res_summary.eigenvalues[0])
    row.res_h1 = float(res_summary.entropies[0])
    row.res_v1max = float(res_summary.max_components[0])


def _lagged_rows(values, tickers, anchor_idx, other_mask, q_values, s, cfg):
    """Mean coefficient of each anchor against all non-anchor assets for
    every non-zero lag, sharing one detrending pass per |tau|.

    The anchor series truncated at the late end pairs with the others
    truncated at the early end for a positive lag, and the other way
    around for a negative one, so both signs come out of one head/tail
    detrending of the window.
    """
    pos = {t for t in cfg.lags if t > 0}
    neg = {-t for t in cfg.lags if t < 0}
    rows: dict = {}
    for k in sorted(pos | neg):
        cross = cross_fluctuation_matrices(
            values[:, :-k], values[:, k:], s, cfg.poly_order, q_values,
            rows=list(anchor_idx.values()), labels=tickers,
        )
        for q, (f_rows, f_cols, f_head, f_tail) in cross.items():
            for i, (name, a) in enumerate(anchor_idx.items()):
                if k in pos:
                    rho = f_rows[i, other_mask] / np.sqrt(
                        f_head[a] * f_tail[other_mask]
                    )
                    rows.setdefault((name, q), {})[k] = float(rho.mean())
                if k in neg:
                    rho = f_cols[other_mask, i] / np.sqrt(
                        f_tail[a] * f_head[other_mask]
                    )
                    rows.setdefault((name, q), {})[-k] = float(rho.mean())
    return rows


def _needs_correlations(cfg: AnalysisConfig, families) -> bool:
    return bool({"spectra", "topology", "edges", "clusters", "periods"} & set(families)) or (
        "lagged" in families and 0 in cfg.lags
    )


def compute_window(
    returns: ReturnMatrix,
    start: int,
    stop: int,
    index: int,
    cfg: AnalysisConfig,
    families,
    blocks=None,
) -> WindowResult:
    """All requested per-window products; pure function of its arguments.

    ``blocks`` maps a scale to the window's block sums computed ahead (see
    the module docstring); a scale without them is one block of the
    window's normalized values.
    """
    values = _window_values(returns, start, stop, cfg)
    tickers = returns.tickers
    result = WindowResult(index=index, end_ts=int(returns.timestamps[stop - 1]))
    need_corr = _needs_correlations(cfg, families)
    blocks = blocks or {}
    anchor_idx = {a: tickers.index(a) for a in cfg.anchors if a in tickers}
    other_mask = np.ones(len(tickers), dtype=bool)
    for a in anchor_idx.values():
        other_mask[a] = False
    window_returns = ReturnMatrix(
        tickers=tickers, timestamps=returns.timestamps[start:stop], values=values
    )
    for s in cfg.s if need_corr else ():
        mats = spectra.correlation_matrices(
            window_returns, s, cfg.poly_order, cfg.q, window=index, blocks=blocks.get(s)
        )
        for q in cfg.q:
            c = mats[q]
            if "periods" in families:
                result.mean_rho[(q, s)] = _mean_offdiagonal(c)
            if "spectra" in families:
                summary = spectra.eigendecompose(c)
                row = _spectral_row(summary)
                if cfg.residual:
                    _residual_fields(window_returns, q, s, cfg, row, summary)
                result.spectral[(q, s)] = row
            if {"topology", "edges"} & set(families):
                tree = network.minimum_spanning_tree(
                    network.distance_matrix(c), rho=c.values
                )
                result.trees[(q, s)] = tree
                result.topology[(q, s)] = _topology_row(tree, cfg.verbose)
            if "lagged" in families and 0 in cfg.lags and anchor_idx:
                for name, a in anchor_idx.items():
                    rho_row = c.values[a, other_mask]
                    result.lagged.setdefault((name, q, s), {})[0] = float(rho_row.mean())
        if "clusters" in families:
            seed = np.random.default_rng([cfg.seed, index, int(s)]).integers(2**31)
            result.partitions[s] = network.louvain(
                mats[cfg.q[0]], resolution=cfg.resolution, seed=int(seed)
            )
    if "lagged" in families and anchor_idx and any(t != 0 for t in cfg.lags):
        for s in cfg.s:
            rows = _lagged_rows(values, tickers, anchor_idx, other_mask, cfg.q, s, cfg)
            for (name, q), taus in rows.items():
                result.lagged.setdefault((name, q, s), {}).update(taus)
    return result


def run_analysis(
    cfg: AnalysisConfig,
    returns: ReturnMatrix,
    families=ALL_FAMILIES,
) -> SweepResult:
    """Sweep every rolling window; failures are recorded, not fatal."""
    cfg.validate()
    plan = WindowPlan(width=cfg.window, step=cfg.step)
    if cfg.global_norm:
        returns = replace(returns, values=np.stack([normalize(row) for row in returns.values]))
    windows = rolling_windows(returns.n_samples, plan)
    results: list[WindowResult] = []
    skipped: list[tuple[int, str]] = []
    blk = math.gcd(cfg.step, cfg.window)
    shared = [
        s for s in cfg.s
        if blk % s == 0 and cfg.poly_order >= 1 and _needs_correlations(cfg, families)
    ]
    # The blocks of each window that passes the gap-fill check.
    spans = {
        index: range(start // blk, stop // blk)
        for index, (start, stop) in enumerate(windows)
        if gap_fill_skip(returns, start, stop, cfg.max_missing) is None
    }
    jobs = [(s, b) for s in shared for b in sorted(set().union(*spans.values()))]

    def block_sums(job):
        s, b = job
        stretch = returns.values[:, b * blk : (b + 1) * blk]
        return spectra.fluctuation_matrices(stretch, s, cfg.poly_order, cfg.q)

    def worker(item):
        index, (start, stop) = item
        blocks = {}
        if index in spans:
            blocks = {s: [sums[s, b] for b in spans[index]] for s in shared}
        try:
            return compute_window(returns, start, stop, index, cfg, families, blocks)
        except QdccaError as exc:
            return (index, str(exc))

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        # At one pool thread the work runs in the calling thread.
        run = pool.map if cfg.threads > 1 else map
        sums = dict(zip(jobs, run(block_sums, jobs)))
        outcomes = list(run(worker, enumerate(windows)))
    for outcome in outcomes:
        if isinstance(outcome, WindowResult):
            results.append(outcome)
        else:
            skipped.append(outcome)
    return SweepResult(
        windows=results,
        skipped=skipped,
        tickers=returns.tickers,
        n_windows_planned=len(windows),
    )
