"""Rolling-window sweep: correlation matrices, spectra, trees, communities
and lagged coefficients for every (window, q, scale) combination.

Windows are independent work units and run concurrently on a thread pool
(numpy releases the GIL inside the heavy kernels); results are collected
back in window order before anything is written, and every random choice
is seeded from (config seed, window index, scale), so a sweep's output is
byte-identical at any thread count.  A window that fails validation (too
many gap fills, an asset constant inside the window, ...) is recorded in
the skip log and the sweep continues.

Every coefficient is summed from the returns as given (after `global_norm`,
if set) by one function, `_stretch_sums`: the box sums of a stretch of
samples and its lagged pieces.  With blk = gcd(step, width), every window
is a run of whole blk-sample blocks; for each scale with blk % s == 0 the
sweep first sums every block that some window passing the gap-fill check
needs, on the same pool, and each window adds its blocks in order.  Any
other scale sums the window itself as its one stretch.  The zero-variance
and coefficient rules run once, on the window's totals
(`dfa.BoxSums.coefficients`, `dfa.CrossSums.coefficients`).

At lag k a lagged pair is series x's box at sample r against series y's
box at r + k, for r on the stretch's grid (the forward half) and, unless
s divides k, on the grid shifted by -k (the backward half); a window
[start, stop) holds every pair with start <= r and r + k + s <= stop.  A
stretch sums the pairs whose r lies in it with one kernel call for all
lags (`dfa.cross_fluctuation_matrices`), which detrends each box grid
once, reuses the self pass's boxes for the grid from the stretch's
start, and splits the sums by the block in which the partner box ends;
a window adds the pieces whose partner ends inside it, in block order
(`_lag_totals`).  The zero-variance rule reads only what the requested
lags read, and a window that fails it is skipped with a reason that names
the signed lag.  Normalization runs per window only to feed the residual
pass, the one result it changes.

A window's numbers (correlation matrices, spectra, lagged and mean
coefficients) come from `compute_window` on the pool.  Its graphs (trees,
topology rows, partitions) grow per wave of consecutive windows, in the
calling thread (`_grow_graphs`): one lock-step Prim over every (window, q,
s) tree of the wave and one lock-step Louvain over its (window, s)
problems.  Wave w + 1's window jobs go to the pool before wave w's graphs
grow, so the GIL-bound graph loops run beside the numeric work instead of
taking turns with it.  Lock-step changes no bit (`network` notes: each
tree makes its own comparisons, the offset `bincount` adds each problem's
terms in node order, and each problem draws from its own generator), and
a partition's seed is still drawn from (config seed, window index,
scale).  So the outputs are those of one `compute_window` per window, at
any thread count and wave length.

A wave holds its windows' correlation matrices, 8 n^2 bytes each (the
`_graph_keys`: |q| |s| per window with a tree family, |s| with clusters
alone), until its graphs have grown.  Its length is the number of
windows whose matrices fit in `_WAVE_BYTES` = 4 MiB, but at least the
pool's thread count.  While a wave's graphs grow, its distance matrices
take as many bytes again (the Louvain weights no more), and the next
wave's matrices fill in, so the graph inputs alive at once stay under
about 3 x 4 MiB.  The budget is set from two sides:
- A lock-step step makes about 20 numpy calls for all K problems, against
  about 10 per problem alone, so a stack wins from K = 3 or 4 on.  It gains
  little once the per-problem work dominates the call overhead: measured
  on a 2-core VM (in-process medians of 7), Prim at n = 80 took 3.7 ms for
  8 trees one at a time against 1.5 ms stacked, and 12.5 against 3.0 ms
  for 24; at n = 250, 13.3 against 7.2 ms for 8 trees.  A whole Louvain
  of 8 problems at n = 250 took 24.9 against 16.2 ms.
- 4 MiB holds 80 matrices at n = 80, 10 windows of the paper's shape
  (80 trees and 40 Louvain problems per wave), and 8 matrices at n = 250.
  At 8 MiB all six windows of the N = 250 benchmark fell into one wave,
  and its peak RSS rose from 97 to 110 MB; at 4 MiB it rises by about 5%.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import data, network, spectra
from .config import AnalysisConfig
from .data import ReturnMatrix, normalize
from .dfa import cross_fluctuation_matrices
from .errors import ConfigError, QdccaError, ShapeMismatchError, ZeroVarianceError
from .network import SpanningTree
from .spectra import DetrendedCorrelationMatrix

# Bytes of correlation matrices a wave of windows holds for its graphs
# (module notes).
_WAVE_BYTES = 4 << 20

ALL_FAMILIES = ("spectra", "topology", "edges", "clusters", "lagged", "periods")


def rolling_windows(n_samples: int, width: int, step: int) -> list[tuple[int, int]]:
    """(start, stop) sample offsets at 0, step, 2*step, ... while they fit."""
    if width < 1 or step < 1:
        raise ConfigError(f"window width and step must be positive, got {width} and {step}")
    if n_samples < width:
        raise ConfigError(f"series of {n_samples} samples is shorter than one window of {width}")
    return [(s, s + width) for s in range(0, n_samples - width + 1, step)]


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


class SpectralRow(NamedTuple):
    """A window's row of its (q, s) spectra file.  The field names are the
    file's columns after window, end_ts, q and s; the fields with a default
    are the columns that `residual` adds."""

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


class TopologyRow(NamedTuple):
    """A window's row of its (q, s) topology file.  The field names are the
    file's columns after window and end_ts; the fields with a default are
    the columns that `verbose` adds."""

    k_max: int
    hub: str
    mean_path_length: float
    gamma: float | None
    gamma_se: float | None
    mean_path_length_paper_norm: float | None = None
    mean_path_length_weighted: float | None = None


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


def _spectral_row(summary: spectra.SpectralSummary, res) -> SpectralRow:
    """The spectra row of a summary; ``res`` is the residual pass's summary,
    or None without one.  Localization is read from the emitted vectors."""
    v1, v2 = summary.eigenvectors[:, 0], summary.eigenvectors[:, 1]
    residual = {}
    if res is not None:
        r1 = res.eigenvectors[:, 0]
        residual = dict(
            res_lambda1=float(res.eigenvalues[0]),
            res_h1=spectra.shannon_entropy(r1),
            res_v1max=float((r1**2).max()),
        )
    return SpectralRow(
        lambda1=float(summary.eigenvalues[0]),
        lambda2=float(summary.eigenvalues[1]),
        h1=spectra.shannon_entropy(v1),
        h2=spectra.shannon_entropy(v2),
        v1max=float((v1**2).max()),
        v2max=float((v2**2).max()),
        degenerate=summary.degenerate,
        **residual,
    )


def _topology_row(tree: SpanningTree, verbose: bool) -> TopologyRow:
    degrees = tree.degrees()
    mean_path = network.mean_path_length(tree)
    try:
        gamma, se = network.powerlaw_fit(network.degree_distribution(degrees))
    except network.InsufficientSupportError:
        gamma, se = None, None
    extra = {}
    if verbose:
        extra = dict(
            mean_path_length_paper_norm=mean_path / 2.0,
            mean_path_length_weighted=network.mean_path_length(tree, weighted=True),
        )
    return TopologyRow(
        k_max=int(degrees.max()), hub=tree.labels[int(np.argmax(degrees))],
        mean_path_length=mean_path, gamma=gamma, gamma_se=se, **extra,
    )


def _grow_graphs(wave, cfg: AnalysisConfig, families) -> None:
    """Fill in the trees, topology rows and partitions of a wave of windows,
    each a (result, {(q, s): correlation matrix}) pair from `compute_window`:
    one Prim over every tree of the wave, one Louvain over its (window, s)
    problems."""
    if not wave:
        return
    if {"topology", "edges"} & set(families):
        grown = [(result, key, c) for result, held in wave for key, c in held.items()]
        trees = network.minimum_spanning_tree([network.distance_matrix(c) for _, _, c in grown])
        for (result, key, _), tree in zip(grown, trees):
            result.trees[key] = tree
            result.topology[key] = _topology_row(tree, cfg.verbose)
    if "clusters" in families:
        problems = [(result, held, s) for result, held in wave for s in cfg.s]
        seeds = [int(np.random.default_rng([cfg.seed, result.index, int(s)]).integers(2**31))
                 for result, _, s in problems]
        partitions = network.louvain(
            [held[(cfg.q[0], s)] for _, held, s in problems],
            resolution=cfg.resolution, seed=seeds,
        )
        for (result, _, s), partition in zip(problems, partitions):
            result.partitions[s] = partition


def _graph_keys(cfg: AnalysisConfig, families) -> list:
    """The (q, s) of the correlation matrices a window holds for the graph
    phase: every one for the trees, the first q's for clusters alone."""
    if {"topology", "edges"} & set(families):
        return [(q, s) for s in cfg.s for q in cfg.q]
    return [(cfg.q[0], s) for s in cfg.s] if "clusters" in families else []


def _wave_length(n: int, n_windows: int, cfg: AnalysisConfig, families) -> int:
    """How many windows grow their graphs together: as many as hold
    `_WAVE_BYTES` of correlation matrices for the graph phase, and no fewer
    than the pool threads, which the next wave keeps busy meanwhile."""
    held = len(_graph_keys(cfg, families))
    return max(cfg.threads, _WAVE_BYTES // (8 * n * n * held)) if held else n_windows


def gap_fill_skip(returns: ReturnMatrix, start: int, stop: int, max_missing: float):
    """Why samples [start, stop) are skipped for gap fills, or None."""
    if returns.filled is None:
        return None
    frac = float(returns.filled[start:stop].mean())
    if frac > max_missing:
        return f"{frac:.2%} of samples are gap fills (limit {max_missing:.2%})"
    return None


def _normalized(returns: ReturnMatrix) -> ReturnMatrix:
    """Every series at zero mean and unit variance; a constant one raises a
    ZeroVarianceError that names it."""
    out = np.empty_like(returns.values)
    for k, row in enumerate(returns.values):
        try:
            out[k] = normalize(row)
        except ZeroVarianceError as exc:
            name = returns.tickers[k]
            raise ZeroVarianceError(f"{name}: {exc}", label=name) from exc
    return replace(returns, values=out)


def _residual_spectrum(window_returns: ReturnMatrix, q, s, cfg, summary):
    """The spectrum of the residual returns once the leading eigensignal is
    regressed out of every series."""
    z1 = spectra.eigensignal(window_returns, summary.eigenvectors[:, 0])
    res = spectra.residual_returns(window_returns, z1)
    c_res = spectra.correlation_matrices(
        replace(window_returns, values=res.residuals), s, cfg.poly_order, [q]
    )[q]
    return spectra.eigendecompose(c_res)


def _stretch_sums(values, lo: int, hi: int, s: int, cfg: AnalysisConfig, corr: bool, rows):
    """The box sums of samples [lo, hi) of ``values`` at scale s (None
    unless ``corr``) and the lagged pieces of the pairs whose leading box
    starts there, against the ``rows`` anchors (empty without rows)."""
    sums = boxes = None
    if corr:
        sums = spectra.fluctuation_matrices(
            values[:, lo:hi], s, cfg.poly_order, cfg.q, return_boxes=bool(rows)
        )
    if not rows:
        return sums, {}
    if corr:
        sums, boxes = sums
    if (hi - lo) % s:
        boxes = None  # they also tile the stretch backwards
    shifts = sorted({abs(t) for t in cfg.lags if t != 0})
    # A pair that starts in the stretch ends at most max(k) + s - 1 samples past it.
    reach = values[:, lo : hi + shifts[-1] + s - 1]
    return sums, cross_fluctuation_matrices(
        reach, shifts, s, cfg.poly_order, cfg.q, rows, hi - lo, boxes
    )


def _lag_totals(blocks) -> dict:
    """A window's lagged sums per k from its blocks' pieces, in block order:
    every pair whose partner box ends inside the window."""
    totals = {}
    for i, pieces in enumerate(blocks):
        for (k, d), part in sorted(pieces.items()):
            if i + d < len(blocks):
                totals[k] = totals[k] + part if k in totals else part
    return totals


def _anchor_means(lagged: dict, tau: int, s: int, anchors, mats):
    """Record, per q, the mean of each anchor's row of ``mats[q]`` (the
    anchors' coefficients against the other series at lag tau)."""
    for q, mat in mats.items():
        for name, row in zip(anchors, mat):
            lagged.setdefault((name, q, s), {})[tau] = float(row.mean())


def _anchors(tickers, cfg: AnalysisConfig) -> dict:
    return {a: tickers.index(a) for a in cfg.anchors if a in tickers}


def _lag_rows(tickers, cfg: AnalysisConfig, families) -> list:
    """The anchors' rows for the non-zero lags, or [] when none are asked for."""
    if "lagged" in families and any(t != 0 for t in cfg.lags):
        return list(_anchors(tickers, cfg).values())
    return []


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
    shared=None,
    graphs=None,
) -> WindowResult:
    """All requested per-window products; pure function of its arguments.
    A non-finite return in the window raises ShapeMismatchError.

    ``shared`` maps a scale to the `_stretch_sums` of the window's blocks,
    computed ahead (see the module docstring); a scale without them sums
    the window itself as one stretch.  ``graphs``, a dict, is given by a
    sweep that has checked every return once: the window then leaves its
    trees, topology rows and partitions to the sweep, and puts the
    correlation matrices they grow from in ``graphs``, by `_graph_keys`.
    """
    tickers = returns.tickers
    window_returns = ReturnMatrix(
        tickers=tickers, timestamps=returns.timestamps[start:stop],
        values=returns.values[:, start:stop],
    )
    if graphs is None:
        data.check_finite(window_returns.values, tickers, returns.timestamps, start)
    reason = gap_fill_skip(returns, start, stop, cfg.max_missing)
    if reason is not None:
        raise QdccaError(reason)
    result = WindowResult(index=index, end_ts=int(returns.timestamps[stop - 1]))
    need_corr = _needs_correlations(cfg, families)
    rows = _lag_rows(tickers, cfg, families)
    # The lagged family's anchors and the series they are averaged against.
    anchor_idx = _anchors(tickers, cfg) if "lagged" in families else {}
    anchor_rows = list(anchor_idx.values())
    others = np.setdiff1d(np.arange(len(tickers)), anchor_rows)
    residual_input = None
    if cfg.residual and "spectra" in families:
        residual_input = window_returns if cfg.global_norm else _normalized(window_returns)
    shared = shared or {}
    held = {} if graphs is None else graphs
    graph_keys = _graph_keys(cfg, families)
    parts = {
        s: shared.get(s)
        or [_stretch_sums(window_returns.values, 0, stop - start, s, cfg, need_corr, rows)]
        for s in cfg.s
    }
    for s in cfg.s if need_corr else ():
        mats = spectra.correlation_matrices(
            window_returns, s, cfg.poly_order, cfg.q,
            blocks=[sums for sums, _ in parts[s]],
        )
        for q in cfg.q:
            c = mats[q]
            if "periods" in families:
                result.mean_rho[(q, s)] = _mean_offdiagonal(c)
            if "spectra" in families:
                summary = spectra.eigendecompose(c)
                res = None
                if residual_input is not None:
                    res = _residual_spectrum(residual_input, q, s, cfg, summary)
                result.spectral[(q, s)] = _spectral_row(summary, res)
            if (q, s) in graph_keys:
                held[(q, s)] = c
            if 0 in cfg.lags and anchor_idx:
                _anchor_means(result.lagged, 0, s, anchor_idx,
                              {q: c.values[np.ix_(anchor_rows, others)]})
    for s in cfg.s if rows else ():
        # The anchors' heads pair with the others' tails for a positive lag
        # and their tails with the others' heads for a negative one, so both
        # signs come out of one set of sums per |tau|.
        for k, total in _lag_totals([pieces for _, pieces in parts[s]]).items():
            for tau in (k, -k):
                if tau in cfg.lags:
                    _anchor_means(result.lagged, tau, s, anchor_idx,
                                  total.coefficients(tau, others, s, tickers))
    if graphs is None:
        _grow_graphs([(result, held)], cfg, families)
    return result


def run_analysis(
    cfg: AnalysisConfig,
    returns: ReturnMatrix,
    families=ALL_FAMILIES,
) -> SweepResult:
    """Sweep every rolling window; a window's failure is recorded, not
    fatal.  A non-finite return raises ShapeMismatchError."""
    cfg.validate()
    data.check_finite(returns.values, returns.tickers, returns.timestamps)
    if cfg.global_norm:
        returns = _normalized(returns)
    windows = rolling_windows(returns.n_samples, cfg.window, cfg.step)
    results: list[WindowResult] = []
    skipped: list[tuple[int, str]] = []
    blk = math.gcd(cfg.step, cfg.window)
    need_corr = _needs_correlations(cfg, families)
    rows = _lag_rows(returns.tickers, cfg, families)
    shared = [s for s in cfg.s if blk % s == 0]
    # The blocks of each window that passes the gap-fill check.
    spans = {
        index: range(start // blk, stop // blk)
        for index, (start, stop) in enumerate(windows)
        if gap_fill_skip(returns, start, stop, cfg.max_missing) is None
    }
    jobs = [(s, b) for s in shared for b in sorted(set().union(*spans.values()))]

    def block_sums(job):
        s, b = job
        return _stretch_sums(returns.values, b * blk, (b + 1) * blk, s, cfg, need_corr, rows)

    def worker(item):
        index, (start, stop) = item
        blocks = {s: [sums[s, b] for b in spans[index]] for s in shared} if index in spans else {}
        held = {}
        try:
            return compute_window(returns, start, stop, index, cfg, families, blocks,
                                  graphs=held), held
        except QdccaError as exc:
            return index, str(exc)

    width = _wave_length(len(returns.tickers), len(windows), cfg, families)
    items = list(enumerate(windows))
    waves = [items[lo : lo + width] for lo in range(0, len(items), width)]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        # At one pool thread the work runs in the calling thread.
        run = pool.map if cfg.threads > 1 else map
        sums = dict(zip(jobs, run(block_sums, jobs)))
        pending = run(worker, waves[0])
        for following in waves[1:] + [[]]:
            done = list(pending)
            # The next wave's windows run on the pool while this one's graphs grow.
            pending = run(worker, following)
            grown = [o for o in done if isinstance(o[0], WindowResult)]
            _grow_graphs(grown, cfg, families)
            results += [result for result, _ in grown]
            skipped += [o for o in done if not isinstance(o[0], WindowResult)]
            del done, grown  # the wave's matrices go before the next wave is awaited
    return SweepResult(
        windows=results,
        skipped=skipped,
        tickers=returns.tickers,
        n_windows_planned=len(windows),
    )
