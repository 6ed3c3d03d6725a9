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
sweep sums each block that a window passing the gap-fill check needs once,
in the first wave that needs it (below), and each window adds its blocks in
order.  Any other scale sums the window itself as its one stretch.  The
zero-variance and coefficient rules run once, on the window's totals
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
the signed lag.  Each window's stds feed only the residual pass's
eigensignal weights.

The sweep is one loop over waves of consecutive windows.  A wave drops
the held block sums below its first window (no later window reads them),
sums on the pool the blocks its windows need that are not held, and runs
its windows on the pool (`compute_window`: correlation matrices, lagged
and mean coefficients).  Then it queues on the pool one graph job, which
grows every graph of the wave (`_grow_graphs`: trees, topology rows,
partitions) with one lock-step Prim over every (window, q, s) tree and
one lock-step Louvain over the (window, s) problems, and after it one
spectra job per window (`_window_spectra`: eigendecompositions and the
residual pass).  The pool takes jobs in order, so one thread grows the
graphs while the others run the spectra, whose `eigh` releases the GIL,
and joins them when it is done.  The graph job runs on the pool and not
in the calling thread: beside two spectra threads that would put three
runnable threads on two cores, and the graph loops, which hold the GIL
between small numpy calls, would take turns with both (README).  The
next wave waits for every job of this one.  Lock-step changes no bit
(`network` notes: each tree makes its own comparisons, the offset
`bincount` adds each problem's terms in node order, and each problem
draws from its own generator), so the outputs are those of one-window
waves at any wave length.

A wave holds all |q| |s| correlation matrices of each window, whatever
the families (8 n^2 bytes each), until its graphs and spectra are done;
it has as many windows as fit in `_WAVE_BYTES` = 4 MiB, and at least the
pool's threads.  With their distance matrices (the Louvain weights take no
more) the graph inputs alive at once stay under 2 x 4 MiB, and the block
sums held cover one wave's span at most.  Two sides set the budget:
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
With `residual` at q = 2 and m = poly_order >= 1, each window of a wave
also holds its q = 2 power sum per scale for the residual pass (below),
one more n^2 matrix per s, which the budget does not count.

The residual pass regresses each series x_i of the window, as the sweep
summed it, on the eigensignal z = w . x with weights w = v1 / sigma, and
correlates the residuals r = x - alpha z - beta.  sigma are the window's
stds (`_stds`), or 1 under `global_norm`, whose returns `_normalized`
normalizes once over the span.  That is the regression of each
window-normalized series xn_i = (x_i - mean x_i) / sigma_i on v1 . xn,
times sigma_i: w . x and v1 . xn differ by a constant, which the
intercepts absorb, and rho_q ignores each series' positive scale.  At
q = 2 and m >= 1 the residual matrix needs no second kernel pass
(`_residual_closed_form`).  Detrending is linear, and at m >= 1 it removes
the ramp that a constant beta_i leaves in a box profile, so the detrended
boxes of r are A D, with D those of x and A = I - alpha w^T.  Summed over
the boxes, the residual power sum is P = A G A^T, with G the window's
q = 2 power sum that `compute_window` has just added up: O(N^3) per
matrix instead of a pass over N x W samples.  Both products are einsums,
whose bits do not follow the BLAS thread count.  At q != 2 the box powers
do not factor, and at m = 0 the ramps stay, so there the kernel runs
again on the residual returns over sigma (a normalized window's float
range).  Only that path forms r: the closed form reads alpha alone, and
`spectra.ResidualReturns.residuals` is formed when read.

The guard sends a matrix to the kernel unless three things hold.  The
first two compare quantities of one series that a scale moves alike.
- Rounding.  Let u = 2**-53, Abar = I + |alpha w^T| (entrywise >= |A|)
  and reach_i = sum_k Abar_ik sqrt(G_kk).  Forming A (w, the product, the
  difference) costs at most three roundings per entry, relative to Abar; a
  product of N terms errs by at most gamma_N = N u / (1 - N u) times the
  product of the magnitudes; and |G_kl| <= sqrt(G_kk G_ll), G being a sum
  of Grams (to a factor 1 + O(W u)).  So the computed P' has
  |P'_ij - P_ij| <= kappa reach_i reach_j with kappa = 2 (N + 3) u + O(u^2),
  taken here as (N + 4) eps (eps = 2u).  With t_i = kappa reach_i^2 / P_ii,
  rho_ij = P_ij / sqrt(P_ii P_jj) moves by at most t_i + t_j to first order
  (|rho| <= 1).  The guard asks kappa reach_i^2 <= 2.5e-12 P'_ii for every
  i, so no residual coefficient moves by more than 5e-12 + O(u) < 1e-11.
  It trips where the residuals are mostly cancellation (a series that the
  leading mode explains almost fully): there the closed form's error
  grows like 1/noise^2 and the kernel's like 1/noise.
- The zero-variance rule.  The closed form has the residual energies
  P_ii but not the residual profile energies that the rule compares them
  with.  A box profile p_j = r_2 + ... + r_j has p_j^2 <= (j - 1) times the
  box's sum of r^2 (Cauchy-Schwarz), so a box's profile energy is at most
  s (s - 1) / 2 times that sum, and every sample lies in at most two boxes
  (forward and backward tilings): the profile energy is at most
  s^2 sum_t r_t^2.  That sum needs no r either.  Least squares with an
  intercept minimises sum_t (x_t - a z_t - b)^2 over (a, b), and
  (0, mean x) is a candidate, so at the optimum
  sum_t r_t^2 <= sum_t (x_t - mean x)^2 <= E_i = sum_t x_t^2: one einsum per
  window.  The guard asks P'_ii > 2 _VARIANCE_FLOOR s^2 E'_i, the 2 being
  the rounding margin, and rz = sqrt(W) |mean z| / ||z - mean z|| <= 100,
  the eigensignal's window mean over its window std (at most 0.02 on the
  benchmark's ingest_gappy windows, 0.05 on universe250's with `residual`
  on).  The margin must cover:
  - the computed (alpha, beta) miss the optimum (a*, b*).  The optimal
    residual is orthogonal to 1 and z, so the miss adds
    sum_t ((a* - alpha) z_t + b* - beta)^2 to sum_t r_t^2, second order in
    rounding: O((W u)^2 (1 + rz)^2) E_i.
  - the kernel reads r' = fl(fl(fl(x - fl(alpha z)) - beta) / sigma), not
    r / sigma.  Scaled back by sigma, that is at most 3u (|x_t| + |alpha z_t|
    + |beta|) + u |r_t| apart per sample.  Cauchy-Schwarz on
    alpha = <x - mean x, z - mean z> / ||z - mean z||^2 gives
    ||alpha z|| <= (1 + rz) sqrt(E_i) and sqrt(W) |beta| <= (1 + rz)
    sqrt(E_i), so ||sigma r' - r|| <= 10 (1 + rz) u sqrt(E_i).  The root of a
    detrended energy is a seminorm of the series, at most s times its
    norm, so the root of sigma r''s is at least sqrt(P_ii) - 10 s (1 + rz) u
    sqrt(E_i), which the guard makes at least (1 - 8e-4 (1 + rz))
    sqrt(P_ii) >= 0.91 sqrt(P_ii).  And the profile energy of sigma r' is at
    most s^2 (1 + 10 (1 + rz) u)^2 E_i.
  - E'_i and P'_ii (first leg) are within a relative O(W u) of E_i and
    P_ii.
  So r''s detrended energy exceeds 1.6 _VARIANCE_FLOOR times its profile
  energy (a scale moves both alike), which leaves the kernel's own
  rounding (O(s u) times the root of the profile energy, on the root of
  each energy) a margin of 1.6, and the kernel's rule passes.  And as P_ii
  is at most the profile energy of r, so at most s^2 sum_t r_t^2, the
  residuals' sum of squares exceeds 1.6 _VARIANCE_FLOOR
  sum_t (x_t - mean x)^2: the kernel path's own check below passes too.
- The coefficient checks.  Every F_i = P'_ii / B (B boxes) must have
  2 tiny <= F_i^2 and F_i^2 <= max / 2, so every normalizer and every
  product of two that the closed form's `_coefficients` call checks is a
  normal finite float with a margin of 2; that call then checks its
  numbers again.  Under `global_norm` (sigma = 1) the kernel reads these
  numbers within 1e-11.  Otherwise it reads the residuals over the
  window's stds, whose normalizers lie between 2e-24 s^2 W / B (second
  leg, as E_i >= W sigma_i^2) and s^2 W / B (P_ii <= s^2 sum_t r_t^2 <=
  s^2 W sigma_i^2), far inside the range: there this leg only sends to
  the kernel a matrix whose numbers leave the range at the series' scale.
So a window the kernel path would skip (a flat residual, a normalizer out
of range) takes the kernel path and keeps its reason.

The kernel path adds one check of its own.  A series that lies on the
eigensignal up to rounding (one of several collinear series, say) leaves
residual dust, and the kernel's rule compares the dust's detrended energy
with the dust's profile energy, which passes: the residual spectrum of
rounding noise.  So before the residuals are divided by sigma, a series
whose residual energy sum_t r_t^2 is at most `_VARIANCE_FLOOR` times its
centred energy sum_t (x_t - mean x)^2 raises the kernel's zero-variance
reason, naming the first such series.  Dust sits at 1e-32 to 1e-30 of the
centred energy, and a residual 1e-6 of its series at 1e-12.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import data, network, spectra
from .config import AnalysisConfig
from .data import ReturnMatrix, normalize
from .dfa import (
    _TINY,
    _VARIANCE_FLOOR,
    _check_variance,
    _coefficients,
    cross_fluctuation_matrices,
)
from .errors import ConfigError, QdccaError, ShapeMismatchError, ZeroVarianceError
from .network import SpanningTree
from .spectra import DetrendedCorrelationMatrix

# Bytes of correlation matrices a wave of windows holds for its graphs
# (module notes).
_WAVE_BYTES = 4 << 20

# The residual pass's closed form is kept when its rounding bound moves no
# residual coefficient by more than twice this (module notes): 5e-12.
_CLOSED_FORM_TOL = 2.5e-12
_EPS = np.finfo(np.float64).eps
_HUGE = np.finfo(np.float64).max

ALL_FAMILIES = ("spectra", "topology", "edges", "clusters", "lagged", "periods")


def _check_families(families) -> None:
    """Raise ConfigError unless ``families`` is a collection of `ALL_FAMILIES` names."""
    if isinstance(families, str):
        raise ConfigError(f"families must be a collection of names, not the string {families!r}")
    if unknown := sorted(set(families) - set(ALL_FAMILIES)):
        raise ConfigError(f"unknown output family {', '.join(map(repr, unknown))}")


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
    families: tuple[str, ...]   # the output families the sweep computed


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


def _wave_length(n: int, cfg: AnalysisConfig) -> int:
    """How many windows run together: as many as hold `_WAVE_BYTES` of their
    |q| |s| correlation matrices, and no fewer than the pool threads."""
    return max(cfg.threads, _WAVE_BYTES // (8 * n * n * len(cfg.q) * len(cfg.s)))


def gap_fill_skip(returns: ReturnMatrix, start: int, stop: int, max_missing: float):
    """Why samples [start, stop) are skipped for gap fills, or None."""
    if returns.filled is None:
        return None
    frac = float(returns.filled[start:stop].mean())
    if frac > max_missing:
        return f"{frac:.2%} of samples are gap fills (limit {max_missing:.2%})"
    return None


@np.errstate(over="ignore", invalid="ignore")  # a std that is not finite is named below
def _stds(returns: ReturnMatrix) -> np.ndarray:
    """Each series' std, in one pass over the array: numpy reduces each row
    as `normalize` reduces one series, so the bits are `normalize`'s.  A
    series that `normalize` refuses (constant, or a std that overflows)
    raises its ZeroVarianceError, naming the series."""
    std = returns.values.std(axis=1)
    if not np.all((std > 0.0) & (std < np.inf)):
        for name, row in zip(returns.tickers, returns.values):
            try:
                normalize(row)
            except ZeroVarianceError as exc:
                raise ZeroVarianceError(f"{name}: {exc}", label=name) from exc
    return std


def _normalized(returns: ReturnMatrix) -> ReturnMatrix:
    """`global_norm`'s returns: bit for bit one `normalize` call per series."""
    std, values = _stds(returns), returns.values
    return replace(returns, values=(values - values.mean(axis=1)[:, None]) / std[:, None])


@np.errstate(over="ignore", invalid="ignore")  # the guard reads what leaves the range
def _residual_closed_form(res, w, gram, s: int, raw_energy, labels):
    """The residual pass's q = 2 matrix from the window's own power sum, as
    A G A^T (module notes), or None when the guard sends it to the kernel.
    ``w`` are the eigensignal's weights, ``gram`` is (G, box count) and
    ``raw_energy`` each regressed series' sum of squares, which bounds its
    residuals' (module notes)."""
    power, n_boxes = gram
    n = len(w)
    a = np.eye(n) - np.outer(res.alpha, w)
    # einsum, not @: its bits do not follow the BLAS thread count.
    p = np.einsum("ik,kj->ij", a, np.einsum("kl,jl->kj", power, a))
    p = (p + p.T) / 2
    energy = np.diag(p)
    # Row i of |A| against sqrt(diag G): the reach of the rounding bound.
    root = np.sqrt(np.diag(power))
    reach = root + np.abs(res.alpha) * np.einsum("k,k->", np.abs(w), root)
    f = energy / n_boxes
    drift = res.signal.mean()
    swing = res.signal - drift
    exact = (np.isfinite(p).all()
             and np.all((n + 4) * _EPS * reach**2 <= _CLOSED_FORM_TOL * energy)
             and np.all(energy > 2 * _VARIANCE_FLOOR * s * s * raw_energy)
             # rz <= 100: the eigensignal's mean against its spread.
             and swing.size * drift**2 <= 1e4 * np.einsum("t,t->", swing, swing)
             and 2 * _TINY <= f.min() ** 2 and f.max() ** 2 <= _HUGE / 2)
    if not exact:
        return None
    rho = _coefficients(p / n_boxes, f, f, 2.0, s, labels, labels)
    np.fill_diagonal(rho, 1.0)
    return DetrendedCorrelationMatrix(values=rho, labels=labels)


def _residual_spectrum(window_returns: ReturnMatrix, q, s, cfg, summary, gram, sigma,
                       raw_energy):
    """The spectrum of the residual returns once the eigensignal with weights
    v1 / ``sigma`` is regressed out of every series: from ``gram`` (see
    `_residual_closed_form`) when it is given and the guard holds, else by
    the kernel on the residual returns over ``sigma``, the only path that
    forms them.  A series whose residual energy is at most `_VARIANCE_FLOOR`
    times its centred energy (on the eigensignal up to rounding) raises."""
    w = summary.eigenvectors[:, 0] / sigma
    z1 = spectra.eigensignal(window_returns, w)
    res = spectra.residual_returns(window_returns, z1)
    labels = window_returns.tickers
    c_res = None
    if gram is not None:
        c_res = _residual_closed_form(res, w, gram, s, raw_energy, labels)
    if c_res is None:
        residuals = res.residuals
        x = window_returns.values
        # The kernel's own rule compares the dust of such a series with
        # the dust's profile, and passes it.
        _check_variance(np.einsum("nt,nt->n", residuals, residuals),
                        x.shape[1] * x.var(axis=1), s, labels)
        c_res = spectra.correlation_matrices(
            replace(window_returns, values=residuals / sigma[:, None]), s, cfg.poly_order, [q]
        )[q]
    return spectra.eigendecompose(c_res)


def _window_spectra(window_returns: ReturnMatrix, held: dict, grams: dict,
                    cfg: AnalysisConfig) -> dict:
    """The spectra rows of a window's correlation matrices ``held``, by
    (q, s): the residual pass's stds (1 under `global_norm`) first, then
    each matrix's eigendecomposition and residual spectrum in ``held``'s
    (s, q) order, so the first failure raised is the first the window meets.

    ``grams`` maps s to the window's q = 2 power sum and box count, which
    `compute_window` keeps when the residual pass can use them: at q = 2 and
    poly_order >= 1 the residual matrix is A G A^T unless its guard trips
    (module notes).  At any other q, at poly_order = 0 and wherever the
    guard trips, the kernel runs again on the residual returns.
    """
    sigma = raw_energy = None
    if cfg.residual:
        x = window_returns.values
        sigma = np.ones(len(x)) if cfg.global_norm else _stds(window_returns)
        if grams:
            raw_energy = np.einsum("nt,nt->n", x, x)
    rows = {}
    for (q, s), c in held.items():
        summary = spectra.eigendecompose(c)
        res = None
        if sigma is not None:
            gram = grams.get(s) if q == 2.0 else None
            res = _residual_spectrum(window_returns, q, s, cfg, summary, gram, sigma,
                                     raw_energy)
        rows[q, s] = _spectral_row(summary, res)
    return rows


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
    return any(family != "lagged" or 0 in cfg.lags for family in families)


def _window(returns: ReturnMatrix, start: int, stop: int) -> ReturnMatrix:
    return ReturnMatrix(tickers=returns.tickers, timestamps=returns.timestamps[start:stop],
                        values=returns.values[:, start:stop])


def compute_window(returns: ReturnMatrix, start: int, stop: int, index: int,
                   cfg: AnalysisConfig, families, shared: dict, graphs: dict,
                   grams: dict) -> WindowResult:
    """A sweep's window job: the window's correlation matrices, put in
    ``graphs`` by (q, s) in (s, q) order, and its mean and lagged
    coefficients, put in the result; the sweep grows its spectra rows,
    trees, topology rows and partitions from ``graphs`` (module notes).
    When the residual pass can use them (`_window_spectra`), the q = 2
    power sum and box count of each scale go in ``grams`` by s.

    ``shared`` maps a scale to the `_stretch_sums` of the window's blocks,
    computed ahead; a scale without them sums the window itself as one
    stretch.  A window that fails first runs the spectra of the matrices it
    holds, so a skip reason is the first failure in the order the checks ran
    in one pass: gap fills, the residual pass's stds, then per
    scale the coefficients and that scale's spectra, then the lagged pass.
    """
    reason = gap_fill_skip(returns, start, stop, cfg.max_missing)
    if reason is not None:
        raise QdccaError(reason)
    window_returns = _window(returns, start, stop)
    result = WindowResult(index=index, end_ts=int(returns.timestamps[stop - 1]))
    tickers = returns.tickers
    need_corr = _needs_correlations(cfg, families)
    rows = _lag_rows(tickers, cfg, families)
    # The lagged family's anchors and the series they are averaged against.
    anchor_idx = _anchors(tickers, cfg) if "lagged" in families else {}
    anchor_rows = list(anchor_idx.values())
    others = np.setdiff1d(np.arange(len(tickers)), anchor_rows)
    keep_grams = (cfg.residual and cfg.poly_order >= 1 and 2.0 in cfg.q
                  and "spectra" in families)
    try:
        parts = {s: shared.get(s) or [_stretch_sums(window_returns.values, 0, stop - start, s,
                                                    cfg, need_corr, rows)]
                 for s in cfg.s}
        for s in cfg.s if need_corr else ():
            blocks = [sums for sums, _ in parts[s]]
            total = sum(blocks[1:], blocks[0])
            if keep_grams:
                grams[s] = total.power[2.0], total.n_boxes
            mats = spectra.correlation_matrices(window_returns, s, cfg.poly_order, cfg.q,
                                                sums=total)
            for q in cfg.q:
                c = graphs[(q, s)] = mats[q]
                if "periods" in families:
                    result.mean_rho[(q, s)] = _mean_offdiagonal(c)
                if 0 in cfg.lags and anchor_idx:
                    _anchor_means(result.lagged, 0, s, anchor_idx,
                                  {q: c.values[np.ix_(anchor_rows, others)]})
        for s in cfg.s if rows else ():
            # The anchors' heads pair with the others' tails for a positive
            # lag and their tails with the others' heads for a negative one,
            # so both signs come out of one set of sums per |tau|.
            for k, total in _lag_totals([pieces for _, pieces in parts[s]]).items():
                for tau in (k, -k):
                    if tau in cfg.lags:
                        _anchor_means(result.lagged, tau, s, anchor_idx,
                                      total.coefficients(tau, others, s, tickers))
    except QdccaError:
        if "spectra" in families:
            _window_spectra(window_returns, graphs, grams, cfg)  # an earlier failure wins
        raise
    return result


def _call(job):
    return job()


def run_analysis(cfg: AnalysisConfig, returns: ReturnMatrix, families=ALL_FAMILIES) -> SweepResult:
    """Sweep every rolling window; a window's failure is recorded, not fatal.
    Returns that `data.check_returns` rejects raise ShapeMismatchError, and
    an unknown family ConfigError, before any window runs."""
    cfg.validate()
    _check_families(families)
    data.check_returns(returns)
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
    sums = {}

    def block_sums(job):
        s, b = job
        return _stretch_sums(returns.values, b * blk, (b + 1) * blk, s, cfg, need_corr, rows)

    def worker(item):
        index, (start, stop) = item
        blocks = {s: [sums[s, b] for b in spans[index]] for s in shared} if index in spans else {}
        held, grams = {}, {}
        try:
            return compute_window(returns, start, stop, index, cfg, families, blocks,
                                  graphs=held, grams=grams), held, grams
        except QdccaError as exc:
            return index, str(exc)

    def spectra_job(result, held, grams):
        try:
            result.spectral = _window_spectra(_window(returns, *windows[result.index]), held,
                                              grams, cfg)
        except QdccaError as exc:
            return result.index, str(exc)

    width = _wave_length(len(returns.tickers), cfg)
    items = list(enumerate(windows))
    waves = [items[lo : lo + width] for lo in range(0, len(items), width)]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        # At one pool thread the work runs in the calling thread.
        run = pool.map if cfg.threads > 1 else map
        for wave in waves:
            # No window of this wave or a later one starts before its first.
            sums = {job: part for job, part in sums.items() if job[1] >= wave[0][1][0] // blk}
            jobs = sorted({(s, b) for i, _ in wave if i in spans for s in shared for b in spans[i]}
                          - sums.keys())
            sums.update(zip(jobs, run(block_sums, jobs)))
            done = list(run(worker, wave))
            grown = [o for o in done if isinstance(o[0], WindowResult)]
            # The graph job first: the pool takes jobs in order (module notes).
            jobs = [partial(_grow_graphs, [(result, held) for result, held, _ in grown],
                            cfg, families)]
            if "spectra" in families:
                jobs += [partial(spectra_job, *window) for window in grown]
            failed = dict(filter(None, run(_call, jobs)))
            results += [result for result, *_ in grown if result.index not in failed]
            skipped += sorted([o for o in done if not isinstance(o[0], WindowResult)]
                              + list(failed.items()))
            del done, grown, jobs  # the wave's matrices go before the next wave starts
    return SweepResult(windows=results, skipped=skipped, tickers=returns.tickers,
                       n_windows_planned=len(windows), families=tuple(families))
