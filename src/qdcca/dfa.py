"""Detrended cross-correlation coefficient of order q.

The estimator splits two equally long series into 2*floor(T/s) boxes of
length s (floor(T/s) boxes counted from each end of the series, so with
T mod s != 0 the two passes overlap in the middle and each skips its own
trailing remainder).  Inside every box the samples are integrated into a
profile, a least-squares polynomial of order m is removed, and the box's
residual variances and covariance are collected.  Averaging those local
moments raised to the power q/2 (with the covariance sign kept) gives the
fluctuation functions whose ratio is the correlation coefficient.

Implementation notes
--------------------
* `_gram_power` is the one estimator kernel: given two residual stacks it
  forms the per-box Gram products, raises them to the signed q/2 power and
  sums over boxes.  `fluctuation_matrices` (a stack against itself) and
  `cross_fluctuation_matrices` (head against tail, for lags) are its only
  callers; both stay public under these names because `spectra` and
  `pipeline` call them, and the benchmark's spans (`bench/spans.py`) look
  them up as module attributes there.
* One box layout, from reshaped views: the forward tiling values[:, :m*s],
  then, only when s does not divide T (else it repeats the forward boxes),
  the backward tiling values[:, T-m*s:] with its last box first.  Nothing
  is gathered or copied to feed it, so strided views go in as they are.
  The stack stays series-major, (N, B, s): the batched detrending products
  then run per series, (B, s) @ (s, m+1), so a series' residuals do not
  depend on the other series in the stack and the matrix and pairwise
  paths agree bitwise; a box-major stack makes each product an (N, s)
  block whose BLAS blocking follows N.
* `fluctuation_matrices` returns additive `BoxSums` (per-q power sums,
  residual and profile energies, box count) and
  `cross_fluctuation_matrices` additive `CrossSums`; neither raises on
  data.  Sums of whole-box stretches add to the sums of their union,
  which is how `pipeline.run_analysis` shares box work between
  overlapping windows; `BoxSums.coefficients` and
  `CrossSums.coefficients` then apply the zero-variance check to the
  summed energies and divide once.
* Detrending is a low-rank projection: an (s, m+1) orthonormal basis Q of
  the polynomials on abscissa 1..s is built once per (s, m) by QR, and the
  residuals of every box of every series are P - (P Q) Q^T, two thin
  batched products.  Q holds the constant column, so the residuals have
  zero box mean and no separate demean pass is made.  Assembling an N x N
  coefficient matrix then costs one batched Gram product per scale instead
  of N(N-1)/2 independent fits.  Because Q holds the constant, each
  profile may start at 0 on its box's first sample (it sums the later
  samples only) without changing the residuals; a box whose returns are
  zero after its first sample then has a flat profile and exactly zero
  residuals, not the rounding dust that the q/2 power lifts at q < 2.
* All reductions run in a fixed order (boxes in partition order, chunks
  of `_BOX_CHUNK`), so results are bit-identical across runs, across any
  outer parallelism and across BLAS thread counts.  The thread count is
  checked on a whole run (`tests/test_dfa.py`, 1 against 2 OpenBLAS
  threads).  Keep the detrending low-rank: an s x s projector product
  fails that check at s = 180.
* The signed power sign(g) * |g|**(q/2) is specialized: q = 2 passes the
  Gram through, q = 4 is |g| * g and any other q is
  copysign(|g|**(q/2), g).  Multiplying by a sign is exact, so each form
  gives the same bits as the general formula except that a -0.0 input
  stays -0.0; the box sums start at +0.0, so no sum or output changes.
* The lagged pass needs only the anchor rows and columns of the head/tail
  cross fluctuations, so it multiplies the A anchor rows of one stack
  against all N series of the other, (B, A, s) @ (B, s, N), once each
  way; the full N x N cross Gram is never formed.  `pipeline` feeds it
  whole-box stretches (s divides their length), one per grid of lagged
  box pairs, so every call is the forward tiling alone.
* q must be positive.  Every coefficient (pair, matrix or lagged) is
  divided by `_coefficients`, which raises a ZeroVarianceError naming the
  series, q, the scale, any lag and whether it under- or overflows when a
  normalizer or a product of two is not a normal finite float (q = 4 on
  returns near 1e-150, 1e150, 2**-200 or 2**200).  q = 2 is the classic
  DCCA coefficient, bounded by 1 in magnitude; for other q the raw ratio is
  kept and a CorrelationBoundWarning is emitted when it leaves [-1, 1].
  The zero-variance rule runs first and reads the box energies, which
  overflow before any q/2 power (returns near 1e155); it raises a
  ZeroVarianceError that says so.  An energy that underflows to exactly 0
  cannot be told from a flat series and gets the flat series' reason.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    CorrelationBoundWarning,
    DegenerateFitError,
    ScaleTooLargeError,
    ShapeMismatchError,
    ZeroVarianceError,
)

# Boxes are processed in fixed-size chunks to bound the memory of the
# batched Gram product; the size is a constant so summation order never
# depends on the environment.
_BOX_CHUNK = 512

# A series whose detrended residual energy falls below this fraction of its
# raw profile energy is treated as having zero detrended variance: the fit
# leaves ~1e-16-relative dust on exactly-fitting inputs (constant
# returns, exact polynomials), which must surface as an error rather than a
# coefficient made of rounding noise.
_VARIANCE_FLOOR = 1e-24

# A normalizer, or a product of two, below the smallest normal float has
# lost precision to underflow.
_TINY = np.finfo(np.float64).tiny

# `_coefficients` reports what leaves the float range, so numpy's warnings
# are off where it is formed; a decorator only (it cannot be entered twice).
_beyond_range = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class DetrendConfig:
    """Scale, detrending order and moment exponent for one estimate."""

    scale: int
    poly_order: int = 2
    q: float = 2.0

    def __post_init__(self):
        if self.scale < 2:
            raise ConfigError(f"scale must be >= 2, got {self.scale}")
        if self.poly_order < 0:
            raise ConfigError(f"poly_order must be >= 0, got {self.poly_order}")
        if self.scale < self.poly_order + 2:
            raise DegenerateFitError(
                f"scale {self.scale} too small for polynomial order "
                f"{self.poly_order}: need scale >= poly_order + 2"
            )
        if not (self.q > 0):
            raise ConfigError(f"q must be positive, got {self.q}")


def as_series(x, name: str = "series") -> np.ndarray:
    """Coerce to a 1-D float array and reject non-finite values."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size < 2:
        raise ShapeMismatchError(f"{name} must hold at least 2 samples")
    if not np.all(np.isfinite(arr)):
        raise ShapeMismatchError(f"{name} contains NaN or Inf")
    return arr


@lru_cache(maxsize=64)
def _fit_basis(scale: int, poly_order: int) -> np.ndarray:
    # (s, m+1) orthonormal basis of the Vandermonde columns on abscissa
    # 1..s; P - (P Q) Q^T removes the best-fitting polynomial from P.
    i = np.arange(1.0, scale + 1.0)
    q_basis, _ = np.linalg.qr(np.vander(i, poly_order + 1, increasing=True))
    q_basis.setflags(write=False)
    return q_basis


def _check_scale(n_samples: int, cfg: DetrendConfig):
    if n_samples < 2 * cfg.scale:
        raise ScaleTooLargeError(
            f"series of length {n_samples} is too short for scale "
            f"{cfg.scale}: need at least {2 * cfg.scale} samples"
        )


def _box_profiles(values: np.ndarray, scale: int) -> np.ndarray:
    """Integrated box profiles of an (N, T) stack, (N, B, s); see the notes."""
    n, t = values.shape
    m = t // scale
    tiles = values[:, : m * scale].reshape(n, m, scale)
    if t % scale:
        back = values[:, t - m * scale :].reshape(n, m, scale)
        tiles = np.concatenate([tiles, back[:, ::-1]], axis=1)
    profiles = np.empty(tiles.shape)
    profiles[..., 0] = 0.0
    np.cumsum(tiles[..., 1:], axis=-1, out=profiles[..., 1:])
    return profiles


def _detrended_residuals(profiles: np.ndarray, scale: int, poly_order: int) -> np.ndarray:
    # Gram-product kernel input: ``profiles`` minus their projection onto
    # the fit basis.  The basis holds the constant column, so the residuals
    # of every box already have zero mean.
    q_basis = _fit_basis(scale, poly_order)
    resid = (profiles @ q_basis) @ q_basis.T
    np.subtract(profiles, resid, out=resid)
    return resid


def _signed_power(values: np.ndarray, q: float) -> np.ndarray:
    # sign(g) * |g|**(q/2), specialized; see the implementation notes.  The
    # result is built in one buffer: fresh Gram-sized temporaries cost more
    # than the arithmetic.
    if q == 2.0:
        return values
    out = np.abs(values)
    if q == 4.0:
        out *= values
        return out
    out **= q / 2.0
    return np.copysign(out, values, out=out)


@_beyond_range
def _gram_power(ra: np.ndarray, rb: np.ndarray, q_list) -> dict[float, np.ndarray]:
    """Box sums of the signed q/2 powers of the per-box Grams ra_b @ rb_b^T.

    ``ra`` (A, B, s) and ``rb`` (N, B, s) are detrended residual stacks;
    each q maps to an (A, N) matrix.  Pass the same array twice for a stack
    against itself: both operands then share one buffer, which lets BLAS use
    its symmetric A @ A^T product.
    """
    a = np.ascontiguousarray(ra.transpose(1, 0, 2))
    b = a if rb is ra else np.ascontiguousarray(rb.transpose(1, 0, 2))
    # Sums start at +0.0, like np.zeros, so a -0.0 power never survives.
    acc = dict.fromkeys(q_list, 0.0)
    for lo in range(0, a.shape[0], _BOX_CHUNK):
        gram = a[lo : lo + _BOX_CHUNK] @ b[lo : lo + _BOX_CHUNK].transpose(0, 2, 1)
        for q in q_list:
            acc[q] += _signed_power(gram, q).sum(axis=0)
    return acc


def _check_variance(energy, reference, scale: int, labels, where: str = ""):
    # The zero-variance rule (see _VARIANCE_FLOOR), one check per series,
    # after a check that both energies are finite (`inf <= floor * inf`
    # holds); ``where`` narrows the message to the stretch that was checked.
    # An energy that underflows to 0 cannot be told from a flat series.
    for dead, what in (
        (~(np.isfinite(energy) & np.isfinite(reference)), "a box energy that overflows"),
        (energy <= _VARIANCE_FLOOR * reference, "zero detrended variance"),
    ):
        if np.any(dead):
            i = int(np.argmax(dead))
            name = labels[i] if labels is not None else f"series {i}"
            raise ZeroVarianceError(
                f"{name} has {what}{where} at scale {scale}; correlation undefined",
                label=str(name),
            )


def _fault(value: float) -> str:
    return "underflows to 0" if value == 0 else "underflows" if value < _TINY else "overflows"


@_beyond_range
def _coefficients(cross, f_x, f_y, q: float, scale: int, x_labels, y_labels, lag=None):
    """rho = cross (A, C) / sqrt(outer(f_x (A,), f_y (C,))) and whether an
    entry left [-1, 1] (a warning at q != 2); see the implementation notes.
    """
    at = "at " if lag is None else f"at lag {lag}, "
    prod = np.outer(f_x, f_y)
    for f, names in ((f_x, x_labels), (f_y, y_labels)):
        bad = ~((f >= _TINY) & (f < np.inf))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ZeroVarianceError(
                f"{names[i]} has a fluctuation function that {_fault(f[i])} "
                f"{at}q={q:g}, scale {scale}; correlation undefined", label=names[i],
            )
    bad = ~((prod >= _TINY) & (prod < np.inf))
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        x, y = x_labels[i], y_labels[j]
        who = (f"{x} has a fluctuation function whose square" if x == y else
               f"{x} and {y} have fluctuation functions whose product")
        raise ZeroVarianceError(
            f"{who} {_fault(prod[i, j])} {at}q={q:g}, scale {scale}; "
            "correlation undefined", label=x,
        )
    rho = cross / np.sqrt(prod)
    exceeded = bool(np.any(np.abs(rho) > 1.0))
    if exceeded and q != 2.0:
        warnings.warn(f"rho_q at q={q:g}, scale {scale} has entries outside [-1, 1]; "
                      "raw values kept", CorrelationBoundWarning, stacklevel=3)
    return rho, exceeded


@dataclass(frozen=True)
class BoxSums:
    """Additive box sums of one stretch of an (N, T) stack at one scale.

    The sums of consecutive stretches add, in a fixed order, to the sums of
    their union; `fluctuations` checks and averages a total once.
    """

    power: dict[float, np.ndarray]  # q -> (N, N) sum of signed q/2 Gram powers
    energy: np.ndarray              # (N,) residual energy
    reference: np.ndarray           # (N,) energy of the integrated profiles
    n_boxes: int

    @_beyond_range
    def __add__(self, other: "BoxSums") -> "BoxSums":
        return BoxSums(
            power={q: p + other.power[q] for q, p in self.power.items()},
            energy=self.energy + other.energy,
            reference=self.reference + other.reference,
            n_boxes=self.n_boxes + other.n_boxes,
        )

    def fluctuations(self, scale: int, labels=None, where: str = "") -> dict[float, np.ndarray]:
        """Fluctuation matrices F(q): the power sums over the box count.

        The diagonal is the per-series fluctuation used as the normalizer.
        A ZeroVarianceError is raised for any series whose residuals are
        pure rounding noise or whose energies overflow; ``labels`` names the
        offender in the message and ``where`` the stretch.
        """
        _check_variance(self.energy, self.reference, scale, labels, where)
        return {q: total / self.n_boxes for q, total in self.power.items()}

    def coefficients(self, scale: int, labels, lag=None) -> dict[float, tuple[np.ndarray, bool]]:
        """Per q the (N, N) `_coefficients` with a unit diagonal and whether
        an entry left [-1, 1]; errors name ``lag`` when it is given."""
        out = {}
        where = "" if lag is None else f" in its lag {lag} overlap"
        for q, fmat in self.fluctuations(scale, labels, where).items():
            diag = np.diag(fmat)
            rho, exceeded = _coefficients(fmat, diag, diag, q, scale, labels, labels, lag)
            np.fill_diagonal(rho, 1.0)
            out[q] = rho, exceeded
        return out


def fluctuation_matrices(values: np.ndarray, scale: int, poly_order: int, q_values) -> BoxSums:
    """Box sums of the pairwise fluctuations of a stack of aligned series.

    ``values`` has shape (N, T).  For each q the (N, N) power sum holds the
    signed cross fluctuation of every pair summed over the boxes; the
    per-box Gram products are shared across all q values.  Nothing here
    depends on a box's neighbours, so the sums of stretches that tile a
    series (each a multiple of s long) add to the sums of the whole.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatchError(f"expected (N, T) array, got shape {values.shape}")
    q_list = [float(q) for q in q_values]
    for q in q_list:
        if not (q > 0):
            raise ConfigError(f"q must be positive, got {q}")
    profiles = _box_profiles(values, scale)
    resid = _detrended_residuals(profiles, scale, poly_order)
    reference = np.einsum("nbs,nbs->n", profiles, profiles)
    del profiles  # the kernel reads only resid; free it before its copy
    return BoxSums(
        power=_gram_power(resid, resid, q_list),
        energy=np.einsum("nbs,nbs->n", resid, resid),
        reference=reference,
        n_boxes=resid.shape[1],
    )


@dataclass(frozen=True)
class CrossSums:
    """Additive box sums of the ``rows`` series of a head stack against
    every series of a tail stack, both ways, at one scale.

    Like `BoxSums`, the sums of stretches add, in a fixed order, to the sums
    of their union; `coefficients` checks and divides a total once.
    """

    # q -> (rows (A, N): head rows against tails, cols (N, A): heads against
    # tail rows, head (N,), tail (N,)): sums of signed q/2 powers
    power: dict[float, tuple[np.ndarray, ...]]
    energy: np.ndarray     # (2, N) head and tail residual energy
    reference: np.ndarray  # (2, N) head and tail profile energy

    @_beyond_range
    def __add__(self, other: "CrossSums") -> "CrossSums":
        return CrossSums(
            power={
                q: tuple(a + b for a, b in zip(p, other.power[q]))
                for q, p in self.power.items()
            },
            energy=self.energy + other.energy,
            reference=self.reference + other.reference,
        )

    def coefficients(self, tau: int, rows, cols, scale: int, labels) -> dict[float, np.ndarray]:
        """rho at lag tau of each ``rows`` series against each ``cols`` series.

        ``rows`` are the kernel's rows, in order; ``cols`` are series
        indices.  At tau > 0 the rows' heads pair with the cols' tails, at
        tau < 0 the rows' tails with the cols' heads, and only those series
        go through the zero-variance and coefficient rules; ``labels``
        names the offender.  Each q maps to an (A, C) matrix.
        """
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        names = [labels[i] for i in rows], [labels[i] for i in cols]
        x, y = (0, 1) if tau > 0 else (1, 0)
        for side, idx, idx_names in ((x, rows, names[0]), (y, cols, names[1])):
            _check_variance(
                self.energy[side, idx], self.reference[side, idx], scale,
                idx_names, f" in its lag {tau} overlap",
            )
        out = {}
        for q, (f_rows, f_cols, *f_self) in self.power.items():
            cross = f_rows[:, cols] if tau > 0 else f_cols[cols].T
            out[q], _ = _coefficients(
                cross, f_self[x][rows], f_self[y][cols], q, scale, *names, lag=tau
            )
        return out


@_beyond_range
def cross_fluctuation_matrices(head, tail, scale: int, poly_order: int, q_values, rows) -> CrossSums:
    """Box sums of the ``rows`` series against every series, both ways.

    ``head`` and ``tail`` are (N, T) stacks on the same sample grid (in the
    lagged setting: stretches of the series that start |tau| samples
    apart) and ``rows`` is a sequence of A series indices.  Box b of head
    series i pairs with box b of tail series j; the sums hold the anchor
    rows and columns of that cross product, the per-series head and tail
    normalizers and the energies the zero-variance rule reads.  The rest of
    the N x N cross product is never formed, and nothing raises on data.
    """
    if head.shape != tail.shape:
        raise ShapeMismatchError(
            f"head/tail shape mismatch: {head.shape} vs {tail.shape}"
        )

    def residuals(v):
        profiles = _box_profiles(np.asarray(v, dtype=np.float64), scale)
        resid = _detrended_residuals(profiles, scale, poly_order)
        energies = np.einsum("nbs,nbs->bn", resid, resid)
        return resid, energies, np.einsum("nbs,nbs->n", profiles, profiles)

    (rh, eh, ph), (rt, et, pt) = residuals(head), residuals(tail)
    rows = np.asarray(rows, dtype=np.intp)
    q_list = [float(q) for q in q_values]
    f_rows = _gram_power(rh[rows], rt, q_list)
    f_cols = _gram_power(rt[rows], rh, q_list)
    return CrossSums(
        power={
            q: (
                f_rows[q],
                f_cols[q].T,
                _signed_power(eh, q).sum(axis=0),
                _signed_power(et, q).sum(axis=0),
            )
            for q in q_list
        },
        energy=np.stack([eh.sum(axis=0), et.sum(axis=0)]),
        reference=np.stack([ph, pt]),
    )


def rho_q(x, y, cfg: DetrendConfig) -> float:
    """Detrended cross-correlation coefficient of order q for one pair."""
    return rho_q_lagged(x, y, cfg, 0)


def rho_q_lagged(x, y, cfg: DetrendConfig, tau: int) -> float:
    """rho_q with x shifted by tau samples against y.

    tau < 0 advances x (x leads y); tau > 0 lags it.  The pair is truncated
    to the overlapping range before the coefficient is computed; tau = 0
    is rho_q.
    """
    xa = as_series(x, "x")
    ya = as_series(y, "y")
    if xa.size != ya.size:
        raise ShapeMismatchError(f"length mismatch: {xa.size} vs {ya.size}")
    n, k = xa.size, abs(int(tau))
    if k == 0:
        _check_scale(n, cfg)
    elif n - k < 2 * cfg.scale:
        raise ScaleTooLargeError(
            f"overlap of {n - k} samples after shifting by {tau} is too "
            f"short for scale {cfg.scale}: need at least {2 * cfg.scale}"
        )
    pair = [xa[: n - k], ya[k:]] if tau > 0 else [xa[k:], ya[: n - k]]
    rho, _ = fluctuation_matrices(
        np.stack(pair), cfg.scale, cfg.poly_order, [cfg.q]
    ).coefficients(cfg.scale, ("x", "y"), lag=tau or None)[cfg.q]
    return float(rho[0, 1])
