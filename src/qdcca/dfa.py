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
  averages over boxes.  `fluctuation_matrices` (a stack against itself)
  and `cross_fluctuation_matrices` (head against tail, for lags) are its
  only callers; both stay public under these names because `spectra` and
  `pipeline` call them, and the benchmark's spans (`bench/spans.py`) look
  them up as module attributes there.
* Detrending is a single projection: the residual projector for abscissa
  1..s is built once per (s, m) from a QR factorization and applied to all
  boxes of all series with one matmul, so assembling an N x N coefficient
  matrix costs one batched Gram product per scale instead of N(N-1)/2
  independent fits.
* The box mean is subtracted from the residuals again before the moments
  are formed, even though the fitted polynomial already contains a
  constant term.  The extra pass costs nothing and keeps the local
  moments exactly as defined.
* All reductions run in a fixed order (boxes in partition order, chunks
  of `_BOX_CHUNK`), so results are bit-identical across runs and across
  any outer parallelism.
* The signed power sign(g) * |g|**(q/2) is specialized: q = 2 passes the
  Gram through, q = 4 is |g| * g and any other q is
  copysign(|g|**(q/2), g).  Multiplying by a sign is exact, so each form
  gives the same bits as the general formula except that a -0.0 input
  stays -0.0; the box sums start at +0.0, so no sum or output changes.
* The lagged pass reads only the anchor rows and columns of the head/tail
  cross fluctuations.  With ``rows`` set, `_gram_power` still forms the
  full per-box Gram (a rows-only product lets BLAS pick a different
  accumulation kernel and moves the last bit), but raises only the anchor
  rows and columns to q/2 and sums only those over boxes.
* q must be positive.  q = 2 is the classic DCCA coefficient and is
  bounded by 1 in magnitude; for other q the raw ratio is returned and a
  CorrelationBoundWarning is emitted when it leaves [-1, 1].
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
# raw profile energy is treated as having zero detrended variance: the
# projector leaves ~1e-16-relative dust on exactly-fitting inputs (constant
# returns, exact polynomials), which must surface as an error rather than a
# coefficient made of rounding noise.
_VARIANCE_FLOOR = 1e-24


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


def box_starts(n_samples: int, scale: int) -> np.ndarray:
    """Start offsets of the 2*floor(T/s) boxes, forward pass then backward."""
    m = n_samples // scale
    fwd = np.arange(m, dtype=np.intp) * scale
    bwd = n_samples - (np.arange(m, dtype=np.intp) + 1) * scale
    return np.concatenate([fwd, bwd])


@lru_cache(maxsize=64)
def _residual_projector(scale: int, poly_order: int) -> np.ndarray:
    # I - Q Q^T with Q an orthonormal basis of the Vandermonde columns on
    # abscissa 1..s; applying it removes the best-fitting polynomial.
    i = np.arange(1.0, scale + 1.0)
    vand = np.vander(i, poly_order + 1, increasing=True)
    q_basis, _ = np.linalg.qr(vand)
    proj = np.eye(scale) - q_basis @ q_basis.T
    proj.setflags(write=False)
    return proj


def _check_scale(n_samples: int, cfg: DetrendConfig):
    if n_samples < 2 * cfg.scale:
        raise ScaleTooLargeError(
            f"series of length {n_samples} is too short for scale "
            f"{cfg.scale}: need at least {2 * cfg.scale} samples"
        )


def _box_profiles(values: np.ndarray, scale: int) -> np.ndarray:
    """Integrated box profiles for a (N, T) stack; shape (N, 2*floor(T/s), s)."""
    starts = box_starts(values.shape[-1], scale)
    idx = starts[:, None] + np.arange(scale)[None, :]
    return np.cumsum(values[..., idx], axis=-1)


def _detrended_residuals(profiles: np.ndarray, scale: int, poly_order: int) -> np.ndarray:
    # Gram-product kernel input: detrended ``profiles`` with the box mean
    # already removed (demeaning commutes with the moment sums and keeps the
    # matmul simple).
    resid = profiles @ _residual_projector(scale, poly_order)
    resid -= resid.mean(axis=-1, keepdims=True)
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


def _gram_power(ra: np.ndarray, rb: np.ndarray, q_list, rows=None) -> dict[float, list]:
    """Box means of the signed q/2 powers of the per-box Grams ra_b @ rb_b^T.

    ``ra`` and ``rb`` are (N, B, s) detrended, box-demeaned residual stacks.
    Each q maps to [F] with F (N x N), or with ``rows`` (A series indices)
    to [F[rows, :], F[:, rows]], bit for bit; the rest of F is never summed.
    Pass the same array twice for a stack against itself: both operands then
    share one buffer, which lets BLAS use its symmetric A @ A^T product.
    """
    n_boxes = ra.shape[1]
    a = np.ascontiguousarray(ra.transpose(1, 0, 2))
    b = a if rb is ra else np.ascontiguousarray(rb.transpose(1, 0, 2))
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
    # Sums start at +0.0, like np.zeros, so a -0.0 power never survives.
    acc = {q: [0.0] if rows is None else [0.0, 0.0] for q in q_list}
    for lo in range(0, n_boxes, _BOX_CHUNK):
        gram = a[lo : lo + _BOX_CHUNK] @ b[lo : lo + _BOX_CHUNK].transpose(0, 2, 1)
        parts = (gram,) if rows is None else (gram[:, rows, :], gram[:, :, rows])
        for q in q_list:
            for i, part in enumerate(parts):
                acc[q][i] += _signed_power(part, q).sum(axis=0)
    return {q: [total / n_boxes for total in acc[q]] for q in q_list}


def fluctuation_matrices(
    values: np.ndarray,
    scale: int,
    poly_order: int,
    q_values,
    labels=None,
) -> dict[float, np.ndarray]:
    """Pairwise fluctuation matrices F(q) for a stack of aligned series.

    ``values`` has shape (N, T).  For each q the returned (N, N) matrix
    holds the signed cross fluctuation for every pair; its diagonal is the
    per-series fluctuation used as the normalizer.  The per-box Gram
    products are shared across all q values.

    A ZeroVarianceError is raised for any series whose residuals are pure
    rounding noise; ``labels`` names the offender in the message.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatchError(f"expected (N, T) array, got shape {values.shape}")
    q_list = [float(q) for q in q_values]
    for q in q_list:
        if not (q > 0):
            raise ConfigError(f"q must be positive, got {q}")
    profiles = _box_profiles(values, scale)
    resid = _detrended_residuals(profiles, scale, poly_order)
    _check_residual_energy(profiles, resid, scale, labels)
    del profiles  # the kernel reads only resid; free it before its copy
    return {q: f for q, (f,) in _gram_power(resid, resid, q_list).items()}


def _check_residual_energy(profiles, resid, scale, labels):
    reference = np.einsum("nbs,nbs->n", profiles, profiles)
    energy = np.einsum("nbs,nbs->n", resid, resid)
    dead = energy <= _VARIANCE_FLOOR * reference
    if np.any(dead):
        i = int(np.argmax(dead))
        name = labels[i] if labels is not None else f"series {i}"
        raise ZeroVarianceError(
            f"{name} has zero detrended variance at scale {scale}; "
            "correlation undefined",
            label=str(name),
        )


def cross_fluctuation_matrices(
    head: np.ndarray,
    tail: np.ndarray,
    scale: int,
    poly_order: int,
    q_values,
    rows=None,
) -> dict[float, tuple[np.ndarray, ...]]:
    """Fluctuations of every ``head`` series against every ``tail`` series.

    ``head`` and ``tail`` are (N, T) stacks on the same sample grid (in the
    lagged setting: the same series truncated at opposite ends).  For each q
    returns (f_cross, f_head, f_tail): f_cross[i, j] pairs head series i with
    tail series j; f_head/f_tail are the per-series normalizers.

    With ``rows`` (a sequence of A series indices) each q instead maps to
    (f_rows, f_cols, f_head, f_tail), where f_rows is f_cross[rows, :]
    (A x N) and f_cols is f_cross[:, rows] (N x A), bit for bit; the rest
    of f_cross is never summed.
    """
    if head.shape != tail.shape:
        raise ShapeMismatchError(
            f"head/tail shape mismatch: {head.shape} vs {tail.shape}"
        )
    rh, rt = (
        _detrended_residuals(
            _box_profiles(np.ascontiguousarray(v, dtype=np.float64), scale),
            scale, poly_order,
        )
        for v in (head, tail)
    )
    diag_head = np.einsum("nbs,nbs->bn", rh, rh)
    diag_tail = np.einsum("nbs,nbs->bn", rt, rt)
    cross = _gram_power(rh, rt, [float(q) for q in q_values], rows)
    return {
        q: (
            *parts,
            _signed_power(diag_head, q).mean(axis=0),
            _signed_power(diag_tail, q).mean(axis=0),
        )
        for q, parts in cross.items()
    }


def _coefficient(f_xy: float, f_xx: float, f_yy: float, q: float,
                 x_label: str = "x", y_label: str = "y") -> float:
    if f_xx <= 0.0:
        raise ZeroVarianceError(
            f"{x_label} has zero detrended variance at this scale; "
            "correlation undefined", label=x_label,
        )
    if f_yy <= 0.0:
        raise ZeroVarianceError(
            f"{y_label} has zero detrended variance at this scale; "
            "correlation undefined", label=y_label,
        )
    rho = f_xy / np.sqrt(f_xx * f_yy)
    if q != 2.0 and abs(rho) > 1.0:
        warnings.warn(
            f"|rho_q| = {abs(rho):.6g} exceeds 1 for q = {q}; raw value kept",
            CorrelationBoundWarning,
            stacklevel=3,
        )
    return float(rho)


def rho_q(x, y, cfg: DetrendConfig) -> float:
    """Detrended cross-correlation coefficient of order q for one pair."""
    xa = as_series(x, "x")
    ya = as_series(y, "y")
    if xa.size != ya.size:
        raise ShapeMismatchError(f"length mismatch: {xa.size} vs {ya.size}")
    _check_scale(xa.size, cfg)
    fmat = fluctuation_matrices(
        np.stack([xa, ya]), cfg.scale, cfg.poly_order, [cfg.q], labels=("x", "y")
    )[cfg.q]
    return _coefficient(fmat[0, 1], fmat[0, 0], fmat[1, 1], cfg.q)


def rho_q_lagged(x, y, cfg: DetrendConfig, tau: int) -> float:
    """rho_q with x shifted by tau samples against y.

    tau < 0 advances x (x leads y); tau > 0 lags it.  The pair is truncated
    to the overlapping range before the coefficient is computed, so tau = 0
    is exactly rho_q.
    """
    if tau == 0:
        return rho_q(x, y, cfg)
    xa = as_series(x, "x")
    ya = as_series(y, "y")
    if xa.size != ya.size:
        raise ShapeMismatchError(f"length mismatch: {xa.size} vs {ya.size}")
    k = abs(int(tau))
    if xa.size - k < 2 * cfg.scale:
        raise ScaleTooLargeError(
            f"overlap of {xa.size - k} samples after shifting by {tau} is too "
            f"short for scale {cfg.scale}: need at least {2 * cfg.scale}"
        )
    if tau > 0:
        return rho_q(xa[:-k], ya[k:], cfg)
    return rho_q(xa[k:], ya[:-k], cfg)
