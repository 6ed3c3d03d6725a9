"""Spectral analysis of the detrended correlation matrix.

Builds the N x N coefficient matrix for a window of aligned return series,
decomposes it, and removes the leading mode's fitted contribution from
every series to produce residual returns.  Eigenvector localization (the
Shannon entropy and the largest squared component) is computed per vector
where it is read: `shannon_entropy(summary.eigenvectors[:, i])`.

The coefficients and their checks (underflow, overflow) are
`dfa.BoxSums.coefficients`; this module adds none.  An entry past +-1 is
rounding and is kept raw.

Eigenvalue/eigenvector conventions: eigenvalues are sorted descending and
each eigenvector is oriented so that its largest-magnitude component is
positive.  For q != 2 the matrix need not be positive semidefinite;
negative eigenvalues are reported as-is.  Eigenvalue gaps below 1e-8 mark
the summary as degenerate: vectors inside a degenerate eigenspace, and so
their entropies, are solver-dependent and excluded from cross-run
determinism guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import data
from .dfa import DetrendConfig, _check_scale, fluctuation_matrices
from .errors import EigensolverError, ShapeMismatchError, ZeroVarianceError

_DEGENERATE_GAP = 1e-8


@dataclass(frozen=True)
class DetrendedCorrelationMatrix:
    """Symmetric unit-diagonal matrix of pairwise coefficients."""

    values: np.ndarray
    labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenstructure of one correlation matrix."""

    eigenvalues: np.ndarray    # descending, length N
    eigenvectors: np.ndarray   # column i pairs with eigenvalues[i]
    degenerate: bool = False


@dataclass(frozen=True)
class ResidualReturns:
    """Per-asset least-squares removal of the leading eigensignal.  The
    residual series are formed when first read: the q = 2 residual pass
    (`pipeline`) reads only the fit."""

    alpha: np.ndarray       # slope per asset
    beta: np.ndarray        # intercept per asset
    values: np.ndarray = field(repr=False)   # (N, T) series that were fitted
    signal: np.ndarray = field(repr=False)   # (T,) eigensignal they were fitted on

    @cached_property
    def residuals(self) -> np.ndarray:
        """(N, T) series minus their fitted part."""
        return self.values - self.alpha[:, None] * self.signal[None, :] - self.beta[:, None]


def _unpack(returns) -> tuple[np.ndarray, tuple[str, ...]]:
    # An array is checked here; a ReturnMatrix is taken as checked (a sweep checks it once).
    if isinstance(returns, data.ReturnMatrix):
        return returns.values, returns.tickers
    values = np.ascontiguousarray(returns, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatchError(f"expected (N, T) returns, got shape {values.shape}")
    labels = tuple(f"series {i}" for i in range(values.shape[0]))
    data.check_finite(values, labels)
    return values, labels


def correlation_matrices(
    returns,
    scale: int,
    poly_order: int,
    q_values,
    sums=None,
) -> dict[float, DetrendedCorrelationMatrix]:
    """Coefficient matrices for several q values sharing one detrending pass.

    ``sums``, when given, are the window's box sums computed ahead, a
    `dfa.BoxSums` (`pipeline.run_analysis` adds them up from blocks that
    overlapping windows share); without them the window's own values are
    summed.  Every check runs once, on the window's totals.
    """
    values, labels = _unpack(returns)
    if values.shape[0] < 2:
        raise ShapeMismatchError("need at least 2 series")
    _check_scale(values.shape[1], DetrendConfig(scale=scale, poly_order=poly_order))
    if sums is None:
        sums = fluctuation_matrices(values, scale, poly_order, q_values)
    rhos = sums.coefficients(scale, labels)
    return {q: DetrendedCorrelationMatrix(values=rho, labels=labels) for q, rho in rhos.items()}


def correlation_matrix(returns, cfg: DetrendConfig) -> DetrendedCorrelationMatrix:
    """Coefficient matrix for all unordered pairs of a return window."""
    return correlation_matrices(returns, cfg.scale, cfg.poly_order, [cfg.q])[cfg.q]


def eigendecompose(c: DetrendedCorrelationMatrix) -> SpectralSummary:
    """Full symmetric eigendecomposition, eigenvalues descending.

    Each eigenvector is sign-fixed so its largest-magnitude component is
    positive, which makes summaries comparable across windows.
    """
    mat = c.values
    if not np.all(np.isfinite(mat)):
        raise EigensolverError("matrix contains non-finite entries")
    try:
        eigvals, eigvecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver failed: {exc}; dim={mat.shape[0]}, "
            f"max|entry|={np.abs(mat).max():.3g}, "
            f"asym={np.abs(mat - mat.T).max():.3g}"
        ) from exc
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    peak = eigvecs[np.abs(eigvecs).argmax(axis=0), np.arange(eigvecs.shape[1])]
    eigvecs *= np.where(peak < 0, -1.0, 1.0)
    gaps = -np.diff(eigvals)
    return SpectralSummary(
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        degenerate=bool(gaps.size and gaps.min() < _DEGENERATE_GAP),
    )


def shannon_entropy(v) -> float:
    """Localization entropy of a unit vector: 0 = single component,
    ln N = uniform."""
    vec = np.asarray(v, dtype=np.float64)
    norm = np.sqrt(vec @ vec)
    if not (abs(norm - 1.0) <= 1e-9):  # a NaN norm fails too
        raise ShapeMismatchError(f"vector is not unit length: |v| = {float(norm)}")
    p = vec**2
    p = p[p > 0.0]  # 0 log 0 = 0
    # A component of 1 + 2**-52 gives -4.4e-16, and a basis vector -0.0.
    return max(0.0, float(-(p * np.log(p)).sum()))


def eigensignal(returns, v1) -> np.ndarray:
    """Leading-mode portfolio signal: component-weighted sum of the series."""
    values, _ = _unpack(returns)
    vec = np.asarray(v1, dtype=np.float64)
    if vec.ndim != 1 or vec.size != values.shape[0]:
        raise ShapeMismatchError(
            f"eigenvector length {vec.size} does not match {values.shape[0]} series"
        )
    return vec @ values


def residual_returns(returns, z1) -> ResidualReturns:
    """Ordinary least squares of every series on the eigensignal: the fit
    parameters, and the residual series when read.  The slopes need no
    centred series: <x - mean x, z - mean z> = <x, z - mean z>."""
    values, _ = _unpack(returns)
    z = np.asarray(z1, dtype=np.float64)
    if z.ndim != 1 or z.size != values.shape[1]:
        raise ShapeMismatchError(
            f"eigensignal length {z.size} does not match {values.shape[1]} samples"
        )
    z_mean = z.mean()
    zc = z - z_mean
    # Not zc @ zc: OpenBLAS splits a long dot product across its threads,
    # so its last bits would follow the BLAS thread count.
    var = np.einsum("t,t->", zc, zc)
    if var == 0.0:
        raise ZeroVarianceError("eigensignal is constant; fit undefined")
    alpha = values @ zc / var
    beta = values.mean(axis=1) - alpha * z_mean
    return ResidualReturns(alpha=alpha, beta=beta, values=values, signal=z)
