"""Detrended cross-correlation coefficient of order q.

The estimator splits two equally long series into boxes of length s: the
T/s forward boxes when s divides T, else 2*floor(T/s) boxes (floor(T/s)
counted from each end of the series, so the two passes overlap in the
middle and each skips its own trailing remainder).  Inside every box the
samples are integrated into a profile, a least-squares polynomial of order
m is removed, and the box's residual variances and covariance are
collected.  Averaging those local moments raised to the power q/2 (with
the covariance sign kept) gives the fluctuation functions whose ratio is
the correlation coefficient.

Implementation notes
--------------------
* Two kernels sum signed q/2 powers of per-box Gram products over boxes.
  `_gram_power` takes a stack against itself (`fluctuation_matrices`): at
  q = 2 (classic DCCA) the sum is one (N, B*s) @ (B*s, N) product, and for
  other q the Grams are formed and powered `_SUB_CHUNK` boxes at a time.
  `cross_fluctuation_matrices` (lagged pairs) forms only the anchors'
  (A, N) rows of each box's Gram, both ways, and sums their powers over box
  ranges.  Both stay public under these names because `spectra` and
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
* All reductions run in a fixed order, so results are bit-identical
  across runs and across any outer parallelism.  For q != 2 every box sum
  is the in-order sum from +0.0 over all boxes: each sub-chunk's first box
  takes the running total and sum(axis=0) adds along the boxes, so the
  sub-chunk size never changes a bit.  At q = 2 the self sum is one
  product's sum over the B*s samples.  Across BLAS thread counts the bits
  hold for small stacks only: at N = 80 a whole run is checked, 1 against
  2 OpenBLAS threads (`tests/test_dfa.py`), but from about N = 250 on
  OpenBLAS splits the q = 2 product (and the batched Grams) across its
  threads, and the last bits follow their count (README).  Keep the
  detrending low-rank: an s x s projector product fails the N = 80 check
  at s = 180.
* A stack's own per-box Grams are exactly symmetric (with one operand
  buffer BLAS fills one triangle and numpy mirrors it), so `_gram_power`
  powers and sums their upper triangles only and mirrors the sums.
* The signed power sign(g) * |g|**(q/2) is specialized: q = 2 passes
  through, q = 4 is |g| * g, q = 1 is copysign(sqrt|g|, g) and any other q
  is copysign(|g|**(q/2), g), with |g| taken once for all q.  Multiplying by
  a sign is exact and sqrt is |g|**0.5 to the bit, so each form gives the
  same bits as the general formula except that a -0.0 input stays -0.0;
  the box sums start at +0.0, so no sum or output changes.
* At shift k the lagged pairs of a stretch [0, span) lie on box grids
  with start offsets 0, k and -k (mod s), plus span mod s when s does not
  divide span.  `cross_fluctuation_matrices` detrends each grid once for
  every shift, and takes the grid from 0 from the self pass when
  `pipeline` hands it over (`fluctuation_matrices(..., return_boxes=True)`).
  It forms each box's anchor rows (A, s) @ (s, N) and powers them, keeps
  the per-box energies and their powers, and sums each run of boxes whose
  partner box ends in the same block; the full N x N cross Gram is never
  formed.
* q must be positive.  Every coefficient (pair, matrix or lagged) is
  divided by `_coefficients`, which raises a ZeroVarianceError naming the
  series, q, the scale, any lag and whether it under- or overflows when a
  normalizer or a product of two is not a normal finite float (q = 4 on
  returns near 1e-150, 1e150, 2**-200 or 2**200).  |rho_q| <= 1 for every
  q > 0, lagged pairs included: per box |f2_xy| <= sqrt(f2_xx f2_yy)
  (Cauchy-Schwarz), so sum_b |f2_xy|**(q/2) <= sum_b (f2_xx f2_yy)**(q/4),
  which Cauchy-Schwarz over the boxes bounds by
  sqrt(sum_b f2_xx**(q/2) * sum_b f2_yy**(q/2)).  An entry past 1 is
  rounding; it is kept raw, and `network.distance_matrix` clamps its
  distance to 0.
  The zero-variance rule runs first and reads the box energies, which
  overflow before any q/2 power (returns near 1e155); it raises a
  ZeroVarianceError that says so.  An energy that underflows to exactly 0
  cannot be told from a flat series and gets the flat series' reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .data import check_finite
from .errors import (
    ConfigError,
    DegenerateFitError,
    ScaleTooLargeError,
    ShapeMismatchError,
    ZeroVarianceError,
)

# Per-box Grams are formed and powered this many boxes at a time, so they
# stay in cache from the product to the box sum (16 Grams of 80 x 80 are
# 0.8 MB); the box sums add in the same order at any sub-chunk size.
_SUB_CHUNK = 16

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
# are off where it is formed; a decorator only (each call sets its own
# state, so decorated calls nest; one `with` block cannot be entered twice).
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
    check_finite(arr[None], (name,))
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


def _signed_power(values: np.ndarray, q: float, magnitude: np.ndarray, out=None) -> np.ndarray:
    # sign(g) * |g|**(q/2), specialized; see the implementation notes.
    # ``magnitude`` is np.abs(values) and ``out`` the buffer to write (a
    # fresh one when None).
    if q == 2.0:
        return values
    if q == 4.0:
        return np.multiply(magnitude, values, out=out)
    out = np.sqrt(magnitude, out=out) if q == 1.0 else np.power(magnitude, q / 2.0, out=out)
    return np.copysign(out, values, out=out)


def _powers(values: np.ndarray, q_list) -> list[np.ndarray]:
    # The signed q/2 powers of ``values`` for every q, each in its own
    # buffer; |values| is taken once, and the last q writes over it.
    magnitude = np.abs(values)
    last = len(q_list) - 1
    return [_signed_power(values, q, magnitude, magnitude if i == last else None)
            for i, q in enumerate(q_list)]


@lru_cache(maxsize=16)
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Flat indices of the upper triangle (diagonal included) of an n x n
    # matrix and of its mirror image.
    rows, cols = np.triu_indices(n)
    upper, mirror = rows * n + cols, cols * n + rows
    upper.setflags(write=False)
    mirror.setflags(write=False)
    return upper, mirror


@_beyond_range
def _gram_power(resid: np.ndarray, q_list) -> dict[float, np.ndarray]:
    """Box sums of the signed q/2 powers of the per-box Grams r_b @ r_b^T
    of an (N, B, s) residual stack; each q maps to an (N, N) matrix.

    At q = 2 the box sum is one product.  For other q the Grams are formed
    and powered `_SUB_CHUNK` boxes at a time and the boxes add in order to
    a running total that starts at +0.0 (each sub-chunk's first box takes
    it, and sum(axis=0) adds along the boxes), so a -0.0 power never
    survives.
    """
    acc = dict.fromkeys(q_list, 0.0)
    if 2.0 in acc:
        flat = resid.reshape(len(resid), -1)  # a view: the stack is contiguous
        acc[2.0] = flat @ flat.T
    q_list = [q for q in q_list if q != 2.0]
    if not q_list:
        return acc
    n = len(resid)
    boxes = np.ascontiguousarray(resid.transpose(1, 0, 2))
    # Each Gram is exactly symmetric (one operand buffer lets BLAS fill one
    # triangle, which numpy mirrors), so only upper triangles are powered.
    upper, mirror = _triangle(n)
    carry = [0.0] * len(q_list)
    for lo in range(0, len(boxes), _SUB_CHUNK):
        chunk = boxes[lo : lo + _SUB_CHUNK]
        gram = chunk @ chunk.transpose(0, 2, 1)
        powers = _powers(gram.reshape(len(chunk), -1).take(upper, axis=1), q_list)
        for power, running in zip(powers, carry):
            power[0] += running
        carry = [power.sum(axis=0) for power in powers]
    for q, running in zip(q_list, carry):
        full = np.empty(n * n)
        full[upper] = full[mirror] = running
        acc[q] = full.reshape(n, n)
    return acc


def _check_variance(energy, reference, scale: int, labels, where: str = ""):
    # The zero-variance rule (see _VARIANCE_FLOOR), one check per series,
    # after checks that both energies are numbers, then finite (`inf <=
    # floor * inf` holds); ``where`` narrows the message to the stretch that
    # was checked.  A NaN comes from a non-finite return the caller passed.
    # An energy that underflows to 0 cannot be told from a flat series.
    for dead, what in (
        (np.isnan(energy) | np.isnan(reference), "a box energy that is NaN"),
        (~(np.isfinite(energy) & np.isfinite(reference)), "a box energy that overflows"),
        (energy <= _VARIANCE_FLOOR * reference, "zero detrended variance"),
    ):
        if np.any(dead):
            i = int(np.argmax(dead))
            raise ZeroVarianceError(
                f"{labels[i]} has {what}{where} at scale {scale}; correlation undefined",
                label=str(labels[i]),
            )


def _fault(value: float) -> str:
    return "underflows to 0" if value == 0 else "underflows" if value < _TINY else "overflows"


@_beyond_range
def _coefficients(cross, f_x, f_y, q: float, scale: int, x_labels, y_labels, lag=None):
    """rho = cross (A, C) / sqrt(outer(f_x (A,), f_y (C,))); see the
    implementation notes.  |rho| <= 1 holds in exact arithmetic for every
    q > 0, so an entry past 1 is rounding and is kept raw.
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
    return cross / np.sqrt(prod)


@dataclass(frozen=True)
class BoxSums:
    """Additive box sums of one stretch of an (N, T) stack at one scale.

    The sums of consecutive stretches add, in a fixed order, to the sums of
    their union; `coefficients` checks and averages a total once.
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

    def coefficients(self, scale: int, labels, lag=None) -> dict[float, np.ndarray]:
        """Per q the (N, N) `_coefficients` of F(q), the power sum over the box
        count, with a unit diagonal, once the zero-variance rule passes
        (`_check_variance`); ``labels`` names an offender, and errors name
        ``lag`` when it is given."""
        _check_variance(self.energy, self.reference, scale, labels,
                        "" if lag is None else f" in its lag {lag} overlap")
        out = {}
        for q, total in self.power.items():
            fmat = total / self.n_boxes
            diag = np.diag(fmat)
            out[q] = _coefficients(fmat, diag, diag, q, scale, labels, labels, lag)
            np.fill_diagonal(out[q], 1.0)
        return out


def _detrended_boxes(values: np.ndarray, scale: int, poly_order: int):
    """The residuals (N, B, s) of the boxes of an (N, T) stack (see the
    notes) and their per-box residual and profile energies, (B, N) each:
    the boxes that `fluctuation_matrices` sums and returns on request."""
    profiles = _box_profiles(values, scale)
    resid = _detrended_residuals(profiles, scale, poly_order)
    return (resid, np.einsum("nbs,nbs->bn", resid, resid),
            np.einsum("nbs,nbs->bn", profiles, profiles))


@_beyond_range
def fluctuation_matrices(
    values: np.ndarray, scale: int, poly_order: int, q_values, return_boxes: bool = False
) -> BoxSums | tuple[BoxSums, tuple]:
    """Box sums of the pairwise fluctuations of a stack of aligned series.

    ``values`` has shape (N, T).  For each q the (N, N) power sum holds the
    signed cross fluctuation of every pair summed over the boxes; the
    per-box Gram products are shared across all q values but 2.  Nothing here
    depends on a box's neighbours, so the sums of stretches that tile a
    series (each a multiple of s long) add to the sums of the whole.  With
    ``return_boxes`` the result is (sums, boxes), where boxes are the
    detrended boxes that `cross_fluctuation_matrices` can reuse.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatchError(f"expected (N, T) array, got shape {values.shape}")
    q_list = [float(q) for q in q_values]
    for k, q in enumerate(q_list):
        if not (q > 0):
            raise ConfigError(f"q must be positive, got {q}")
        if q in q_list[:k]:
            raise ConfigError(f"q = {q} is given more than once")
    boxes = _detrended_boxes(values, scale, poly_order)
    resid, energy, reference = boxes
    sums = BoxSums(
        power=_gram_power(resid, q_list),
        energy=energy.sum(axis=0),
        reference=reference.sum(axis=0),
        n_boxes=resid.shape[1],
    )
    return (sums, boxes) if return_boxes else sums


@dataclass(frozen=True)
class CrossSums:
    """Additive box sums of a set of lagged box pairs at one scale: the
    ``rows`` series' leading (head) boxes against every series' partner
    (tail) boxes, and their tails against every head.

    Every array is stacked by side, [0] heads and [1] tails, then by q in
    the order of ``q``.  Like `BoxSums`, the sums of pair sets add, in a
    fixed order, to the sums of their union (of the same rows);
    `coefficients` checks and divides a total once.
    """

    q: tuple[float, ...]
    rows: np.ndarray       # (A,) the kernel's row series indices, in order
    cross: np.ndarray      # (2, Q, A, N): row heads x tails, row tails x heads
    own: np.ndarray        # (2, Q, N) head and tail self powers
    energy: np.ndarray     # (2, N) head and tail residual energy
    reference: np.ndarray  # (2, N) head and tail profile energy

    @_beyond_range
    def __add__(self, other: "CrossSums") -> "CrossSums":
        return CrossSums(
            q=self.q,
            rows=self.rows,
            cross=self.cross + other.cross,
            own=self.own + other.own,
            energy=self.energy + other.energy,
            reference=self.reference + other.reference,
        )

    def coefficients(self, tau: int, cols, scale: int, labels) -> dict[float, np.ndarray]:
        """rho at lag tau of each ``rows`` series against each ``cols`` series.

        ``cols`` are series indices.  At tau > 0 the rows' heads pair with
        the cols' tails, at tau < 0 the rows' tails with the cols' heads,
        and only those series go through the zero-variance and coefficient
        rules; ``labels`` names the offender.  Each q maps to an (A, C)
        matrix.
        """
        rows, cols = self.rows, np.asarray(cols, dtype=np.intp)
        names = [labels[i] for i in rows], [labels[i] for i in cols]
        x, y = (0, 1) if tau > 0 else (1, 0)
        for side, idx, idx_names in ((x, rows, names[0]), (y, cols, names[1])):
            _check_variance(
                self.energy[side, idx], self.reference[side, idx], scale,
                idx_names, f" in its lag {tau} overlap",
            )
        return {
            q: _coefficients(self.cross[x, i][:, cols], self.own[x, i][rows],
                             self.own[y, i][cols], q, scale, *names, lag=tau)
            for i, q in enumerate(self.q)
        }


def _pair_grids(shifts, scale: int, span: int, n_samples: int):
    """(k, head starts) of every grid of lagged pairs; see
    `cross_fluctuation_matrices`.  Per shift the forward grid comes first,
    then the backward one unless it is the same."""
    grids = []
    for k in shifts:
        for offset in dict.fromkeys((0, (span - k) % scale)):
            starts = np.arange(offset, span, scale)
            starts = starts[starts + k + scale <= n_samples]
            if starts.size:
                grids.append((k, starts))
    return grids


class _Grid(NamedTuple):
    """The detrended boxes of one box grid, from its first box."""

    resid: np.ndarray    # (N, B, s) residuals
    anchors: np.ndarray  # (A, B, s) the rows' residuals
    stats: np.ndarray    # (B, 2 + Q, N) residual and profile energies, then
                         # the energies' signed q/2 powers

    def run(self, j: int, n: int) -> "_Grid":
        """Boxes j to j + n - 1."""
        cut = slice(j, j + n)
        return _Grid(self.resid[:, cut], self.anchors[:, cut], self.stats[cut])


def _grid(parts, rows, q_list) -> _Grid:
    # ``parts`` are consecutive `_detrended_boxes` results.
    resid, energy, reference = parts[0]
    if len(parts) > 1:  # the residuals' boxes run along axis 1, the energies' along 0
        resid = np.concatenate([r for r, _, _ in parts], axis=1)
        energy = np.concatenate([e for _, e, _ in parts])
        reference = np.concatenate([p for _, _, p in parts])
    return _Grid(
        resid=resid,
        anchors=resid[rows],
        stats=np.stack([energy, reference, *_powers(energy, q_list)], axis=1),
    )


@_beyond_range
def cross_fluctuation_matrices(
    values, shifts, scale: int, poly_order: int, q_values, rows, span=None, boxes=None
) -> dict[tuple[int, int], CrossSums]:
    """Box sums of the lagged box pairs of an (N, T) stack, per shift.

    At shift k >= 0 a pair is box [r, r + s) of a head series against box
    [r + k, r + k + s) of a tail series.  The pairs whose head starts in
    [0, span) (``span`` defaults to T) lie on two grids: the forward one
    from 0 and, unless it is the same, the backward one from
    (span - k) mod s; pairs that run past T are left out.  With span = T
    these are the boxes of `rho_q_lagged` at lag k.  Every box grid (start
    residue mod s) is detrended once, over the boxes the shifts use, and
    shared by every shift and both sides.  ``boxes``, when given, are the
    detrended boxes of values[:, :span] from `fluctuation_matrices` (s must
    divide span); the grid from 0 then reuses them.

    The result maps (k, d) to the `CrossSums` of the pairs whose tail box
    ends in [d * span, (d + 1) * span): of the ``rows`` series (a sequence
    of A series indices) against every series, both ways, with the
    per-series normalizers and the energies the zero-variance rule reads.
    Each pair's signed powers are formed per box and summed in box order.
    The rest of the N x N cross product is never formed, and nothing raises
    on data.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatchError(f"expected (N, T) array, got shape {values.shape}")
    span = values.shape[1] if span is None else span
    if boxes is not None and boxes[0].shape != (len(values), span // scale, scale):
        raise ShapeMismatchError(f"boxes of shape {boxes[0].shape} do not tile span {span}")
    rows = np.asarray(rows, dtype=np.intp)
    q_list = [float(q) for q in q_values]
    pair_grids = _pair_grids(shifts, scale, span, values.shape[1])
    # The first and last box start each grid needs, over heads and tails.
    used = {}
    for k, starts in pair_grids:
        for first, last in ((starts[0], starts[-1]), (starts[0] + k, starts[-1] + k)):
            lo, hi = used.get(first % scale, (first, last))
            used[first % scale] = min(lo, first), max(hi, last)
    grids = {}
    for res, (lo, hi) in used.items():
        origin, parts = lo, []
        if res == 0 and boxes is not None:
            origin, lo, parts = 0, span, [boxes]
        if lo <= hi:
            parts.append(_detrended_boxes(values[:, lo : hi + scale], scale, poly_order))
        grids[res] = origin, _grid(parts, rows, q_list)
    pieces = {}
    for k, starts in pair_grids:
        sides = []
        for first in (starts[0], starts[0] + k):
            origin, grid = grids[first % scale]
            sides.append(grid.run((first - origin) // scale, starts.size))
        head, tail = sides
        # Per box, (A, s) @ (s, N) on views of the series-major stacks: the
        # rows' heads against the tails, then the rows' tails against the heads.
        powers = [_powers(a.anchors.transpose(1, 0, 2) @ b.resid.transpose(1, 2, 0), q_list)
                  for a, b in ((head, tail), (tail, head))]
        # Pairs whose tail ends in the same block d are one run of boxes.
        ends = (starts + k + scale - 1) // span
        for d in np.unique(ends).tolist():
            run = slice(np.searchsorted(ends, d), np.searchsorted(ends, d, "right"))
            # The power sums start at +0.0, so no -0.0 survives.
            cross = [[p[run].sum(axis=0, initial=0.0) for p in side] for side in powers]
            stats = np.array([head.stats[run].sum(axis=0), tail.stats[run].sum(axis=0)])
            part = CrossSums(
                q=tuple(q_list),
                rows=rows,
                cross=np.array(cross),
                own=stats[:, 2:],
                energy=stats[:, 0],
                reference=stats[:, 1],
            )
            pieces[k, d] = pieces[k, d] + part if (k, d) in pieces else part
    return pieces


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
    rho = fluctuation_matrices(
        np.stack(pair), cfg.scale, cfg.poly_order, [cfg.q]
    ).coefficients(cfg.scale, ("x", "y"), lag=tau or None)[cfg.q]
    return float(rho[0, 1])
