"""Quote ingestion and return-matrix construction.

Input files are minute bars, either one CSV per ticker with columns
``timestamp,price`` or a single wide CSV ``timestamp,<ticker>,...``.
Timestamps may be epoch seconds, epoch minutes or ISO-8601 and are stored
as epoch minutes throughout.

Each file is read once and parsed in one bulk pass (``np.loadtxt``, whose
floats are bitwise those of ``float()``); the row checks run on the arrays.
Tokens are parsed one by one only for an ISO timestamp column and for a
file the bulk pass rejects or would misread; that pass names the first bad
token's line.

A series is excluded as a peg when the population std of its T log returns
is below ``stable_threshold``.  Any two returns satisfy
(r_i - r_j)^2 <= 2 T std^2, so a series whose first ``_PEG_SCREEN`` returns
already spread wider than sqrt(2T) times the threshold (plus a rounding
margin, derived at `_volatile_head`) is kept without its full log, diff
and std; every other series goes through the exact rule.  The screen only
ever keeps a series, and only one the exact rule keeps too.

Alignment works on the common span [lo, hi] (latest first stamp, earliest
last one).  When every series holds hi - lo + 1 stamps there, each quotes
every minute of it: the common minutes are the span and each row is a plain
copy.  Otherwise one ``np.bincount`` of the stamps in the span finds the
minutes all N series quote; the count holds 8 bytes per minute of the span,
where the default uniform grid already holds 8N.  A gap-free matrix is
differenced in place, so its returns are a view into the (N, T + 1) buffer
of aligned log prices.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import (
    EmptyIntersectionError,
    QuoteParseError,
    ShapeMismatchError,
    ZeroVarianceError,
)


@dataclass(frozen=True)
class QuoteSeries:
    """One asset's minute-bar price history."""

    ticker: str
    timestamps: np.ndarray  # int64 epoch minutes, strictly increasing
    prices: np.ndarray      # float64, > 0

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        px = np.asarray(self.prices, dtype=np.float64)
        if ts.shape != px.shape or ts.ndim != 1:
            raise ShapeMismatchError(
                f"{self.ticker}: timestamps and prices must be equal-length 1-D arrays"
            )
        if ts.size and np.any(np.diff(ts) <= 0):
            bad = int(np.argmax(np.diff(ts) <= 0)) + 1
            raise QuoteParseError(
                f"timestamps not strictly increasing at row {bad + 1}",
                path=self.ticker,
            )
        if np.any(~np.isfinite(px)) or np.any(px <= 0):
            bad = int(np.argmax(~np.isfinite(px) | (px <= 0)))
            raise QuoteParseError(
                f"nonpositive or non-finite price at row {bad + 1}",
                path=self.ticker,
            )
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)

    def __len__(self) -> int:
        return int(self.timestamps.size)


@dataclass
class ReturnMatrix:
    """N aligned return series on a shared timestamp grid."""

    tickers: tuple[str, ...]
    timestamps: np.ndarray  # int64 epoch minutes, length T
    values: np.ndarray      # float64 (N, T); gap-free: a view of (N, T + 1) logs
    filled: np.ndarray | None = None  # bool (T,), True where zero-filled

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


# Bytes of the boolean rows one step of `check_finite` builds.
_CHECK_CHUNK = 1 << 18


def check_finite(values, names, timestamps=None, start: int = 0) -> None:
    """Raise ShapeMismatchError on the first non-finite entry of an (N, T)
    array in row order, naming its series, its sample (column + ``start``)
    and, given ``timestamps``, the sample's timestamp.  A box's first return
    never enters its profile, so the dfa kernel alone would not see one."""
    rows = max(1, _CHECK_CHUNK // max(1, values.shape[1]))
    for lo in range(0, len(values), rows):
        finite = np.isfinite(values[lo : lo + rows])
        if not finite.all():
            r, k = np.unravel_index(finite.argmin(), finite.shape)
            row, col = lo + int(r), int(k)
            when = "" if timestamps is None else f" (timestamp {timestamps[start + col]})"
            raise ShapeMismatchError(f"{names[row]}: return {values[row, col]} at sample "
                                     f"{start + col}{when} is not finite")


@dataclass
class AlignmentReport:
    """Per-series retention after restriction to the common grid."""

    retention: dict[str, float] = field(default_factory=dict)
    excluded: dict[str, str] = field(default_factory=dict)
    filled_fraction: float = 0.0


# Returns of a series' start that the peg screen reads (see `_volatile_head`).
_PEG_SCREEN = 256

_ISO_HINTS = ("-", ":", "T")
# Some line's first field (the timestamp column) holds one of the hints.
_ISO_IN_FIRST_FIELD = re.compile(r"[\r\n][^,\r\n]*[-:T]")


def _epoch_seconds(value):
    # Epoch minutes are plausible below ~1e8 (year 2160); above is seconds.
    return value * np.where(value < 1e8, 60.0, 1.0)


def _parse_timestamp(token: str) -> float:
    """One timestamp token as epoch seconds (ValueError if it does not
    parse); whole minutes are checked later."""
    token = token.strip()
    if any(h in token for h in _ISO_HINTS):
        dt = datetime.fromisoformat(token.replace("Z", "+00:00"))
        return dt.replace(tzinfo=dt.tzinfo or timezone.utc).timestamp()
    return float(_epoch_seconds(float(token)))


def _is_header(row: list[str]) -> bool:
    """A first row is a header when its timestamp does not parse and none of
    its prices is a number; ``2020-13-01,100`` is a (bad) data row."""
    for parse, token in zip([_parse_timestamp] + [float] * len(row), row):
        try:
            parse(token)
            return False
        except ValueError:
            pass
    return True


def _rows(text: str, first_line: int, path: str):
    """The non-empty CSV rows of ``text`` with the 1-based file line each
    starts on (a quoted field may span line breaks)."""
    rows = csv.reader(io.StringIO(text, newline=""))
    start = first_line
    try:
        for row in rows:
            if row:
                yield start, row
            start = first_line + rows.line_num
    except csv.Error as exc:  # e.g. a field over csv's 131,072-character limit
        raise QuoteParseError(f"unreadable row: {exc}", path, first_line + rows.line_num - 1) from exc


def _may_hold_long_field(body: str) -> bool:
    """Whether a field of ``body`` may exceed csv's field limit L.

    A field the bulk pass reads holds no comma, so one longer than L covers
    a whole comma-free chunk [k*h, (k+1)*h) with h = L // 2.  `str.find`
    stops at a chunk's first comma, so the check reads a few characters per
    chunk and at worst each character once.
    """
    h = max(1, csv.field_size_limit() // 2)
    return any(body.find(",", lo, lo + h) < 0 for lo in range(0, len(body) - h + 1, h))


def _bulk_parse(body: str, width: int, wide: bool) -> np.ndarray | None:
    """Every row as one (T, width) table of epoch seconds and prices, or
    None when only the per-token parse reads the body as the rules say."""
    # numpy strips the separators \x1c-\x1f around a number; float() does
    # not; and numpy reads a field that csv rejects as too long.
    if (not body.strip("\r\n") or any(c in body for c in "\x1c\x1d\x1e\x1f") or (
            any(h in body for h in _ISO_HINTS) and _ISO_IN_FIRST_FIELD.search("\n" + body))
            or _may_hold_long_field(body)):
        return None
    try:
        table = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", dtype=np.float64,
                           comments=None, quotechar='"', ndmin=2,
                           usecols=None if wide else (0, 1))
    except ValueError:
        return None
    table[:, 0] = _epoch_seconds(table[:, 0])
    return table if table.shape[1] == width else None


def _token_parse(body: str, first_line: int, path: str, width: int, wide: bool):
    """Parse token by token up to the first row that does not parse: the
    values of the rows before it, and that row's error (None if none)."""
    values = []
    for line_no, row in _rows(body, first_line, path):
        try:
            if len(row) < width or (wide and len(row) > width):
                raise ValueError(f"expected {width} columns, got {len(row)}")
            values.append([_parse_timestamp(row[0])] + [float(t) for t in row[1:width]])
        except ValueError as exc:
            return values, QuoteParseError(f"bad row {','.join(row)!r}: {exc}", path, line_no)
    return values, None


def _check_rows(table: np.ndarray, error, body: str, first_line: int, path: str) -> np.ndarray:
    """Epoch minutes of the rows once the checks pass, in the order a row-by-row
    reader meets them: per row a whole-minute timestamp, new and with positive
    finite prices; then ``error`` (the first row that did not parse), at least
    2 rows, strict order.  A failing row's line is looked up only to raise."""
    with np.errstate(invalid="ignore"):
        minutes = table[:, 0] / 60.0
        rounded = np.rint(minutes)
        stamp_ok = (np.abs(minutes - rounded) <= 1e-6) & (np.abs(rounded) < 2.0**63)
    stamps = np.where(stamp_ok, rounded, 0.0).astype(np.int64)
    first_seen = np.zeros(stamps.size, dtype=bool)
    first_seen[np.unique(stamps, return_index=True)[1]] = True
    prices = table[:, 1:]
    row_ok = stamp_ok & first_seen & (np.isfinite(prices) & (prices > 0)).all(axis=1)
    if not row_ok.all():
        k = int(np.argmin(row_ok))
        problem = ("timestamp is not a finite whole minute" if not stamp_ok[k]
                   else "duplicate timestamp" if not first_seen[k]
                   else "price is not positive and finite")
    elif error is not None:
        raise error
    elif stamps.size < 2:
        raise QuoteParseError("fewer than 2 rows", path)
    elif np.any(np.diff(stamps) < 0):
        k = int(np.argmax(np.diff(stamps) < 0)) + 1
        problem = "timestamps not strictly increasing"
    else:
        return stamps
    line_no, row = next(itertools.islice(_rows(body, first_line, path), k, None))
    raise QuoteParseError(f"{problem} in {','.join(row)!r}", path, line_no)


def _load_file(path: str, wide: bool | None = None) -> list[QuoteSeries]:
    """The series of one quote CSV; a file is wide (``wide=None``) when its
    first line holds two or more commas."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # The line holding the bad byte: count the line breaks before it
        # (``exc.object`` is the input after any byte order mark).
        bad = exc.object[exc.start : exc.start + 1]
        line = len((exc.object[:exc.start] + bad).splitlines())
        raise QuoteParseError(f"not UTF-8 text: byte {bad!r} ({exc.reason})", path, line) from exc
    if wide is None:
        wide = re.match(r"[^\r\n]*", text).group().count(",") >= 2
    buf = io.StringIO(text, newline="")
    try:
        header = next(csv.reader(buf), [])
    except csv.Error as exc:
        raise QuoteParseError(f"unreadable row: {exc}", path, 1) from exc
    has_header = bool(header) and _is_header(header)
    body, first_line = (text[buf.tell():], 2) if has_header else (text, 1)
    if wide and (not has_header or len(header) < 2):
        raise QuoteParseError("wide CSV needs a `timestamp,<ticker>,...` header row", path, 1)
    width = len(header) if wide else 2
    table, error = _bulk_parse(body, width, wide), None
    if table is None:
        values, error = _token_parse(body, first_line, path, width, wide)
        table = np.array(values, dtype=np.float64).reshape(-1, width)
    stamps = _check_rows(table, error, body, first_line, path)
    tickers = ([t.strip() for t in header[1:]] if wide
               else [os.path.splitext(os.path.basename(path))[0]])
    return [QuoteSeries(ticker=t, timestamps=stamps, prices=table[:, 1 + k].copy())
            for k, t in enumerate(tickers)]


def load_quotes(path: str) -> list[QuoteSeries]:
    """Load quotes from a directory of per-ticker CSVs or one wide CSV."""
    if not os.path.isdir(path):
        return _load_file(path)
    names = sorted(n for n in os.listdir(path) if n.lower().endswith(".csv"))
    if not names:
        raise QuoteParseError("no .csv files found", path)
    return [qs for name in names for qs in _load_file(os.path.join(path, name), wide=False)]


def log_returns(quotes: QuoteSeries) -> np.ndarray:
    """Log-price differences; length T - 1."""
    if len(quotes) < 2:
        raise ShapeMismatchError(f"{quotes.ticker}: need at least 2 prices")
    return np.diff(np.log(quotes.prices))


@np.errstate(over="ignore", invalid="ignore")  # a std that is not finite is named below
def normalize(x) -> np.ndarray:
    """Shift to zero mean and scale to unit variance (divisor-T convention);
    an empty, non-finite, constant or overflowing series raises, with its
    reason."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise ShapeMismatchError("cannot normalize an empty series")
    mean = arr.mean()
    std = arr.std()
    if not np.isfinite(std):
        check_finite(arr[None], ("x",))
        raise ZeroVarianceError("cannot normalize a series whose std overflows")
    if std == 0.0:
        raise ZeroVarianceError("cannot normalize a constant series")
    return (arr - mean) / std


def _common_minutes(series: list[QuoteSeries]) -> tuple[np.ndarray, np.ndarray]:
    """The minutes every series quotes and the (N, T) prices at them: the
    whole common span when every series quotes all of it, else found by one
    count over the span (see the module docstring)."""
    # An empty series leaves hi < lo, an empty span.
    lo = max(int(qs.timestamps[0]) if len(qs) else 0 for qs in series)
    hi = min(int(qs.timestamps[-1]) if len(qs) else -1 for qs in series)
    cuts = [slice(np.searchsorted(qs.timestamps, lo), np.searchsorted(qs.timestamps, hi, "right"))
            for qs in series]
    if all(cut.stop - cut.start == hi - lo + 1 for cut in cuts):
        # Strictly increasing whole minutes: hi - lo + 1 of them in [lo, hi]
        # are every minute of the span.
        prices = np.empty((len(series), hi - lo + 1))
        for row, qs, cut in zip(prices, series, cuts):
            row[:] = qs.prices[cut]
        return np.arange(lo, hi + 1, dtype=np.int64), prices
    offsets = np.concatenate([qs.timestamps[cut] for qs, cut in zip(series, cuts)])
    offsets -= lo
    in_all = np.bincount(offsets, minlength=max(hi - lo + 1, 0)) == len(series)
    del offsets  # freed before the prices are gathered
    common = lo + np.flatnonzero(in_all)
    prices = np.empty((len(series), common.size))
    for row, qs, cut in zip(prices, series, cuts):
        row[:] = qs.prices[cut][in_all[qs.timestamps[cut] - lo]]
    return common, prices


def _volatile_head(quotes: QuoteSeries, threshold: float) -> bool:
    """Whether the first ``_PEG_SCREEN`` returns spread so wide that the peg
    rule ``log_returns(quotes).std() < threshold`` is proven False.

    Bound: with mean m and sigma the exact population std of all T returns,
    (r_i - r_j)^2 <= 2 ((r_i - m)^2 + (r_j - m)^2) <= 2 T sigma^2, so the
    spread D (max - min) of any of them is at most sqrt(2T) sigma.  The
    head's returns are the floats `log_returns` makes (ufuncs work element by
    element).

    Margin, with unit roundoff u = 2^-53: ``np.std`` is sqrt(fl(S / T)), S
    the rounded sum of T rounded squares of rounded deviations from a rounded
    mean.  The exact S about any mean is at least T sigma^2, and in any
    summation order a square passes at most T - 1 additions, so the computed
    std is at least sigma (1 - u)^((T + 5) / 2).  The computed spread is at
    most D (1 + u) and the computed bound at least the exact one times
    (1 - u)^4.  So clearing D > sqrt(2T) c (1 + mu) with mu = 2 (T + 16) u
    gives std >= c (1 + mu) (1 - (T + 16) u / 2) > c.  The limit c is the
    threshold raised to 2^-400 (c >= threshold, so std >= c still rules the
    series in): then S >= D^2 / 2 > T 2^-800, and squares that underflow move
    S by at most T 2^-1075, a relative 2^-275, inside the margin.
    """
    t = len(quotes) - 1
    if t < 2:  # one return has no spread, and no return makes `log_returns` raise
        return False
    head = np.diff(np.log(quotes.prices[: _PEG_SCREEN + 1]))
    limit = max(threshold, 2.0**-400)
    return head.max() - head.min() > math.sqrt(2 * t) * limit * (1 + (t + 16) * 2.0**-52)


def _minutes_shared_with(base: QuoteSeries, series: list[QuoteSeries]) -> list[int]:
    """How many of each series' minutes the base also quotes: one mark per
    minute of the base's span, looked up by every series."""
    lo, hi = int(base.timestamps[0]), int(base.timestamps[-1])
    quoted = np.zeros(hi - lo + 1, dtype=bool)
    quoted[base.timestamps - lo] = True
    counts = []
    for qs in series:
        stamps = qs.timestamps
        inside = stamps[np.searchsorted(stamps, lo) : np.searchsorted(stamps, hi, "right")]
        counts.append(int(np.count_nonzero(quoted[inside - lo])))
    return counts


def build_return_matrix(
    series: list[QuoteSeries],
    *,
    base: str | None = None,
    grid: str = "uniform",
    stable_threshold: float = 1e-6,
) -> tuple[ReturnMatrix, AlignmentReport]:
    """Full ingestion path: optional re-basing, stable-asset exclusion,
    alignment and gap handling.

    grid = "uniform" keeps the wall-clock minute grid and fills missing
    minutes with zero returns (marked in ``filled`` so windows with too many
    fills can be skipped); grid = "intersection" re-indexes the common
    samples contiguously, eliminating session gaps.
    """
    if grid not in ("uniform", "intersection"):
        raise ShapeMismatchError(f"unknown grid policy {grid!r}")
    excluded: dict[str, str] = {}
    # Peg detection runs on the raw quote-currency series: re-based, a
    # pegged asset is just the inverse of the base and looks volatile.
    kept = []
    for qs in series:
        pegged = (not _volatile_head(qs, stable_threshold)
                  and log_returns(qs).std() < stable_threshold)
        if pegged:
            excluded[qs.ticker] = "near-zero return variance (pegged to quote currency)"
        else:
            kept.append(qs)
    # A series' length once re-based: the minutes it shares with the base.
    lengths = [len(qs) for qs in kept]
    if base is not None:
        base_series = next((s for s in series if s.ticker == base), None)
        if base_series is None:
            raise ShapeMismatchError(f"base ticker {base!r} not among inputs")
        if any(qs.ticker == base for qs in kept):
            excluded[base] = "base asset of the re-based universe"
        kept = [qs for qs in kept if qs.ticker != base]
        lengths = _minutes_shared_with(base_series, kept)
        for qs, n in zip(kept, lengths):
            if n == 0:
                raise EmptyIntersectionError(f"{qs.ticker} and {base} share no timestamps")
    if len(kept) < 2:
        raise ShapeMismatchError("fewer than 2 series left after exclusions")
    # Re-based series are aligned with their base in the same count, and
    # divided by it on the common minutes (the minutes of their re-based
    # copies that they all share).
    timestamps, prices = _common_minutes(kept if base is None else kept + [base_series])
    if timestamps.size == 0:
        raise EmptyIntersectionError("series share no common timestamps")
    if base is not None:
        prices = np.divide(prices[:-1], prices[-1], out=prices[:-1])
    report = AlignmentReport(
        retention={qs.ticker: timestamps.size / n for qs, n in zip(kept, lengths)}
    )
    if timestamps.size < 2:
        raise EmptyIntersectionError(
            "series share one timestamp; fewer than two common timestamps leave no return")
    report.excluded = excluded
    full = timestamps  # the intersection grid: every return a sample, no fills
    if grid == "uniform":
        full = np.arange(timestamps[0], timestamps[-1] + 1, dtype=np.int64)
    logs = np.log(prices, out=prices)
    gaps = full.size > timestamps.size  # only the uniform grid has any
    filled = np.full(full.size - 1, gaps)
    if gaps:  # the return ending at minute m sits in column m - full[0] - 1
        values = np.zeros((len(prices), full.size - 1))
        pos = timestamps[1:] - (full[0] + 1)
        filled[pos] = False
        for row, log_row in zip(values, logs):
            row[pos] = log_row[1:] - log_row[:-1]
    else:  # in place; numpy buffers the overlapping shifted operand
        for row in logs:
            np.subtract(row[1:], row[:-1], out=row[1:])
        values = logs[:, 1:]
    report.filled_fraction = float(filled.mean())
    return ReturnMatrix(tuple(qs.ticker for qs in kept), full[1:], values, filled), report
