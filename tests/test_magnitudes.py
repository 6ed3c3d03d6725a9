"""Returns scaled far from unit size.

At 1e-150 and 1e150 the q = 4 fluctuation functions themselves leave the
float range; at 2**-200 and 2**200 they stay inside it, but the product
under the coefficient's root does not.  At 1e160 the box energies that the
zero-variance rule reads overflow before any power is taken.  Every path
must end with a reason that names the series, the scale, q (unless the
energies overflow, which no q enters) and, on a lagged path, the signed
lag, and no coefficient may come out as nan or as a silent 0.0.
"""

import csv
import os

import numpy as np
import pytest

from qdcca.config import AnalysisConfig
from qdcca.data import QuoteSeries, ReturnMatrix, build_return_matrix
from qdcca.dfa import DetrendConfig, rho_q, rho_q_lagged
from qdcca.emit import write_outputs
from qdcca.errors import ZeroVarianceError
from qdcca.pipeline import ALL_FAMILIES, run_analysis
from qdcca.spectra import correlation_matrices, correlation_matrix
from qdcca.synth import GeneratorSpec, synth_quotes

# The returns' factor, and how the coefficient rule describes its fault
# ("box energy": the zero-variance rule's overflow reason instead).
_HOSTILE = [
    (1e-150, "underflows to 0"),
    (1e150, "overflows"),
    (2.0**-200, "underflows to 0"),
    (2.0**200, "overflows"),
    (1e160, "box energy"),
]
_CFG = DetrendConfig(scale=10, q=4.0)


def _returns(factor):
    values = np.random.default_rng(5).standard_normal((4, 2_880)) * factor
    return ReturnMatrix(tickers=tuple(f"SYN{i:02d}" for i in range(4)),
                        timestamps=np.arange(2_880, dtype=np.int64), values=values)


def _assert_named(reason, series, fault, lag=None):
    assert reason.startswith(f"{series} "), reason
    if fault == "box energy":
        where = "" if lag is None else f" in its lag {lag} overlap"
        tail = f" has a box energy that overflows{where} at scale 10"
    else:
        at = "" if lag is None else f"lag {lag}, "
        tail = f" {fault} at {at}q=4, scale 10"
    assert reason.endswith(f"{tail}; correlation undefined"), reason


@pytest.mark.parametrize("factor, fault", _HOSTILE)
def test_pairwise_and_matrix_paths_name_the_fault(factor, fault):
    returns = _returns(factor)
    x, y = returns.values[:2]
    for call, series, lag in [
        (lambda: rho_q(x, y, _CFG), "x", None),
        (lambda: rho_q_lagged(x, y, _CFG, -1), "x", -1),
        (lambda: correlation_matrix(returns, _CFG), "SYN00", None),
    ]:
        with pytest.raises(ZeroVarianceError) as exc:
            call()
        _assert_named(str(exc.value), series, fault, lag)


@pytest.mark.parametrize("factor, fault", _HOSTILE)
@pytest.mark.parametrize(
    "families, lags, lag",
    [(("lagged",), (1,), 1), (("lagged",), (-1,), -1), (ALL_FAMILIES, (-1, 0, 1), None)],
    ids=["lagged +1", "lagged -1", "all families"],
)
def test_sweep_skips_every_window_with_a_named_reason(tmp_path, factor, fault, families,
                                                      lags, lag):
    cfg = AnalysisConfig(q=(1.0, 4.0), s=(10,), window=1_440, step=1_440, lags=lags,
                         anchors=("SYN00",), threads=1)
    result = run_analysis(cfg, _returns(factor), families)
    assert result.windows == []
    assert [index for index, _ in result.skipped] == [0, 1]
    for _, reason in result.skipped:
        _assert_named(reason, "SYN00", fault, lag)
    manifest = write_outputs(result, cfg, str(tmp_path), families)
    for name in manifest["outputs"]:
        with open(os.path.join(tmp_path, name), newline="") as fh:
            assert len(list(csv.reader(fh))) == 1, name


def test_q_inside_the_float_range_is_still_computed():
    # At 1e-150 only q = 4 underflows: a q = 1 sweep computes every window
    # and its lagged means are finite and not the silent 0.0.
    cfg = AnalysisConfig(q=(1.0,), s=(10,), window=1_440, step=1_440, lags=(-1, 0, 1),
                         anchors=("SYN00",), threads=1)
    result = run_analysis(cfg, _returns(1e-150), ("lagged",))
    assert result.skipped == []
    means = [v for w in result.windows for taus in w.lagged.values() for v in taus.values()]
    assert len(means) == 6
    assert all(np.isfinite(v) and v != 0.0 for v in means)
    unscaled = run_analysis(cfg, _returns(1.0), ("lagged",))
    for w, ref in zip(result.windows, unscaled.windows):
        for key, taus in w.lagged.items():
            for tau, v in taus.items():
                assert abs(v - ref.lagged[key][tau]) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2])
def test_price_scale_moves_rho_q_by_rounding_only(seed):
    # A common price factor cancels in the log differences except for the
    # rounding of the logs, whose absolute error grows with |log price|
    # (about 1.1e-13 near log(1e300) = 691, or 1e-10 of a 1e-3 minute
    # return).  Over one paper window of 10,080 minutes the coefficients
    # move by at most 1.1e-13 at 1e-8 and 7.6e-12 at 1e+-300 (seeds 1-6);
    # windows of 2,880 minutes reach 1.5e-11 at 1e300.
    spec = GeneratorSpec("factor", 8, 10_080, {"beta": 1.0, "sigma": 1.0, "response_spread": 30})
    quotes = synth_quotes(spec, seed)
    want = correlation_matrices(build_return_matrix(quotes)[0], 10, 2, (1.0, 4.0))
    for factor in (1e-8, 1e-300, 1e300):
        scaled = [QuoteSeries(q.ticker, q.timestamps, q.prices * factor) for q in quotes]
        got = correlation_matrices(build_return_matrix(scaled)[0], 10, 2, (1.0, 4.0))
        for q in (1.0, 4.0):
            assert np.max(np.abs(got[q].values - want[q].values)) <= 1e-11, (factor, q)
