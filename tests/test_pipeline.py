import csv
import math
import warnings
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from qdcca import data, emit, network, pipeline, spectra
from qdcca.config import AnalysisConfig
from qdcca.data import ReturnMatrix, normalize
from qdcca.dfa import DetrendConfig, rho_q_lagged
from qdcca.emit import write_outputs
from qdcca.errors import ConfigError, ShapeMismatchError, ZeroVarianceError
from qdcca.pipeline import (
    ALL_FAMILIES,
    rolling_windows,
    run_analysis,
    threshold_periods,
)
from qdcca.spectra import correlation_matrices
from qdcca.synth import GeneratorSpec, synth_returns

from oracles import residual_spectrum_literal, rho_q_literal


def _factor_matrix(n, t, seed, spread=0):
    return synth_returns(
        GeneratorSpec(
            kind="factor", n_series=n, n_samples=t,
            params={"beta": 1.0, "sigma": 1.0, "response_spread": spread},
        ),
        seed,
    )


def test_rolling_window_counts():
    assert len(rolling_windows(921_600, 10_080, 1_440)) == 634
    assert len(rolling_windows(10_080, 10_080, 1_440)) == 1
    assert len(rolling_windows(10_080 + 1_439, 10_080, 1_440)) == 1
    assert len(rolling_windows(10_080 + 1_440, 10_080, 1_440)) == 2
    with pytest.raises(ConfigError, match="shorter than one window of 10080"):
        rolling_windows(10_079, 10_080, 1_440)
    for width, step in ((0, 1_440), (10_080, 0), (-1, 1)):
        with pytest.raises(ConfigError, match="must be positive"):
            rolling_windows(921_600, width, step)


def test_window_coverage_and_overlap():
    windows = rolling_windows(400, 100, 30)
    assert windows[0][0] == 0
    for (s0, e0), (s1, e1) in zip(windows, windows[1:]):
        assert s1 - s0 == 30
        assert e0 - s1 == 100 - 30  # overlap = width - step
    covered = set()
    for s, e in windows:
        covered.update(range(s, e))
    assert covered == set(range(0, windows[-1][1]))


def test_threshold_periods_run_detection():
    pts = [(10, 0.1), (20, 0.3), (30, 0.4), (40, 0.2)]
    assert threshold_periods(pts, 0.25) == [(20, 30)]
    assert threshold_periods([(1, 0.0), (2, 0.1)], 0.25) == []
    assert threshold_periods([(1, 0.5), (2, 0.6)], 0.25) == [(1, 2)]
    assert threshold_periods([], 0.25) == []
    with pytest.raises(ShapeMismatchError):
        threshold_periods([(2, 0.5), (1, 0.5)], 0.25)


def _small_cfg(**kw):
    defaults = dict(
        q=(2.0,), s=(50,), poly_order=2, window=1_000, step=500,
        lags=(-1, 0, 1), anchors=("SYN00", "SYN01"), seed=5, threads=1,
    )
    defaults.update(kw)
    return AnalysisConfig(**defaults)


def test_run_analysis_three_windows_deterministic():
    returns = _factor_matrix(5, 2_000, seed=1)
    cfg = _small_cfg()
    first = run_analysis(cfg, returns)
    second = run_analysis(cfg, returns)
    assert len(first.windows) == 3
    assert first.skipped == []
    for a, b in zip(first.windows, second.windows):
        assert a.spectral[(2.0, 50)].lambda1 == b.spectral[(2.0, 50)].lambda1
        assert a.mean_rho == b.mean_rho
        ta, tb = a.trees[(2.0, 50)], b.trees[(2.0, 50)]
        for name in ("i", "j", "distance", "rho"):
            assert np.array_equal(getattr(ta, name), getattr(tb, name))
        assert a.partitions[50].communities == b.partitions[50].communities
        assert a.lagged == b.lagged


def test_run_analysis_thread_count_invariance():
    returns = _factor_matrix(4, 2_000, seed=2)
    serial = run_analysis(_small_cfg(threads=1), returns)
    threaded = run_analysis(_small_cfg(threads=4), returns)
    for a, b in zip(serial.windows, threaded.windows):
        assert a.spectral == b.spectral
        assert a.lagged == b.lagged
        assert a.mean_rho == b.mean_rho


def test_run_analysis_residual_fields():
    returns = _factor_matrix(5, 1_200, seed=3)
    cfg = _small_cfg(window=1_000, step=200, residual=True)
    result = run_analysis(cfg, returns, families=("spectra",))
    for w in result.windows:
        row = w.spectral[(2.0, 50)]
        assert row.res_lambda1 is not None
        assert row.res_lambda1 <= row.lambda1 + 1e-9
        assert row.res_h1 is not None and row.res_v1max is not None


def test_run_analysis_lag_pass_contemporaneous_factor():
    # With an unlagged common factor the synchronous coefficient dominates
    # both shifted ones.
    wins = 0
    for seed in range(10):
        returns = _factor_matrix(6, 3_000, seed=seed)
        cfg = _small_cfg(window=3_000, step=3_000, q=(2.0,), s=(20,))
        result = run_analysis(cfg, returns, families=("lagged",))
        taus = result.windows[0].lagged[("SYN00", 2.0, 20)]
        if taus[0] > taus[1] and taus[0] > taus[-1]:
            wins += 1
    assert wins >= 9


def test_run_analysis_lagged_matches_pairwise_means():
    from qdcca.dfa import DetrendConfig, rho_q_lagged

    returns = _factor_matrix(4, 1_500, seed=11)
    cfg = _small_cfg(window=1_500, step=1_500, q=(2.0,), s=(30,), anchors=("SYN00",))
    result = run_analysis(cfg, returns, families=("lagged",))
    got = result.windows[0].lagged[("SYN00", 2.0, 30)]
    dcfg = DetrendConfig(scale=30, poly_order=2, q=2.0)
    values = returns.values
    norm = (values - values.mean(axis=1, keepdims=True)) / values.std(axis=1, keepdims=True)
    for tau in (-1, 0, 1):
        direct = np.mean(
            [rho_q_lagged(norm[0], norm[j], dcfg, tau) for j in range(1, 4)]
        )
        assert got[tau] == pytest.approx(direct, abs=1e-12)


def test_run_analysis_lagged_two_anchors_q_not_2():
    # The lagged pass powers only the anchor rows and columns; at q != 2
    # with two anchors every tau mean must still be the pairwise mean over
    # the non-anchor assets.
    from qdcca.dfa import DetrendConfig, rho_q_lagged

    returns = _factor_matrix(6, 1_500, seed=12, spread=5)
    cfg = _small_cfg(
        window=1_500, step=1_500, q=(1.0, 4.0), s=(30,),
        anchors=("SYN00", "SYN02"), lags=(-2, -1, 0, 1, 2),
    )
    result = run_analysis(cfg, returns, families=("lagged",))
    values = returns.values
    norm = (values - values.mean(axis=1, keepdims=True)) / values.std(axis=1, keepdims=True)
    others = (1, 3, 4, 5)
    for a, name in ((0, "SYN00"), (2, "SYN02")):
        for q in (1.0, 4.0):
            got = result.windows[0].lagged[(name, q, 30)]
            assert sorted(got) == [-2, -1, 0, 1, 2]
            dcfg = DetrendConfig(scale=30, poly_order=2, q=q)
            for tau in range(-2, 3):
                direct = np.mean(
                    [rho_q_lagged(norm[a], norm[j], dcfg, tau) for j in others]
                )
                assert got[tau] == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("s", [20, 30])
@pytest.mark.parametrize("lag_set", ["around s", "past s"])
def test_lagged_means_with_box_grids_shared_across_lags(s, lag_set):
    # Lags 1, s - 1, s and s + 1 put their boxes on the grids at offsets 0,
    # 1 and s - 1 from a stretch's start, each grid read by several lags;
    # s + 1 and 2s - 1 alone make a larger lag reach a grid's earliest box.
    # At s = 20 the windows add shared 200-sample blocks; 30 does not divide
    # 200, so each window is its own stretch.  Every lagged mean of both
    # anchors must be the mean of the pairwise lagged coefficients.
    returns = _factor_matrix(5, 1_001, seed=13, spread=5)
    shifts = {"around s": (1, s - 1, s, s + 1), "past s": (s + 1, 2 * s - 1)}[lag_set]
    cfg = _small_cfg(window=600, step=200, q=(1.0, 2.0, 4.0), s=(s,),
                     anchors=("SYN00", "SYN03"),
                     lags=tuple(sorted({0, *shifts, *(-k for k in shifts)})))
    result = run_analysis(cfg, returns, families=("lagged",))
    assert result.skipped == [] and len(result.windows) == 3
    others = (1, 2, 4)
    for w in result.windows:
        window = returns.values[:, w.index * cfg.step : w.index * cfg.step + cfg.window]
        for a, name in ((0, "SYN00"), (3, "SYN03")):
            for q in cfg.q:
                dcfg = DetrendConfig(scale=s, poly_order=cfg.poly_order, q=q)
                got = w.lagged[(name, q, s)]
                assert sorted(got) == list(cfg.lags)
                for tau in cfg.lags:
                    direct = np.mean([rho_q_lagged(window[a], window[j], dcfg, tau)
                                      for j in others])
                    assert abs(got[tau] - direct) <= 1e-12, (name, q, tau)


def test_run_analysis_skips_bad_window_and_continues():
    returns = _factor_matrix(4, 2_000, seed=4)
    values = returns.values.copy()
    values[2, 0:1_000] = 0.0  # constant inside the first window only
    broken = ReturnMatrix(
        tickers=returns.tickers, timestamps=returns.timestamps, values=values
    )
    result = run_analysis(_small_cfg(), broken, families=("spectra",))
    assert len(result.skipped) == 1
    assert result.skipped[0][0] == 0
    assert "SYN02" in result.skipped[0][1]
    assert len(result.windows) == 2


def test_sweep_keeps_rounded_out_of_bound_rho_raw_and_silent(tmp_path):
    # Series that share one Student-t factor up to noise of 1e-12 to 1e-8
    # have coefficients that round past 1 (|rho_q| <= 1 is a theorem, see
    # the dfa notes).  The sweep and its files take them without a warning:
    # the edge keeps the raw rho, and its distance is clamped to 0.
    rng = np.random.default_rng(0)
    noise = 10.0 ** rng.uniform(-12, -8, (4, 1)) * rng.standard_normal((4, 2_000))
    values = rng.choice([-1.0, 1.0], (4, 1)) * rng.standard_t(1.5, 2_000) + noise
    returns = ReturnMatrix(tickers=tuple(f"A{i}" for i in range(4)),
                           timestamps=np.arange(2_000, dtype=np.int64), values=values)
    cfg = AnalysisConfig(q=(1.0, 4.0), s=(10,), window=1_000, step=500, lags=(-1, 0, 1),
                         anchors=("A0",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_analysis(cfg, returns, ALL_FAMILIES)
        write_outputs(result, cfg, str(tmp_path), ALL_FAMILIES)
    assert result.skipped == [] and len(result.windows) == 3
    past = {}
    for path in sorted(tmp_path.glob("edges_*.csv")):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                if float(row["rho"]) > 1.0:
                    assert float(row["d"]) == 0.0
                    past[path.name] = float(row["rho"])
    assert past["edges_4_10_00000.csv"] == 1.0000000000000007


def test_run_analysis_gap_fill_skip():
    returns = _factor_matrix(3, 2_000, seed=6)
    filled = np.zeros(2_000, dtype=bool)
    filled[100:150] = True  # 5% of the first window
    gappy = ReturnMatrix(
        tickers=returns.tickers,
        timestamps=returns.timestamps,
        values=returns.values,
        filled=filled,
    )
    result = run_analysis(_small_cfg(max_missing=0.01), gappy, families=("periods",))
    assert [idx for idx, _ in result.skipped] == [0]
    assert len(result.windows) == 2


def test_gap_fill_check_runs_once_per_window_and_gates_its_job():
    # The sweep checks each window's gap fills once, when it plans the
    # blocks, and a window that fails runs no window job.  Windows 0 and 1
    # hold 5% gap fills, window 2 none.
    returns = _factor_matrix(3, 2_000, seed=6)
    filled = np.zeros(2_000, dtype=bool)
    filled[600:650] = True
    gappy = replace(returns, filled=filled)
    check = mock.Mock(wraps=pipeline.gap_fill_skip)
    window = mock.Mock(wraps=pipeline.compute_window)
    with mock.patch.object(pipeline, "gap_fill_skip", check), \
            mock.patch.object(pipeline, "compute_window", window):
        result = run_analysis(_small_cfg(max_missing=0.01), gappy, ALL_FAMILIES)
    assert [idx for idx, _ in result.skipped] == [0, 1]
    assert [w.index for w in result.windows] == [2]
    assert [c.args[1:3] for c in check.call_args_list] == [(0, 1_000), (500, 1_500),
                                                           (1_000, 2_000)]
    assert [c.args[3] for c in window.call_args_list] == [2]


@pytest.mark.parametrize("lags", [(0,), (-1, 1)])
def test_lagged_family_with_every_series_an_anchor_is_rejected(lags):
    # The lagged pass averages each anchor's row over the series that are
    # not anchors.  With none left it averaged over zero series: a numpy
    # warning and nan rows.  The sweep refuses before any window runs.
    returns = _factor_matrix(2, 2_000, seed=6)
    cfg = _small_cfg(lags=lags)
    window = mock.Mock(wraps=pipeline.compute_window)
    with mock.patch.object(pipeline, "compute_window", window):
        with pytest.raises(ConfigError) as exc:
            run_analysis(cfg, returns, ("spectra", "lagged"))
    assert str(exc.value) == ("lagged coefficients need a series that is not an anchor, "
                              "and every series is one: SYN00, SYN01")
    assert window.call_count == 0
    # Without the lagged family, or with no lags, nothing is averaged.
    assert len(run_analysis(cfg, returns, ("spectra",)).windows) == 3
    assert len(run_analysis(replace(cfg, lags=()), returns, ("lagged",)).windows) == 3
    # A third series leaves one to average over.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_analysis(cfg, _factor_matrix(3, 2_000, seed=6), ("lagged",))
    assert len(result.windows) == 3
    for w in result.windows:
        assert sorted(w.lagged) == [(a, 2.0, 50) for a in cfg.anchors]
        assert all(math.isfinite(v) for taus in w.lagged.values() for v in taus.values())


def test_global_normalization_flag():
    # The coefficient reads the returns as given and is affine-invariant at
    # m >= 1, so normalizing once over the full series instead of per
    # window changes only the residual pass, which regresses on the
    # normalized values.
    returns = _factor_matrix(3, 2_000, seed=7)
    per_window, whole = (
        run_analysis(_small_cfg(global_norm=flag, residual=True), returns,
                     families=("spectra", "lagged", "periods"))
        for flag in (False, True)
    )
    assert [w.index for w in whole.windows] == [w.index for w in per_window.windows] == [0, 1, 2]
    res_gap = 0.0
    for a, b in zip(per_window.windows, whole.windows):
        assert a.spectral.keys() == b.spectral.keys() and a.lagged.keys() == b.lagged.keys()
        for key, row in a.spectral.items():
            other = b.spectral[key]
            assert row.degenerate == other.degenerate
            for name in ("lambda1", "lambda2", "h1", "h2", "v1max", "v2max"):
                assert abs(getattr(row, name) - getattr(other, name)) <= 1e-12
            for name in ("res_lambda1", "res_h1", "res_v1max"):
                res_gap = max(res_gap, abs(getattr(row, name) - getattr(other, name)))
        for key, value in a.mean_rho.items():
            assert abs(value - b.mean_rho[key]) <= 1e-12
        for key, taus in a.lagged.items():
            assert taus.keys() == b.lagged[key].keys()
            for tau, value in taus.items():
                assert abs(value - b.lagged[key][tau]) <= 1e-12
    assert res_gap > 1e-6


def test_global_normalization_names_a_constant_series():
    # Normalizing once over the full series fails on a series that is flat
    # throughout; the error names it and sets its label, as the per-window
    # residual pass's skip reason names it.
    returns = _factor_matrix(3, 2_000, seed=8)
    values = returns.values.copy()
    values[1] = 0.0
    flat = replace(returns, values=values)
    reason = "SYN01: cannot normalize a constant series"
    with pytest.raises(ZeroVarianceError) as err:
        run_analysis(_small_cfg(global_norm=True, residual=True), flat, families=("spectra",))
    assert str(err.value) == reason and err.value.label == "SYN01"
    per_window = run_analysis(_small_cfg(residual=True), flat, families=("spectra",))
    assert per_window.skipped == [(0, reason), (1, reason), (2, reason)]


@pytest.mark.parametrize("global_norm", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_run_analysis_names_a_non_finite_return(global_norm, bad):
    # Sample 100 starts a box at s = 10, and a box's first return never
    # enters its profile: a NaN there used to vanish, both windows done
    # with the lambda1 of 0.0 in its place.  Under global_norm it read as
    # "cannot normalize a constant series".
    returns = _factor_matrix(4, 3_000, seed=3)
    values = returns.values.copy()
    values[1, 100] = bad
    cfg = _small_cfg(q=(1.0, 2.0), s=(10,), window=1_440, step=1_440, lags=(0,),
                     global_norm=global_norm)
    reason = (f"SYN01: return {bad} at sample 100 "
              f"(timestamp {returns.timestamps[100]}) is not finite")
    with pytest.raises(ShapeMismatchError) as err:
        run_analysis(cfg, replace(returns, values=values), families=("spectra",))
    assert str(err.value) == reason


@pytest.mark.parametrize("chunk", [1, 3_000 * 2, data._CHECK_CHUNK])
def test_finite_check_names_the_first_bad_return_in_row_order(chunk):
    # Rows are checked a chunk at a time: the report is still the first
    # non-finite value of the first series that has one.
    returns = _factor_matrix(4, 3_000, seed=4)
    values = returns.values.copy()
    values[3, 7] = np.nan
    values[2, 2_900] = np.inf
    values[2, 2_950] = np.nan
    with mock.patch.object(data, "_CHECK_CHUNK", chunk):
        with pytest.raises(ShapeMismatchError, match=r"^SYN02: return inf at sample 2900 "):
            run_analysis(_small_cfg(), replace(returns, values=values))


@pytest.mark.parametrize("fault, reason", [
    pytest.param(lambda r: replace(r, values=r.values[0]),
                 "returns must be a 2-D (N, T) array, not 1-D", id="1-d values"),
    pytest.param(lambda r: replace(r, tickers=r.tickers[:3]),
                 "3 tickers for 4 series", id="ticker count"),
    pytest.param(lambda r: replace(r, tickers=("A", "A", "B", "C")),
                 "ticker 'A' is repeated", id="repeated ticker"),
    pytest.param(lambda r: replace(r, timestamps=r.timestamps[:999]),
                 "need 2000 timestamps, got an array of shape (999,)", id="short timestamps"),
    pytest.param(lambda r: replace(r, timestamps=r.timestamps[::-1]),
                 "timestamps not strictly increasing at sample 1", id="reversed timestamps"),
    pytest.param(lambda r: replace(r, filled=np.zeros(10, dtype=bool)),
                 "need 2000 gap-fill flags, got shape (10,)", id="short filled"),
])
def test_run_analysis_rejects_a_malformed_return_matrix(fault, reason):
    # Each fault is named before any window runs.  Unchecked, short
    # timestamps raised an IndexError, a short gap-fill mask read as no
    # fills, reversed timestamps failed only at emission, and a repeated
    # ticker left an `A,A` tree edge.
    returns = fault(_factor_matrix(4, 2_000, seed=6))
    window = mock.Mock(wraps=pipeline.compute_window)
    with mock.patch.object(pipeline, "compute_window", window):
        with pytest.raises(ShapeMismatchError) as err:
            run_analysis(_small_cfg(), returns)
    assert str(err.value) == reason and window.call_count == 0


def test_sweep_checks_every_return_once():
    # Windows overlap, so the sweep checks the returns in one pass and the
    # windows it drives check nothing, the residual pass's spectra included.
    returns = _factor_matrix(4, 2_000, seed=6)
    check = mock.Mock(wraps=data.check_finite)
    with mock.patch.object(data, "check_finite", check):
        result = run_analysis(_small_cfg(residual=True), returns)
    assert len(result.windows) == 3
    assert check.call_count == 1 and check.call_args.args[0] is returns.values


@pytest.mark.parametrize("threads", [1, 2])
def test_each_partition_is_seeded_from_its_window_and_scale(threads):
    # Louvain meets no exact tie on real-valued coefficients, so a wrong
    # seed leaves every partition as it was: the seeds themselves are
    # checked.  A one-byte wave budget makes a wave of `threads` windows.
    returns = _factor_matrix(5, 2_000, seed=9)
    cfg = _small_cfg(q=(1.0, 2.0), s=(20, 50), window=500, step=300, seed=11,
                     threads=threads)
    owner, seen, calls = {}, [], []
    real_window, real_louvain = pipeline.compute_window, network.louvain

    def window(*args):
        out = result, held, _, _ = real_window(*args)
        for (q, s), c in held.items():
            owner[id(c)] = (result.index, q, s, c)  # c stays alive: its id stays unique
        return out

    def louvain(c, resolution, seed):
        calls.append(len(c))
        seen.extend((owner[id(m)][:3], k) for m, k in zip(c, seed))
        return real_louvain(c, resolution, seed)

    with mock.patch.object(pipeline, "_WAVE_BYTES", 1), \
            mock.patch.object(pipeline, "compute_window", window), \
            mock.patch.object(network, "louvain", louvain):
        result = run_analysis(cfg, returns, ALL_FAMILIES)
    assert result.skipped == [] and len(result.windows) == 6
    assert len(calls) == 6 // threads and set(calls) == {threads * len(cfg.s)}
    want = [((i, cfg.q[0], s), int(np.random.default_rng([cfg.seed, i, s]).integers(2**31)))
            for i in range(6) for s in cfg.s]
    assert sorted(seen) == want


@pytest.mark.parametrize("wave, threads, families, lags", [
    pytest.param(wave, threads, families, lags, id=f"{wave}-{threads}{tag}")
    for wave, threads in [(1, 1), (2, 1), (2, 2)]
    for tag, families, lags in [
        ("", ALL_FAMILIES, (-1, 0, 1)),
        ("-spectra", ("spectra",), (-1, 0, 1)),
        ("-lagged", ("lagged",), (-1, 1)),  # no correlation pass: lagged block sums alone
    ]
])
def test_sweep_sums_each_block_once_in_the_wave_that_first_needs_it(wave, threads, families,
                                                                    lags):
    # Both scales divide the 250-sample blocks, so every window adds block
    # sums.  Eight gap fills in block 9 and eight in block 11 pass alone,
    # but windows 8 and 9 hold both and are skipped: at one or two windows
    # a wave, a middle wave runs no window, and block 10, summed for
    # window 7, must still be held for window 10.  Between two graph phases
    # the sweep runs exactly the wave's windows that pass the gap-fill check
    # and the blocks that no earlier wave needed, whether or not the
    # families grow any graph.
    n, t, blk = 5, 5_000, 250
    returns = _factor_matrix(n, t, seed=12)
    filled = np.zeros(t, dtype=bool)
    for b in (9, 11):
        filled[b * blk : b * blk + 8] = True
    returns = replace(returns, values=np.where(filled, 0.0, returns.values), filled=filled)
    cfg = _small_cfg(q=(1.0, 2.0), s=(10, 25), window=1_000, step=blk, lags=lags,
                     threads=threads)
    events = []
    real_sums, real_window, real_grow = (
        pipeline._stretch_sums, pipeline.compute_window, pipeline._grow_graphs)

    def stretch_sums(values, lo, hi, s, *args):
        events.append(("sum", s, lo // blk))
        return real_sums(values, lo, hi, s, *args)

    def window(*args, **kwargs):
        events.append(("window", args[3]))
        return real_window(*args, **kwargs)

    def grow(*args):
        events.append(("grow",))
        return real_grow(*args)

    held = len(cfg.q) * len(cfg.s) * 8 * n * n
    with mock.patch.object(pipeline, "_WAVE_BYTES", wave * held), \
            mock.patch.object(pipeline, "_stretch_sums", stretch_sums), \
            mock.patch.object(pipeline, "compute_window", window), \
            mock.patch.object(pipeline, "_grow_graphs", grow):
        result = run_analysis(cfg, returns, families)
    windows = rolling_windows(t, cfg.window, cfg.step)
    assert [i for i, _ in result.skipped] == [8, 9] and len(result.windows) == 15
    spans = {i: range(a // blk, b // blk) for i, (a, b) in enumerate(windows) if i not in (8, 9)}
    want, summed = [], set()
    for lo in range(0, len(windows), wave):
        indices = range(lo, min(lo + wave, len(windows)))
        blocks = set().union(*(spans[i] for i in indices if i in spans)) - summed
        summed |= blocks
        want.append(sorted([("window", i) for i in indices if i in spans]
                           + [("sum", s, b) for s in cfg.s for b in blocks]))
    phases, phase = [], []
    for event in events:
        if event == ("grow",):
            phases.append(sorted(phase))
            phase = []
        else:
            phase.append(event)
    assert phase == [] and phases == want
    assert len(set(events) - {("grow",)}) == len(events) - len(want)  # nothing twice


def test_unknown_family_is_rejected_before_any_work(tmp_path):
    # A misspelt family, and a bare string (whose letters are no families),
    # fail by name before a window runs or the output directory exists.
    returns = _factor_matrix(3, 1_200, seed=8)
    cfg = _small_cfg(window=1_000, step=200)
    window = mock.Mock(wraps=pipeline.compute_window)
    with mock.patch.object(pipeline, "compute_window", window):
        with pytest.raises(ConfigError) as exc:
            run_analysis(cfg, returns, ("spectra", "spectrum"))
        assert str(exc.value) == "unknown output family 'spectrum'"
        with pytest.raises(ConfigError) as exc:
            run_analysis(cfg, returns, "spectra")
        assert str(exc.value) == "families must be a collection of names, not the string 'spectra'"
    assert window.call_count == 0
    result = run_analysis(cfg, returns, ("spectra",))
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as exc:
        write_outputs(result, cfg, str(out), ("spectrum",))
    assert str(exc.value) == "unknown output family 'spectrum'"
    with pytest.raises(ConfigError, match="not the string 'spectra'"):
        write_outputs(result, cfg, str(out), "spectra")
    assert not out.exists()


def test_write_outputs_refuses_a_family_the_sweep_did_not_compute(tmp_path):
    # A spectra-only sweep holds no trees, partitions, lagged or mean
    # coefficients: writing those families would leave header-only files
    # and a manifest that lists them over every done window.
    returns = _factor_matrix(4, 3_000, seed=1)
    cfg = _small_cfg(window=1_000, step=500)
    result = run_analysis(cfg, returns, ("spectra", "lagged"))
    assert result.families == ("spectra", "lagged")
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as exc:
        write_outputs(result, cfg, str(out), ALL_FAMILIES)
    assert str(exc.value) == ("output family 'topology', 'edges', 'clusters', 'periods' "
                              "not computed by the sweep")
    with pytest.raises(ConfigError, match="^output family 'periods' not computed by the sweep$"):
        write_outputs(result, cfg, str(out), ("lagged", "periods"))
    assert not out.exists()
    manifest = write_outputs(result, cfg, str(out), ("lagged",))
    assert manifest["families"] == ["lagged"] and len(manifest["outputs"]) == 2


def test_no_lags_write_header_only_lagged_files(tmp_path):
    # An empty lag list computes no lagged coefficients, yet the lagged
    # family is asked for: each anchor's files hold their header alone.
    returns = _factor_matrix(4, 3_000, seed=1)
    cfg = _small_cfg(lags=())
    result = run_analysis(cfg, returns, ALL_FAMILIES)
    assert len(result.windows) == 5 and all(w.lagged == {} for w in result.windows)
    manifest = write_outputs(result, cfg, str(tmp_path), ALL_FAMILIES)
    assert {"lagged_SYN00_2_50.csv", "lagged_SYN01_2_50.csv"} <= set(manifest["outputs"])
    for name in ("lagged_SYN00_2_50.csv", "lagged_SYN01_2_50.csv"):
        with open(tmp_path / name, newline="") as fh:
            assert list(csv.reader(fh)) == [["window", "end_ts", "tau", "mean_rho"]]


@pytest.mark.parametrize("threads", [1, 2])
def test_residual_failure_at_one_scale_outranks_coefficients_at_the_next(threads):
    # Window 1's residual pass fails at s = 10 and its coefficients at
    # s = 50.  One pass in (s, q) order meets the residual failure first, so
    # that is the reason, though the sweep's windows sum every coefficient
    # before their spectra run.
    returns = _factor_matrix(4, 2_000, seed=4)
    cfg = _small_cfg(s=(10, 50), residual=True, threads=threads)
    first = returns.timestamps[500]
    real_corr, real_residual = spectra.correlation_matrices, spectra.residual_returns

    def corr(r, s, *args, **kwargs):
        if s == 50 and r.timestamps[0] == first:
            raise ZeroVarianceError("coefficients fail")
        return real_corr(r, s, *args, **kwargs)

    def residual(r, z1):
        if r.timestamps[0] == first:
            raise ZeroVarianceError("residual pass fails")
        return real_residual(r, z1)

    with mock.patch.object(spectra, "correlation_matrices", corr), \
            mock.patch.object(spectra, "residual_returns", residual):
        result = run_analysis(cfg, returns, ("spectra", "periods"))
    assert result.skipped == [(1, "residual pass fails")]
    assert [w.index for w in result.windows] == [0, 2]


def _residual_routes(cfg, returns):
    """The sweep's spectra, and per residual matrix at q = 2 whether the
    closed form gave it (False: its guard sent it to the kernel)."""
    routes, real = [], pipeline._residual_closed_form

    def closed_form(*args):
        out = real(*args)
        routes.append(out is not None)
        return out

    with mock.patch.object(pipeline, "_residual_closed_form", closed_form):
        return run_analysis(cfg, returns, ("spectra",)), routes


def test_residual_kernel_path_takes_each_windows_variance_once(tmp_path):
    # At q = 1, 4 every residual matrix runs the kernel, whose variance rule
    # reads each series' centred energy T var(x): one array per window, bit
    # for bit the one each (q, s) matrix once took for itself, and the sweep
    # writes the bytes it wrote when each matrix took its own.
    returns = _factor_matrix(5, 3_000, seed=4)
    cfg = _small_cfg(q=(1.0, 4.0), s=(10, 50), residual=True)
    real_spectrum, real_check = pipeline._residual_spectrum, pipeline._check_variance
    calls = []  # (window values, centred energies) per residual matrix

    def spectrum(window_returns, *args):
        calls.append([window_returns.values, None])
        return real_spectrum(window_returns, *args)

    def check(energy, centred, *args):
        calls[-1][1] = centred
        return real_check(energy, centred, *args)

    with mock.patch.object(pipeline, "_residual_spectrum", spectrum), \
            mock.patch.object(pipeline, "_check_variance", check):
        result = run_analysis(cfg, returns, ALL_FAMILIES)
    write_outputs(result, cfg, str(tmp_path / "once"), ALL_FAMILIES)
    assert len(result.windows) == 5 and len(calls) == 5 * 4
    for k in range(0, len(calls), 4):
        x, centred = calls[k]
        assert all(c is centred for _, c in calls[k : k + 4])
        assert centred.tobytes() == (x.shape[1] * x.var(axis=1)).tobytes()
    assert len({id(c) for _, c in calls}) == 5

    def per_matrix(window_returns, *args):
        x = window_returns.values
        return real_spectrum(window_returns, *args[:-1], lambda: x.shape[1] * x.var(axis=1))

    with mock.patch.object(pipeline, "_residual_spectrum", per_matrix):
        result = run_analysis(cfg, returns, ALL_FAMILIES)
    write_outputs(result, cfg, str(tmp_path / "each"), ALL_FAMILIES)
    names = sorted(p.name for p in (tmp_path / "once").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "each").iterdir())
    for name in names:
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "each" / name).read_bytes()


@pytest.mark.parametrize("poly_order", [1, 2])
@pytest.mark.parametrize("noise, closed, bound", [
    pytest.param(1.0, True, 1e-10, id="closed-form"),
    pytest.param(1e-4, False, 1e-10, id="kernel-1e-4"),
    pytest.param(1e-6, False, 1e-8, id="kernel-1e-6"),
])
def test_residual_columns_match_the_literal_oracle(noise, closed, bound, poly_order):
    # Six series load one factor, plus idiosyncratic noise at `noise` times
    # its scale.  At 1 the residual matrix is A G A^T from the window's own
    # power sum; at 1e-4 and 1e-6 the residuals are nearly all cancellation,
    # the guard trips and the kernel runs on the residual returns.  The
    # sweep forms those in float64, so a residual 1e-6 of its series keeps
    # about 1e-10 of relative precision, which the leading eigenpair of six
    # near-independent residuals can magnify tenfold: that case gets a
    # bound 100 times wider (the oracle forms its residuals in extended
    # precision).
    rng = np.random.default_rng(5)
    n, t = 6, 2_000
    values = (rng.uniform(0.5, 1.5, (n, 1)) * rng.standard_normal(t)
              + noise * rng.standard_normal((n, t)))
    returns = ReturnMatrix(tickers=tuple(f"A{i}" for i in range(n)),
                           timestamps=np.arange(t, dtype=np.int64), values=values)
    cfg = _small_cfg(window=1_000, step=1_000, lags=(0,), poly_order=poly_order,
                     residual=True)
    result, routes = _residual_routes(cfg, returns)
    assert result.skipped == [] and routes == [closed, closed]
    for window, (start, stop) in zip(result.windows, rolling_windows(t, 1_000, 1_000)):
        row = window.spectral[(2.0, 50)]
        want = residual_spectrum_literal(values[:, start:stop], 2.0, 50, poly_order)
        got = (row.res_lambda1, row.res_h1, row.res_v1max)
        assert max(abs(a - b) for a, b in zip(got, want)) <= bound, (got, want)


@pytest.mark.parametrize("threads", [1, 2])
def test_flat_residual_skips_the_window_with_the_kernels_reason(threads):
    # Every series is an affine copy of one +-1 series with as many of each
    # sign per window, so each normalizes to it exactly, v1 is 0.5 in every
    # component, each series lies exactly on the eigensignal plus a
    # constant, and its residual returns are exact zeros.  The closed form
    # cannot tell that from cancellation, so its guard sends the matrix to
    # the kernel path, which skips both windows with the reason the
    # kernel's zero-variance rule always gave.
    signs = np.concatenate([np.random.default_rng(seed).permutation(np.repeat([-1.0, 1.0], 512))
                            for seed in (1, 2)])
    values = np.array([signs, signs + 1, 2 * signs, 3 * signs - 2])
    returns = ReturnMatrix(tickers=tuple(f"A{i}" for i in range(4)),
                           timestamps=np.arange(2_048, dtype=np.int64), values=values)
    cfg = _small_cfg(s=(16,), window=1_024, step=1_024, lags=(0,), residual=True,
                     threads=threads)
    result, routes = _residual_routes(cfg, returns)
    reason = "A0 has zero detrended variance at scale 16; correlation undefined"
    assert result.skipped == [(0, reason), (1, reason)] and routes == [False, False]


_ON_THE_EIGENSIGNAL = {
    "collinear": lambda f: [f, 2 * f + 1, -f + 3, f / 2],
    "identical": lambda f: [f, f, f, f],
    "sign-flipped": lambda f: [f, -f],
}


@pytest.mark.parametrize("global_norm", [False, True])
@pytest.mark.parametrize("poly_order", [1, 2])
@pytest.mark.parametrize("case", _ON_THE_EIGENSIGNAL)
def test_series_on_the_eigensignal_skip_the_residual_pass(case, poly_order, global_norm):
    # Every series is an affine map of one Gaussian series, so each lies on
    # the eigensignal and its residual returns are rounding dust, about
    # 1e-31 of its centred energy.  The kernel's zero-variance rule compares
    # the dust's detrended energy with the dust's profile and passed it:
    # res_lambda1 read 3.1 to 3.98 (collinear), 4.0 (identical) or 2.0
    # (sign-flipped), no window skipped.  The guard declines the closed
    # form, and the kernel path skips each window, naming the first such
    # series.
    f = np.random.default_rng(3).standard_normal(2_000)
    values = np.array(_ON_THE_EIGENSIGNAL[case](f))
    returns = ReturnMatrix(tickers=tuple(f"A{i}" for i in range(len(values))),
                           timestamps=np.arange(2_000, dtype=np.int64), values=values)
    cfg = _small_cfg(window=1_000, step=1_000, lags=(0,), poly_order=poly_order,
                     global_norm=global_norm, residual=True)
    result, routes = _residual_routes(cfg, returns)
    reason = "A0 has zero detrended variance at scale 50; correlation undefined"
    assert result.skipped == [(0, reason), (1, reason)] and routes == [False, False]


def _residual_reads(cfg, returns):
    """The sweep's spectra and how often it read `ResidualReturns.residuals`."""
    reads, form = [], spectra.ResidualReturns.__dict__["residuals"].func

    def residuals(res):
        reads.append(res)
        return form(res)

    with mock.patch.object(spectra.ResidualReturns, "residuals", property(residuals)):
        return run_analysis(cfg, returns, ("spectra",)), len(reads)


@pytest.mark.parametrize("global_norm", [False, True])
def test_closed_form_forms_no_residual_returns(global_norm):
    # At q = 2 and m >= 1 every matrix here takes the closed form, which
    # reads only the fit: the sweep forms no residual array and its res_*
    # columns are those of an unpatched run.
    returns = _factor_matrix(5, 2_000, seed=6)
    cfg = _small_cfg(s=(10, 50), lags=(0,), global_norm=global_norm, residual=True)
    want, routes = _residual_routes(cfg, returns)
    assert len(routes) == 3 * 2 and all(routes)
    got, reads = _residual_reads(cfg, returns)
    assert reads == 0 and got.skipped == want.skipped == []
    assert [w.spectral for w in got.windows] == [w.spectral for w in want.windows]


def test_the_kernel_path_forms_the_residual_returns_once_per_matrix():
    returns = _factor_matrix(5, 2_000, seed=6)
    cfg = _small_cfg(q=(4.0,), s=(10, 50), lags=(0,), residual=True)
    want = run_analysis(cfg, returns, ("spectra",))
    got, reads = _residual_reads(cfg, returns)
    assert reads == 3 * 2 and got.skipped == want.skipped == []
    assert [w.spectral for w in got.windows] == [w.spectral for w in want.windows]


# Powers of ten at which the sweep computes every window of the data
# below: from 10^+-40 on, its own q = 4 coefficients leave the float range.
_RESIDUAL_SCALES = {1.0: (20, 40, 60, 75), 2.0: (20, 40, 60, 75), 4.0: (20,)}


@pytest.mark.parametrize("global_norm", [False, True])
@pytest.mark.parametrize("noise", [1.0, 1e-3, 1e-5])
@pytest.mark.parametrize("q", sorted(_RESIDUAL_SCALES))
def test_residual_columns_do_not_depend_on_the_returns_scale(q, noise, global_norm):
    # The residual pass regresses the returns as the sweep summed them, at
    # their own scale, so its residuals are sigma times those of the
    # normalized window.  The kernel path divides them by sigma: at
    # 10^-75 (q = 2, noise 1e-3) residuals left at their own scale make a
    # fluctuation whose square underflows, which would skip every window.
    rng = np.random.default_rng(11)
    n, t = 5, 2_000
    values = (rng.uniform(0.5, 1.5, (n, 1)) * rng.standard_normal(t)
              + noise * rng.standard_normal((n, t)))
    cfg = _small_cfg(q=(q,), s=(10, 50), lags=(0,), residual=True, global_norm=global_norm)

    def res_columns(scale):
        returns = ReturnMatrix(tickers=tuple(f"A{i}" for i in range(n)),
                               timestamps=np.arange(t, dtype=np.int64), values=values * scale)
        result = run_analysis(cfg, returns, ("spectra",))
        assert result.skipped == [] and len(result.windows) == 3, (scale, result.skipped)
        return np.array([row[7:] for w in result.windows for row in w.spectral.values()])

    want = res_columns(1.0)
    for k in _RESIDUAL_SCALES[q]:
        for scale in (10.0**k, 10.0**-k):
            assert np.abs(res_columns(scale) - want).max() <= 1e-8, scale


def test_compute_window_end_timestamp_label():
    returns = _factor_matrix(3, 1_200, seed=8)
    cfg = _small_cfg(window=1_000, step=200, lags=(0,))
    first, second = run_analysis(cfg, returns, ("periods",)).windows
    assert (first.end_ts, second.end_ts) == tuple(returns.timestamps[[999, 1_199]])


def test_epps_buildup_with_asynchronous_factor():
    # Smeared factor responses: co-movement strengthens with the scale.
    cfg_scales = (10, 60, 180)
    hits = 0
    for seed in range(5):
        returns = _factor_matrix(6, 6_000, seed=seed, spread=80)
        cfg = _small_cfg(
            q=(2.0,), s=cfg_scales, window=6_000, step=6_000, lags=(0,)
        )
        result = run_analysis(cfg, returns, families=("periods",))
        rhos = [result.windows[0].mean_rho[(2.0, s)] for s in cfg_scales]
        if rhos[0] < rhos[1] < rhos[2]:
            hits += 1
    assert hits >= 4


def test_series_flat_for_one_block_stays_live():
    # Zero returns for one whole 1,440-sample block leave the series live in
    # both windows that hold the block: the zero-variance check reads the
    # window's summed energies, not a block's.  s = 70 is not shared (it
    # does not divide the block), so the window is summed as one stretch.
    # At q >= 2 both windows match the per-window path on their normalized
    # values.  At q < 2 that path is the less exact one: the flat block
    # normalizes to a constant whose residuals are rounding dust (~1e-17),
    # not zero, and the q/2 power lifts the dust in its cross terms to 1e-11
    # (q = 1) or 1e-5 (q = 0.5).  So q < 2 is checked against the literal
    # oracle on the raw returns, where the flat block's residuals are
    # exactly zero.
    returns = _factor_matrix(4, 4_320, seed=21)
    values = returns.values.copy()
    values[2, 1_440:2_880] = 0.0
    cfg = _small_cfg(q=(0.5, 1.0, 2.0, 4.0), s=(10, 60, 70), window=2_880, step=1_440,
                     lags=(0,))
    result = run_analysis(cfg, replace(returns, values=values), families=("spectra", "periods"))
    assert result.skipped == []
    assert [w.index for w in result.windows] == [0, 1]
    for w in result.windows:
        window = values[:, w.index * 1_440 : w.index * 1_440 + 2_880]
        norm = np.stack([normalize(row) for row in window])
        for s in cfg.s:
            per_window = correlation_matrices(norm, s, cfg.poly_order, cfg.q)
            for q in cfg.q:
                if q >= 2.0:
                    rho = per_window[q].values
                else:
                    rho = np.eye(4)
                    for i, j in combinations(range(4), 2):
                        rho[i, j] = rho[j, i] = rho_q_literal(window[i], window[j], q, s, 2)
                row = w.spectral[(q, s)]
                eigenvalues = np.linalg.eigvalsh(rho)[::-1]
                assert abs(w.mean_rho[(q, s)] - (rho.sum() - 4.0) / 12.0) <= 1e-12
                assert abs(row.lambda1 - eigenvalues[0]) <= 1e-12
                assert abs(row.lambda2 - eigenvalues[1]) <= 1e-12


def test_series_flat_for_one_block_stays_live_in_the_lagged_files():
    # The lagged files of the flat-block case above.  Boxes that straddle
    # the block edge hold one return and zeros: flat profiles, whose
    # residuals must come out as exact zeros in both paths, or the q/2 power
    # lifts their rounding dust.  The sweep must match the pairwise lagged
    # coefficient on the raw window, at the shared scales and at s = 70.
    returns = _factor_matrix(4, 4_320, seed=24)
    values = returns.values.copy()
    values[2, 1_440:2_880] = 0.0
    cfg = _small_cfg(q=(0.5, 1.0), s=(10, 60, 70), window=2_880, step=1_440,
                     lags=(-1, 0, 1), anchors=("SYN00",))
    result = run_analysis(cfg, replace(returns, values=values), families=("lagged",))
    assert result.skipped == []
    assert [w.index for w in result.windows] == [0, 1]
    for w in result.windows:
        window = values[:, w.index * 1_440 : w.index * 1_440 + 2_880]
        for s in cfg.s:
            for q in cfg.q:
                dcfg = DetrendConfig(scale=s, poly_order=cfg.poly_order, q=q)
                got = w.lagged[("SYN00", q, s)]
                for tau in (-1, 1):
                    direct = np.mean(
                        [rho_q_lagged(window[0], window[j], dcfg, tau) for j in (1, 2, 3)]
                    )
                    assert abs(got[tau] - direct) <= 1e-12


@pytest.mark.parametrize(
    "level,reason",
    [
        (0.0, "SYN02 has zero detrended variance at scale 10; correlation undefined"),
        (0.37, "SYN02 has zero detrended variance at scale 10; correlation undefined"),
    ],
)
def test_series_constant_over_a_window_skips_it(level, reason):
    # Constant over all of window 1 (one whole block): the window is skipped
    # by the zero-variance check on the window's summed energies.
    returns = _factor_matrix(4, 4_320, seed=22)
    values = returns.values.copy()
    values[2, 1_440:2_880] = level
    cfg = _small_cfg(q=(1.0, 4.0), s=(10, 60), window=1_440, step=1_440, lags=(0,))
    result = run_analysis(cfg, replace(returns, values=values), families=("spectra",))
    assert result.skipped == [(1, reason)]
    assert [w.index for w in result.windows] == [0, 2]


def test_run_that_skips_every_window_writes_headers_only(tmp_path):
    # Window 0 is all gap fills; SYN02 is constant from window 1 on.  With
    # no window done, the spectra, topology, lagged and periods files hold
    # their headers alone, and no edges or clusters file is written.
    returns = _factor_matrix(4, 4_320, seed=3)
    values = returns.values.copy()
    values[2, 1_440:] = 0.0
    filled = np.zeros(4_320, dtype=bool)
    filled[:1_440] = True
    cfg = _small_cfg(q=(1.0, 4.0), s=(10, 60), window=1_440, step=1_440)
    result = run_analysis(cfg, replace(returns, values=values, filled=filled))
    manifest = write_outputs(result, cfg, str(tmp_path), ALL_FAMILIES)
    dead = "SYN02 has zero detrended variance at scale 10; correlation undefined"
    assert (manifest["n_windows_planned"], manifest["n_windows_done"]) == (3, 0)
    assert manifest["skipped"] == [
        [0, "100.00% of samples are gap fills (limit 1.00%)"], [1, dead], [2, dead],
    ]
    assert manifest["outputs"]
    for name in manifest["outputs"]:
        with open(tmp_path / name, newline="") as fh:
            assert len(list(csv.reader(fh))) == 1, name
    keys = [f"{q}_{s}" for q in (1, 4) for s in (10, 60)]
    assert manifest["outputs"] == sorted(
        [f"{family}_{key}.csv" for family in ("spectra", "topology", "periods") for key in keys]
        + [f"lagged_{a}_{key}.csv" for a in ("SYN00", "SYN01") for key in keys])


def test_emitted_values_are_plain_python_scalars(tmp_path, monkeypatch):
    # csv writes a bool as True/False and a numpy float64 as np.float64(...):
    # every value the writers hand it is a str, int, float or None.
    written = []
    write_csv = emit._write_csv

    def record(path, header, rows):
        written.extend(rows)
        write_csv(path, header, rows)

    monkeypatch.setattr(emit, "_write_csv", record)
    cfg = _small_cfg(q=(1.0, 4.0), s=(10, 60), residual=True, verbose=True)
    result = run_analysis(cfg, _factor_matrix(5, 2_000, seed=1))
    write_outputs(result, cfg, str(tmp_path), ALL_FAMILIES)
    types = {type(v) for row in written for v in row}
    assert types <= {str, int, float, type(None)}, types
    assert {str, int, float} <= types
    for path in tmp_path.glob("*.csv"):
        text = path.read_text()
        assert not any(t in text for t in ("np.", "True", "False")), path.name


@pytest.mark.parametrize(
    "n, t, kw",
    [
        (2, 2_000, dict(s=(10, 60), window=1_000, step=500, anchors=("SYN00",))),
        (5, 400, dict(s=(10, 50), window=100, step=50, lags=(0,))),
    ],
    ids=["two series", "window of two boxes"],
)
def test_edge_shapes_sweep_every_family(tmp_path, n, t, kw):
    cfg = _small_cfg(q=(1.0, 4.0), verbose=True, **kw)
    result = run_analysis(cfg, _factor_matrix(n, t, seed=4))
    manifest = write_outputs(result, cfg, str(tmp_path), ALL_FAMILIES)
    assert result.skipped == []
    assert len(result.windows) == result.n_windows_planned > 1
    keys = {(q, s) for q in cfg.q for s in cfg.s}
    for w in result.windows:
        assert set(w.topology) == set(w.spectral) == keys
        assert set(w.partitions) == set(cfg.s)
        assert {key[1:] for key in w.lagged} == keys
        assert all(np.isfinite(v) for taus in w.lagged.values() for v in taus.values())
    with open(tmp_path / "topology_1_10.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + len(result.windows)
    assert manifest["n_windows_done"] == len(result.windows)


def test_lagged_overlap_with_zero_variance_skips_the_window():
    # SYN03 is zero except its last return: the window and the tail of every
    # lag keep that return, but the head of lag 1 drops it, so the tau = -1
    # coefficient has no detrended variance to divide by.  The pairwise
    # path raises for that pair, and the sweep skips the window naming the
    # ticker, the signed lag and the scale instead of averaging in a
    # coefficient of rounding noise.
    returns = _factor_matrix(4, 2_880, seed=23)
    values = returns.values.copy()
    values[3, :-1] = 0.0
    with pytest.raises(ZeroVarianceError):
        rho_q_lagged(values[0], values[3], DetrendConfig(scale=10, q=1.0), -1)
    cfg = _small_cfg(q=(1.0, 2.0), s=(10,), window=2_880, step=2_880,
                     lags=(-1, 0, 1), anchors=("SYN00",))
    result = run_analysis(cfg, replace(returns, values=values), families=("lagged",))
    assert result.windows == []
    assert result.skipped == [
        (0, "SYN03 has zero detrended variance in its lag -1 overlap at scale 10; "
            "correlation undefined")
    ]


def test_lagged_zero_variance_rule_reads_only_the_requested_lags():
    # The window above with lags 0,1 only: tau = +1 reads the anchor's head
    # and the others' tails, and SYN03's tail keeps its last return, so the
    # window is computed and its coefficient is the pairwise one.
    returns = _factor_matrix(4, 2_880, seed=23)
    values = returns.values.copy()
    values[3, :-1] = 0.0
    cfg = _small_cfg(q=(1.0,), s=(10,), window=2_880, step=2_880,
                     lags=(0, 1), anchors=("SYN00",))
    result = run_analysis(cfg, replace(returns, values=values), families=("lagged",))
    assert result.skipped == []
    dcfg = DetrendConfig(scale=10, poly_order=cfg.poly_order, q=1.0)
    direct = np.mean([rho_q_lagged(values[0], values[j], dcfg, 1) for j in (1, 2, 3)])
    assert abs(result.windows[0].lagged[("SYN00", 1.0, 10)][1] - direct) <= 1e-12


def test_lag_limit_leaves_two_boxes():
    # The lagged overlap may be as short as two boxes of the largest scale,
    # the pairwise function's own limit.
    _small_cfg(window=100, s=(10, 20), lags=(-60, 0, 60)).validate()
    with pytest.raises(ConfigError):
        _small_cfg(window=100, s=(10, 20), lags=(0, 61)).validate()
