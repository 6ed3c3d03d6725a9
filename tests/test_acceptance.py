"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `CRITERION nn PASS/FAIL` line (run pytest with -s or
-rP to see them on success).  Criteria 5 and 7 share one 634-window
synthetic sweep; criterion 14 runs the full-size performance workload, so
this module takes a few minutes end to end.
"""

import json
import time

import numpy as np
import pytest

from qdcca.cli import main as cli_main
from qdcca.config import AnalysisConfig
from qdcca.dfa import DetrendConfig, rho_q, rho_q_lagged
from qdcca.network import (
    DegreeDistribution,
    DistanceMatrix,
    louvain,
    mean_path_length,
    minimum_spanning_tree,
    powerlaw_fit,
)
from qdcca.pipeline import compute_window, rolling_windows, run_analysis
from qdcca.spectra import (
    DetrendedCorrelationMatrix,
    correlation_matrices,
    eigendecompose,
    eigensignal,
    residual_returns,
    shannon_entropy,
)
from qdcca.synth import GeneratorSpec, synth_returns
from qdcca.emit import write_outputs

from oracles import (
    best_partition_exhaustive,
    brute_force_mst,
    modularity_direct,
    n_communities,
    rho_q_literal,
    tree_from_edges,
    tree_pairs,
    tree_weight,
)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"CRITERION {num:02d} {status} - {name}{tail}")
    assert ok, f"criterion {num}: {name}{tail}"


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        s = int(rng.integers(16, 129))
        t = int(rng.integers(2 * s, 4097))
        q = float(rng.choice([1.0, 2.0, 4.0]))
        m = int(rng.choice([1, 2, 3]))
        x = rng.standard_normal(t)
        y = rng.standard_normal(t)
        ours = rho_q(x, y, DetrendConfig(scale=s, poly_order=m, q=q))
        ref = rho_q_literal(x, y, q, s, m)
        worst = max(worst, abs(ours - ref))
    elapsed = time.perf_counter() - t0
    _report(1, "oracle equivalence on 100 random instances",
            worst < 1e-10 and elapsed < 60.0,
            f"max |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_self_and_anti_correlation():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        q = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        s = int(rng.integers(8, 65))
        m = int(rng.choice([1, 2, 3]))
        t = int(rng.integers(2 * s, 6 * s))
        x = rng.standard_normal(t)
        cfg = DetrendConfig(scale=s, poly_order=m, q=q)
        worst = max(worst, abs(rho_q(x, x, cfg) - 1.0), abs(rho_q(x, -x, cfg) + 1.0))
    _report(2, "self- and anti-correlation across the (q, s, m) grid",
            worst <= 1e-12, f"max deviation = {worst:.2e}")


def test_criterion_03_known_correlation_recovery():
    target = 0.7
    chol = np.linalg.cholesky(np.array([[1.0, target], [target, 1.0]]))
    cfg = DetrendConfig(scale=200, poly_order=2, q=2.0)
    rng = np.random.default_rng(103)
    estimates = []
    for _ in range(20):
        x, y = chol @ rng.standard_normal((2, 50_000))
        estimates.append(rho_q(x, y, cfg))
    mean = float(np.mean(estimates))
    _report(3, "bivariate Gaussian level recovery at s = 200",
            abs(mean - target) < 0.05, f"mean rho = {mean:.4f}")


def test_criterion_04_q2_bound():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10_000):
        t = int(rng.integers(40, 200))
        s = int(rng.integers(5, min(40, t // 2) + 1))
        m = int(rng.choice([1, 2]))
        x = rng.standard_normal(t)
        y = rng.standard_normal(t)
        worst = max(worst, abs(rho_q(x, y, DetrendConfig(scale=s, poly_order=m, q=2.0))))
    _report(4, "q = 2 bound on 10,000 random instances",
            worst <= 1.0 + 1e-12, f"max |rho_2| = {worst:.12f}")


@pytest.fixture(scope="module")
def synthetic_sweep():
    # 634-window sweep shared by criteria 5 and 7: N = 20 over T = 921,600.
    rm = synth_returns(
        GeneratorSpec(kind="factor", n_series=20, n_samples=921_600,
                      params={"beta": 1.0, "sigma": 1.0}),
        seed=105,
    )
    windows = rolling_windows(rm.n_samples, 10_080, 1_440)
    trace_errs = []
    max_corr = 0.0
    for start, stop in windows:
        sliced = rm.values[:, start:stop]
        vals = (sliced - sliced.mean(axis=1, keepdims=True)) / sliced.std(axis=1, keepdims=True)
        c = correlation_matrices(vals, 10, 2, [1.0])[1.0]
        summary = eigendecompose(c)
        trace_errs.append(abs(summary.eigenvalues.sum() - 20.0))
        z1 = eigensignal(vals, summary.eigenvectors[:, 0])
        res = residual_returns(vals, z1)
        zc = z1 - z1.mean()
        zn = np.linalg.norm(zc)
        for row in res.residuals:
            corr = abs(row @ zc) / (np.linalg.norm(row) * zn)
            max_corr = max(max_corr, float(corr))
    return len(windows), max(trace_errs), max_corr


def test_criterion_05_trace_conservation(synthetic_sweep):
    n_windows, max_trace_err, _ = synthetic_sweep
    _report(5, "trace conservation over the 634-window sweep",
            n_windows == 634 and max_trace_err < 1e-9,
            f"windows = {n_windows}, max |sum(lambda) - N| = {max_trace_err:.2e}")


def test_criterion_06_entropy_ceiling():
    h = shannon_entropy(np.full(80, 1.0 / np.sqrt(80.0)))
    err = abs(h - np.log(80.0))
    _report(6, "entropy of the uniform 80-vector equals ln 80",
            err < 1e-12 and abs(h - 4.3820) < 5e-4, f"H = {h:.10f}")


def test_criterion_07_residual_orthogonality(synthetic_sweep):
    _, _, max_corr = synthetic_sweep
    _report(7, "residual returns orthogonal to the eigensignal in all windows",
            max_corr < 1e-10, f"max |corr| = {max_corr:.2e}")


def test_criterion_08_mst_exactness():
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(100):
        mat = rng.uniform(0.05, 1.5, size=(7, 7))
        mat = (mat + mat.T) / 2
        np.fill_diagonal(mat, 0.0)
        labels = tuple(f"A{i}" for i in range(7))
        tree = minimum_spanning_tree(
            DistanceMatrix(values=mat, labels=labels, q=1.0, scale=10)
        )
        oracle_weight, oracle_edges = brute_force_mst(mat)
        edge_set = set(tree_pairs(tree))
        squared = minimum_spanning_tree(
            DistanceMatrix(values=mat**2, labels=labels, q=1.0, scale=10)
        )
        ok &= tree_weight(tree) == oracle_weight
        ok &= edge_set == oracle_edges
        ok &= set(tree_pairs(squared)) == edge_set
        if not ok:
            break
    _report(8, "MST weight exactness and monotone-transform invariance", ok)


def test_criterion_09_closed_form_topology():
    star_len = mean_path_length(tree_from_edges(80, [(0, k) for k in range(1, 80)]))
    path = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)], labels=("a", "b", "c", "d"))
    path_len = mean_path_length(path)
    ks = np.arange(1, 11)
    gamma, se = powerlaw_fit(DegreeDistribution(degrees=ks, survival=ks.astype(float) ** -1.5))
    ok = (
        star_len == 2 * 79 / 80
        and abs(star_len - 1.975) < 1e-12
        and abs(path_len - 5 / 3) < 1e-12
        and abs(gamma - 1.5) < 1e-12
        and se < 1e-12
    )
    _report(9, "closed-form path lengths and exact power-law fit", ok,
            f"star = {star_len}, path = {path_len:.6f}, gamma = {gamma}, se = {se:.1e}")


def _block_matrix(sizes, within, across):
    n = sum(sizes)
    mat = np.full((n, n), across)
    start = 0
    for size in sizes:
        mat[start:start + size, start:start + size] = within
        start += size
    np.fill_diagonal(mat, 1.0)
    return DetrendedCorrelationMatrix(
        values=mat, labels=tuple(f"A{i}" for i in range(n)), q=1.0, scale=10
    )


def test_criterion_10_louvain_recovery():
    c44 = _block_matrix((4, 4), 0.8, 0.0)
    part = louvain(c44, resolution=1.0, seed=0)
    weights = np.maximum(c44.values, 0.0).copy()
    np.fill_diagonal(weights, 0.0)
    best_q, _ = best_partition_exhaustive(weights)
    q = modularity_direct(weights, [part.communities[lab] for lab in c44.labels])
    exact = abs(q - best_q) < 1e-12 and n_communities(part) == 2

    planted = [0] * 3 + [1] * 5
    c35 = _block_matrix((3, 5), 0.9, 0.05)
    hits = 0
    for seed in range(100):
        p = louvain(c35, resolution=1.0, seed=seed)
        groups = {}
        for lab, cid in p.communities.items():
            groups.setdefault(cid, set()).add(lab)
        got = sorted(sorted(g) for g in groups.values())
        if got == [["A0", "A1", "A2"], ["A3", "A4", "A5", "A6", "A7"]]:
            hits += 1
    _report(10, "planted-block community recovery",
            exact and hits >= 95,
            f"4+4 modularity matches exhaustive optimum; 3+5 hits = {hits}/100")


def test_criterion_11_epps_effect():
    scales = (10, 60, 180, 360)
    hits = 0
    for seed in range(50):
        rm = synth_returns(
            GeneratorSpec(kind="factor", n_series=10, n_samples=30_240,
                          params={"beta": 1.5, "sigma": 1.0, "response_spread": 150}),
            seed,
        )
        cfg = AnalysisConfig(q=(2.0,), s=scales, window=10_080, step=1_440,
                             lags=(0,), anchors=(), threads=1)
        res = run_analysis(cfg, rm, families=("periods",))
        means = [np.mean([w.mean_rho[(2.0, s)] for w in res.windows]) for s in scales]
        if all(a <= b for a, b in zip(means, means[1:])):
            hits += 1
    _report(11, "scale buildup of the window-averaged coefficient",
            hits >= 45, f"nondecreasing in {hits}/50 seeds")


def test_criterion_12_lag_sanity():
    rng = np.random.default_rng(112)
    cfg = DetrendConfig(scale=50, poly_order=2, q=2.0)
    x = rng.standard_normal(2_000)
    y = rng.standard_normal(2_000)
    bit_exact = rho_q_lagged(x, y, cfg, 0) == rho_q(x, y, cfg)

    hits = 0
    for seed in range(50):
        rm = synth_returns(
            GeneratorSpec(kind="factor", n_series=6, n_samples=3_000,
                          params={"beta": 1.0, "sigma": 1.0}),
            seed,
        )
        vals = rm.values
        means = {}
        for tau in (-1, 0, 1):
            means[tau] = np.mean(
                [rho_q_lagged(vals[0], vals[j], cfg, tau) for j in range(1, 6)]
            )
        if means[0] > means[1] and means[0] > means[-1]:
            hits += 1
    _report(12, "zero-lag identity and synchronous-factor dominance",
            bit_exact and hits >= 48,
            f"tau = 0 bit-exact; synchronous dominance in {hits}/50 seeds")


def test_criterion_13_window_arithmetic():
    windows = rolling_windows(921_600, 10_080, 1_440)
    _report(13, "window count for the full-size series",
            len(windows) == 634, f"{len(windows)} windows")


def test_criterion_14_performance(tmp_path):
    rm = synth_returns(
        GeneratorSpec(kind="factor", n_series=80, n_samples=10_080,
                      params={"beta": 1.0, "sigma": 1.0}),
        seed=114,
    )
    cfg = AnalysisConfig(q=(1.0, 4.0), s=(10,), poly_order=2, window=10_080,
                         step=1_440, lags=(-1, 0, 1),
                         anchors=("SYN00", "SYN01"), seed=0, threads=1)
    t0 = time.perf_counter()
    compute_window(rm, 0, 10_080, 0, cfg,
                   ("spectra", "topology", "edges", "clusters", "lagged", "periods"))
    one_window = time.perf_counter() - t0

    sweep_rm = synth_returns(
        GeneratorSpec(kind="factor", n_series=80, n_samples=921_600,
                      params={"beta": 1.0, "sigma": 1.0}),
        seed=115,
    )
    sweep_cfg = AnalysisConfig(q=(1.0,), s=(10,), poly_order=2, window=10_080,
                               step=1_440, lags=(-1, 0, 1),
                               anchors=("SYN00", "SYN01"), seed=0, threads=2)
    t0 = time.perf_counter()
    result = run_analysis(sweep_cfg, sweep_rm)
    write_outputs(result, sweep_cfg, str(tmp_path / "sweep"),
                  ("spectra", "topology", "edges", "clusters", "lagged", "periods"))
    sweep_elapsed = time.perf_counter() - t0
    _report(14, "single-window and 634-window sweep timing",
            one_window <= 5.0 and len(result.windows) == 634 and sweep_elapsed <= 1_800.0,
            f"window = {one_window:.2f}s, sweep = {sweep_elapsed:.0f}s")


def test_criterion_15_byte_identical_outputs(tmp_path, capsys):
    data_dir = tmp_path / "data"
    code = cli_main(["synth", "--generator", "factor", "--n", "8", "--t", "30000",
                     "--seed", "42", "--out", str(data_dir)])
    assert code == 0
    outs = []
    for threads, sub in (("1", "a"), ("4", "b")):
        out_dir = tmp_path / sub
        code = cli_main([
            "analyze", str(data_dir), "--out", str(out_dir),
            "--window", "10080", "--step", "5000", "--q", "1,4", "--s", "10,60",
            "--lags=-1,0,1", "--anchors", "SYN00,SYN01", "--seed", "9",
            "--threads", threads,
        ])
        assert code == 0
        outs.append(out_dir)
    capsys.readouterr()
    man_a = json.loads((outs[0] / "run_manifest.json").read_text())
    identical = True
    for name in man_a["outputs"] + ["run_manifest.json"]:
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            identical = False
            break
    _report(15, "byte-identical outputs at different thread counts",
            identical, f"{len(man_a['outputs'])} files compared")
