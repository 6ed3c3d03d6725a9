"""The benchmark's hooks into the package.

``bench/spans.py`` wraps package functions through the module attributes
their callers look up, and computes each dfa kernel call's work from its
positional arguments (a 2-D stack first, the scale second for
``dfa.fluct`` and third for ``dfa.cross``).  It counts Louvain levels as
the calls of ``network._local_phase``, which ``network.louvain`` must look
up on the module once per level.  A sweep that stops calling a wrapped
name records nothing, and one that changes those arguments breaks the work
count; without these tests both would only show when the benchmark runs.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from qdcca import emit, network
from qdcca.config import AnalysisConfig
from qdcca.pipeline import ALL_FAMILIES, run_analysis
from qdcca.spectra import DetrendedCorrelationMatrix
from qdcca.synth import GeneratorSpec, synth_returns

from oracles import louvain_loop


def _spans_module():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_lagged_sweep_records_both_dfa_spans_and_their_work():
    # s = 10 divides the 300-sample blocks and s = 40 does not, so both the
    # shared-block path and the window-as-one-stretch path run.
    spans = _spans_module()
    returns = synth_returns(
        GeneratorSpec("factor", 6, 1_500, {"beta": 1.0, "sigma": 1.0, "response_spread": 5}), 3
    )
    cfg = AnalysisConfig(q=(1.0, 4.0), s=(10, 40), window=600, step=300, lags=(-1, 0, 1),
                         anchors=("SYN00",), threads=1)
    tracer = spans.Tracer()
    with tracer.installed():
        result = run_analysis(cfg, returns, ("spectra", "lagged"))
    assert result.skipped == [] and len(result.windows) == 4
    tracer.require(["dfa.fluct", "dfa.cross"])
    for name in ("dfa.fluct", "dfa.cross"):
        assert tracer.stats[name].flops > 0, name


def test_louvain_calls_local_phase_once_per_level_through_the_module(monkeypatch):
    # network.louvain_levels counts the calls of the wrapped module
    # attribute, so louvain must look _local_phase up there on every level.
    assert list(inspect.signature(network.louvain).parameters) == ["c", "resolution", "seed"]
    assert list(inspect.signature(network._local_phase).parameters) == [
        "weights", "two_m", "resolution", "rng"]
    sizes, real = [], network._local_phase

    def counting(weights, two_m, resolution, rng):
        sizes.append(weights.shape[-1])
        return real(weights, two_m, resolution, rng)

    monkeypatch.setattr(network, "_local_phase", counting)
    rng = np.random.default_rng(8)
    for seed in range(6):
        n = 30
        block = rng.integers(0, 4, n)
        rho = np.where(block[:, None] == block[None, :], 0.5, 0.05)
        rho = np.round(rho + rng.normal(0.0, 0.1, (n, n)), 2)
        rho = np.triu(rho, 1) + np.triu(rho, 1).T + np.eye(n)
        sizes.clear()
        c = DetrendedCorrelationMatrix(values=rho, labels=tuple(f"A{i}" for i in range(n)))
        network.louvain(c, resolution=1.0, seed=seed)
        _, _, history = louvain_loop(rho, 1.0, seed=seed)
        assert len(sizes) == len(history) - 1 >= 2
        assert sizes[0] == n and sizes == sorted(sizes, reverse=True)


def test_all_families_sweep_calls_every_network_span_and_the_csv_writer(tmp_path):
    # A traced name that the sweep stops looking up on its module (say, a
    # network function inlined into its caller) records zero calls, which
    # fails the benchmark's traced run.
    spans = _spans_module()
    returns = synth_returns(
        GeneratorSpec("factor", 6, 1_500, {"beta": 1.0, "sigma": 1.0, "response_spread": 5}), 4
    )
    cfg = AnalysisConfig(q=(1.0, 2.0), s=(10,), window=600, step=300, lags=(-1, 0, 1),
                         anchors=("SYN00",), verbose=True, threads=1)
    tracer = spans.Tracer()
    with tracer.installed():
        result = run_analysis(cfg, returns, ALL_FAMILIES)
        emit.write_outputs(result, cfg, str(tmp_path), ALL_FAMILIES)
    assert result.skipped == [] and len(result.windows) == 4
    network_spans = sorted({name for _, _, name in spans.SPANS if name.startswith("network.")})
    assert len(network_spans) == 6
    tracer.require([*network_spans, "emit.write", "emit.csv"])
