"""The benchmark's hooks into the package.

``bench/spans.py`` wraps package functions through the module attributes
their callers look up, and computes each dfa kernel call's work from its
positional arguments (a 2-D stack first, the scale second for
``dfa.fluct`` and third for ``dfa.cross``).  A sweep that stops calling a
wrapped name records nothing, and one that changes those arguments breaks
the work count; both would only show when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

from qdcca.config import AnalysisConfig
from qdcca.pipeline import run_analysis
from qdcca.synth import GeneratorSpec, synth_returns


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
