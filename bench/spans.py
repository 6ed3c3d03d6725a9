"""Spans recorded from outside the package.

Each traced function is replaced, for the length of a traced pass, by a
wrapper on the module attribute through which its caller looks it up
(``qdcca.spectra.fluctuation_matrices``, not ``qdcca.dfa``'s original,
because ``spectra`` calls the name it imported).  Spans nest per thread;
a span's self time is its duration minus the durations of its direct
children on the same thread.
"""

from __future__ import annotations

import importlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


def _gram_flops(values, scale) -> int:
    # One (N, s) @ (s, N) product per box, 2*floor(T/s) boxes.
    n, t = values.shape
    return 2 * (2 * (t // scale)) * scale * n * n


# (module, attribute, span name); the layer is the span name's prefix.
SPANS = (
    ("qdcca.data", "load_quotes", "data.load"),
    ("qdcca.data", "build_return_matrix", "data.align"),
    ("qdcca.pipeline", "run_analysis", "pipeline.run_analysis"),
    ("qdcca.pipeline", "compute_window", "pipeline.window"),
    ("qdcca.pipeline", "cross_fluctuation_matrices", "dfa.cross"),
    ("qdcca.spectra", "fluctuation_matrices", "dfa.fluct"),
    ("qdcca.spectra", "correlation_matrices", "spectra.corr"),
    ("qdcca.spectra", "eigendecompose", "spectra.eigh"),
    ("qdcca.spectra", "eigensignal", "spectra.residual"),
    ("qdcca.spectra", "residual_returns", "spectra.residual"),
    ("qdcca.network", "distance_matrix", "network.distance"),
    ("qdcca.network", "minimum_spanning_tree", "network.mst"),
    ("qdcca.network", "mean_path_length", "network.path"),
    ("qdcca.network", "degree_distribution", "network.powerlaw"),
    ("qdcca.network", "powerlaw_fit", "network.powerlaw"),
    ("qdcca.network", "louvain", "network.louvain"),
    ("qdcca.network", "_local_phase", "network.louvain_level"),
    ("qdcca.emit", "write_outputs", "emit.write"),
    ("qdcca.emit", "_write_csv", "emit.csv"),
)

# Floating-point work of a call, computed from its argument shapes.
_FLOPS = {
    "dfa.fluct": lambda args: _gram_flops(args[0], args[1]),
    "dfa.cross": lambda args: _gram_flops(args[0], args[2]),
}

LAYERS = ("data", "dfa", "spectra", "network", "pipeline", "emit")


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    flops: int = 0
    durations: list[float] = field(default_factory=list)  # calls that returned


class Tracer:
    """Span statistics for one traced pass."""

    def __init__(self):
        self.stats = {name: SpanStats() for _, _, name in SPANS}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, name, fn):
        flops = _FLOPS.get(name)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            children = [0.0]
            stack.append(children)
            returned = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                duration = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                work = flops(args) if flops else 0
                with self._lock:
                    st = self.stats[name]
                    st.calls += 1
                    st.total += duration
                    st.self_time += duration - children[0]
                    st.flops += work
                    if returned:
                        st.durations.append(duration)

        return traced

    @contextmanager
    def installed(self):
        """Patch every span in SPANS for the duration of the block.

        A missing attribute raises here, before anything runs.
        """
        saved = []
        try:
            for module_name, attr, name in SPANS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[name.split(".")[0]] += st.self_time
        return out

    def require(self, names):
        """Fail when a span the workload must exercise recorded no call:
        a wrapper on the wrong module attribute records nothing."""
        silent = [n for n in names if self.stats[n].calls == 0]
        if silent:
            raise RuntimeError(f"traced spans recorded zero calls: {', '.join(silent)}")
