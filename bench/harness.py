"""Timed passes, output checks and metric assembly for one benchmark run.

A pass is the public pipeline on one workload's inputs: the input stage
(``data.load_quotes`` for file workloads, then ``data.build_return_matrix``;
its time is setup_s), ``pipeline.run_analysis`` and ``emit.write_outputs``.
Every pass's outputs are checked after its timed region ends.

--trace 0 repeats passes at the workload's pool threads until the run's
seconds have elapsed (at least MIN_PASSES) and reports the medians; the
median also absorbs a slower first pass while caches fill.

--trace 1 alternates untraced passes at 2 and 1 pool threads for the
run's seconds (pipeline.speedup_2t, and the base of trace.overhead_frac),
then makes one traced pass at 1 pool thread on the seed and one on a
second seed.  At one pool thread the layers' self times add up to the
pass's wall time, so a layer's share of wall_s is its self time over the
traced pass's wall time.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import traceback
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import checks
from qdcca import data, emit, pipeline
from spans import LAYERS, Tracer
from workloads import WORKLOADS, make_inputs

MIN_PASSES = 3
LITERAL_PAIRS = 6         # emitted MST edges per run re-derived by the literal oracle
SECOND_SEED = 1_000_003   # offset of the second traced seed

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_MAP = {
    "data.load_s, data.rows": ("setup_s, wall_s", "ingest_gappy"),
    "data.align_s": ("setup_s", "all"),
    "dfa.fluct_s, dfa.fluct_calls": ("wall_s, windows_per_s", "sweep80, ingest_gappy"),
    "dfa.cross_s, dfa.cross_calls": ("wall_s, windows_per_s", "sweep80 only"),
    "dfa.gram_gflop, dfa.gflops": ("context for kernel changes", "sweep80, ingest_gappy"),
    "spectra.corr_self_s, spectra.eigh_s": ("wall_s", "universe250"),
    "spectra.residual_s": ("wall_s", "ingest_gappy"),
    "network.*": ("wall_s, windows_per_s", "universe250"),
    "pipeline.window_p50_s, window_p90_s, self_s, windows_skipped": ("windows_per_s", "all"),
    "pipeline.speedup_2t": ("windows_per_s", "sweep80, universe250"),
    "emit.*": ("wall_s", "sweep80"),
    "trace.overhead_frac": ("none; it bounds the trace", "all"),
    "<layer>.share, <layer>.share_seed2": ("self time over traced wall_s", "all"),
}


@dataclass
class Pass:
    setup: float
    analysis: float
    wall: float
    done: int
    skipped: int
    rows: int          # quote rows parsed by load_quotes (0 for in-memory quotes)
    out_bytes: int


def _timed_pass(families, cfg, inputs, out_dir):
    t0 = perf_counter()
    series = data.load_quotes(inputs.csv_dir) if inputs.csv_dir else inputs.quotes
    returns, report = data.build_return_matrix(
        series, base=cfg.base, grid=cfg.grid, stable_threshold=cfg.stable_threshold
    )
    t1 = perf_counter()
    result = pipeline.run_analysis(cfg, returns, families)
    t2 = perf_counter()
    emit.write_outputs(result, cfg, out_dir, families)
    t3 = perf_counter()
    rows = sum(len(s) for s in series) if inputs.csv_dir else 0
    p = Pass(t1 - t0, t2 - t1, t3 - t0, len(result.windows), len(result.skipped), rows, 0)
    return p, returns, report


class Session:
    """Counts windows attempted and failed over every pass of one run."""

    def __init__(self, wl, seed, work_dir, literal):
        self.wl = wl
        self.work_dir = work_dir
        self.literal = literal
        self.rng = np.random.default_rng([seed, 2])
        self.literal_done = False
        self.attempted = 0
        self.failed = 0

    def one_pass(self, cfg, inputs) -> Pass | None:
        """Time one pass and check its outputs; None if it raised."""
        self.attempted += inputs.n_windows
        out_dir = tempfile.mkdtemp(dir=self.work_dir)
        try:
            p, returns, report = _timed_pass(self.wl.families, cfg, inputs, out_dir)
            bad = checks.sweep_failures(out_dir, inputs, report, cfg)
            if not self.literal_done:
                bad |= checks.literal_failures(out_dir, inputs, returns, cfg, self.rng,
                                               self.literal, LITERAL_PAIRS)
                self.literal_done = True
            p.out_bytes = sum(e.stat().st_size for e in os.scandir(out_dir))
        except Exception:  # a pass that raises fails all its windows; the run goes on
            traceback.print_exc()
            self.failed += inputs.n_windows
            return None
        finally:
            shutil.rmtree(out_dir)
        self.failed += len(bad)
        return p

    def traced_pass(self, cfg, inputs):
        tracer = Tracer()
        with tracer.installed():
            p = self.one_pass(cfg, inputs)
        if p is None:
            raise RuntimeError("the traced pass raised")
        tracer.require(self.wl.expected_spans)
        return tracer, p


def _end_to_end(session, cfg, inputs, seconds):
    passes, tries, start = [], 0, perf_counter()
    while tries < MIN_PASSES or perf_counter() - start < seconds:
        tries += 1
        p = session.one_pass(cfg, inputs)
        if p is not None:
            passes.append(p)
    if not passes:
        raise RuntimeError("no pass completed")
    print(f"passes: {len(passes)} of {tries}; wall_s samples "
          + " ".join(f"{p.wall:.4f}" for p in passes))
    med = statistics.median
    return {
        "wall_s": (med(p.wall for p in passes), "s"),
        "setup_s": (med(p.setup for p in passes), "s"),
        "windows_per_s": (med(p.done / (p.wall - p.setup) for p in passes), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _per_layer(session, cfg, inputs, seconds):
    untraced = {1: [], 2: []}
    tries, start = 0, perf_counter()
    while tries < 2 or perf_counter() - start < seconds:
        threads = 2 - tries % 2
        tries += 1
        p = session.one_pass(replace(cfg, threads=threads), inputs)
        if p is not None:
            untraced[threads].append(p)
    if not (untraced[1] and untraced[2]):
        raise RuntimeError("no untraced pass completed at 1 or at 2 threads")
    for threads, passes in untraced.items():
        print(f"untraced passes at {threads} pool threads: wall_s samples "
              + " ".join(f"{q.wall:.4f}" for q in passes))
    med = statistics.median
    one = replace(cfg, threads=1)
    tracer, p = session.traced_pass(one, inputs)
    seed2 = cfg.seed + SECOND_SEED
    inputs2 = make_inputs(session.wl, seed2, session.work_dir)
    tracer2, p2 = session.traced_pass(replace(one, seed=seed2), inputs2)
    st = tracer.stats
    dfa_s = st["dfa.fluct"].total + st["dfa.cross"].total
    gflop = (st["dfa.fluct"].flops + st["dfa.cross"].flops) / 1e9
    windows = st["pipeline.window"].durations
    metrics = {
        "data.load_s": (st["data.load"].total, "s"),
        "data.rows": (p.rows, "count"),
        "data.align_s": (st["data.align"].total, "s"),
        "dfa.fluct_s": (st["dfa.fluct"].total, "s"),
        "dfa.fluct_calls": (st["dfa.fluct"].calls, "count"),
        "dfa.cross_s": (st["dfa.cross"].total, "s"),
        "dfa.cross_calls": (st["dfa.cross"].calls, "count"),
        "dfa.gram_gflop": (gflop, "GFLOP"),
        "dfa.gflops": (gflop / dfa_s if dfa_s else 0.0, "GFLOP/s"),
        "spectra.corr_self_s": (st["spectra.corr"].self_time, "s"),
        "spectra.eigh_s": (st["spectra.eigh"].total, "s"),
        "spectra.residual_s": (st["spectra.residual"].total, "s"),
        "network.louvain_s": (st["network.louvain"].total, "s"),
        "network.louvain_levels": (st["network.louvain_level"].calls, "count"),
        "network.path_s": (st["network.path"].total, "s"),
        "network.mst_s": (st["network.mst"].total, "s"),
        "network.powerlaw_s": (st["network.powerlaw"].total, "s"),
        "network.distance_s": (st["network.distance"].total, "s"),
        "pipeline.window_p50_s": (float(np.percentile(windows, 50)), "s"),
        "pipeline.window_p90_s": (float(np.percentile(windows, 90)), "s"),
        "pipeline.self_s": (tracer.layer_self()["pipeline"], "s"),
        "pipeline.windows_skipped": (p.skipped, "count"),
        "pipeline.speedup_2t": (
            med(q.analysis for q in untraced[1]) / med(q.analysis for q in untraced[2]),
            "ratio",
        ),
        "emit.write_s": (st["emit.write"].total, "s"),
        "emit.files": (st["emit.csv"].calls, "count"),
        "emit.bytes": (p.out_bytes, "bytes"),
        "trace.overhead_frac": (p.wall / med(q.wall for q in untraced[1]) - 1.0, "frac"),
    }
    for suffix, tr, q in (("share", tracer, p), ("share_seed2", tracer2, p2)):
        for layer, self_time in tr.layer_self().items():
            metrics[f"{layer}.{suffix}"] = (self_time / q.wall, "frac")
    return metrics


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _environment(wl, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "pool_threads": wl.cfg.threads,
        "traced_pool_threads": 1,
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _load_literal(path):
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.rho_q_literal


def run(args, root, oracles_path) -> int:
    wl = WORKLOADS[args.workload]
    cfg = replace(wl.cfg, seed=args.seed)
    os.makedirs(root / ".bench_work", exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=root / ".bench_work")
    try:
        session = Session(wl, args.seed, work_dir, _load_literal(oracles_path))
        inputs = make_inputs(wl, args.seed, work_dir)
        if args.trace:
            metrics = _per_layer(session, cfg, inputs, args.seconds)
        else:
            metrics = _end_to_end(session, cfg, inputs, args.seconds)
    finally:
        shutil.rmtree(work_dir)
        try:
            os.rmdir(root / ".bench_work")
        except OSError:
            pass  # another run still uses it
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"failed_frac {session.failed / session.attempted:.6g} "
          f"({session.failed} of {session.attempted} windows)")
    print("env " + json.dumps(_environment(wl, args), sort_keys=True))
    if args.trace:
        print("layer_map " + json.dumps(LAYER_MAP))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
