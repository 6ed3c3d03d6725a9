"""Output checks that need no stored reference.

Each check names the windows it finds wrong; a failure that is not tied
to one window (wrong window plan, wrong exclusions) fails every window.
"""

from __future__ import annotations

import csv
import json
import math
import os

from qdcca.emit import MANIFEST_NAME

LITERAL_TOL = 1e-10


def sweep_failures(out_dir, inputs, report, cfg) -> set[int]:
    """Windows whose skip status, exclusions or spanning trees are wrong."""
    every = set(range(inputs.n_windows))
    with open(os.path.join(out_dir, MANIFEST_NAME)) as fh:
        manifest = json.load(fh)
    if (manifest["n_windows_planned"] != inputs.n_windows
            or set(report.excluded) != inputs.excluded
            or tuple(manifest["tickers"]) != inputs.retained):
        return every
    skipped = {idx for idx, _reason in manifest["skipped"]}
    failed = skipped ^ inputs.skipped
    for w in every - skipped:
        for q in cfg.q:
            for s in cfg.s:
                path = os.path.join(out_dir, _edges_name(q, s, w))
                if not _is_spanning_tree(path, inputs.retained):
                    failed.add(w)
    return failed


def _edges_name(q: float, s: int, window: int) -> str:
    return f"edges_{q:g}_{s}_{window:05d}.csv"


def _read_edges(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [(i, j, float(d), float(rho)) for i, j, d, rho in rows[1:]]


def _is_spanning_tree(path, labels) -> bool:
    """n - 1 edges joining all labels, each with d = sqrt(max(0, 2(1 - rho)))."""
    if not os.path.exists(path):
        return False
    edges = _read_edges(path)
    if len(edges) != len(labels) - 1:
        return False
    parent = {lab: lab for lab in labels}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, d, rho in edges:
        if i not in parent or j not in parent:
            return False
        if d != math.sqrt(max(0.0, 2.0 * (1.0 - rho))):
            return False
        ri, rj = root(i), root(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def literal_failures(out_dir, inputs, returns, cfg, rng, literal, n_pairs) -> set[int]:
    """Recompute a seeded sample of emitted MST-edge coefficients with the
    literal per-box oracle on the window's raw returns."""
    done = sorted(set(range(inputs.n_windows)) - inputs.skipped)
    index = {t: k for k, t in enumerate(returns.tickers)}
    failed = set()
    for _ in range(n_pairs):
        w = int(rng.choice(done))
        q = float(rng.choice(cfg.q))
        s = int(rng.choice(cfg.s))
        path = os.path.join(out_dir, _edges_name(q, s, w))
        if not os.path.exists(path):
            failed.add(w)
            continue
        edges = _read_edges(path)
        i, j, _d, rho = edges[int(rng.integers(len(edges)))]
        start = w * cfg.step
        window = returns.values[:, start : start + cfg.window]
        ref = literal(window[index[i]], window[index[j]], q, s, cfg.poly_order)
        if not abs(rho - ref) <= LITERAL_TOL:
            failed.add(w)
    return failed
