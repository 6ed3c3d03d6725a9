"""CSV and manifest emission for sweep results.

One directory per run.  Floats are written with shortest round-trip
formatting, booleans as 0/1, missing values as empty fields.  The row
types in `pipeline` (`SpectralRow`, `TopologyRow`) declare the spectra and
topology columns; every file goes through one table writer.  The JSON
manifest lists every file written plus the semantic config and its hash;
re-running with the same config, seed and data reproduces every byte.
"""

from __future__ import annotations

import csv
import json
import os

from .config import AnalysisConfig
from .errors import ConfigError
from .network import cluster_track
from .pipeline import SpectralRow, SweepResult, TopologyRow, _check_families, threshold_periods

MANIFEST_NAME = "run_manifest.json"


def _tag(q: float) -> str:
    return f"{q:g}"


def _write_csv(path: str, header, rows):
    # csv writes a float by repr (shortest round trip), an int or str by str and
    # None as an empty field; a bool or numpy scalar would come out as its repr.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _table(out_dir: str, name: str, header, rows) -> str:
    """Write one CSV file and return its name."""
    _write_csv(os.path.join(out_dir, name), header, rows)
    return name


def _row_files(result: SweepResult, cfg: AnalysisConfig, out_dir: str, family: str,
               table: str, row_type, extra: bool, lead):
    """One ``<family>_<q>_<s>.csv`` per (q, s), with a row for each window
    whose ``table`` (a `WindowResult` field) holds one.  The header is the
    ``lead`` columns, then the row type's fields, the defaulted ones only
    when ``extra``."""
    fields = [f for f in row_type._fields if extra or f not in row_type._field_defaults]
    for q in cfg.q:
        for s in cfg.s:
            rows = []
            for w in result.windows:
                row = getattr(w, table)[(q, s)]
                values = {"window": w.index, "end_ts": w.end_ts, "q": _tag(q), "s": s}
                rows.append([values[c] for c in lead]
                            + [int(v) if type(v) is bool else v for v in row[: len(fields)]])
            yield _table(out_dir, f"{family}_{_tag(q)}_{s}.csv", [*lead, *fields], rows)


def _spectra_files(result: SweepResult, cfg: AnalysisConfig, out_dir: str):
    return _row_files(result, cfg, out_dir, "spectra", "spectral", SpectralRow,
                      cfg.residual, ("window", "end_ts", "q", "s"))


def _topology_files(result: SweepResult, cfg: AnalysisConfig, out_dir: str):
    return _row_files(result, cfg, out_dir, "topology", "topology", TopologyRow,
                      cfg.verbose, ("window", "end_ts"))


def _edge_files(result: SweepResult, cfg: AnalysisConfig, out_dir: str):
    for q in cfg.q:
        for s in cfg.s:
            for w in result.windows:
                tree = w.trees[(q, s)]
                labels = tree.labels
                rows = [
                    [labels[i], labels[j], d, rho]
                    for i, j, d, rho in zip(tree.i.tolist(), tree.j.tolist(),
                                            tree.distance.tolist(), tree.rho.tolist())
                ]
                name = f"edges_{_tag(q)}_{s}_{w.index:05d}.csv"
                yield _table(out_dir, name, ["i", "j", "d", "rho"], rows)


def _cluster_files(result: SweepResult, cfg: AnalysisConfig, out_dir: str):
    anchors = [a for a in cfg.anchors if a in result.tickers]
    for s in cfg.s if result.windows else ():
        partitions = [w.partitions[s] for w in result.windows]
        for anchor in anchors:
            labels, raster = cluster_track(partitions, anchor)
            rows = [
                [w.index, w.end_ts, *raster[k].astype(int).tolist()]
                for k, w in enumerate(result.windows)
            ]
            yield _table(out_dir, f"clusters_{anchor}_{s}.csv",
                         ["window", "end_ts", *labels], rows)


def _lagged_files(result: SweepResult, cfg: AnalysisConfig, out_dir: str):
    anchors = [a for a in cfg.anchors if a in result.tickers]
    for anchor in anchors:
        for q in cfg.q:
            for s in cfg.s:
                rows = []
                for w in result.windows:
                    taus = w.lagged.get((anchor, q, s), {})  # none with no lags
                    for tau in sorted(taus):
                        rows.append([w.index, w.end_ts, tau, taus[tau]])
                yield _table(out_dir, f"lagged_{anchor}_{_tag(q)}_{s}.csv",
                             ["window", "end_ts", "tau", "mean_rho"], rows)


def _period_files(result: SweepResult, cfg: AnalysisConfig, out_dir: str):
    for q in cfg.q:
        for s in cfg.s:
            points = [(w.end_ts, w.mean_rho[(q, s)]) for w in result.windows]
            intervals = threshold_periods(points, cfg.threshold)
            yield _table(out_dir, f"periods_{_tag(q)}_{s}.csv", ["start_ts", "end_ts"],
                         intervals)


_WRITERS = {
    "spectra": _spectra_files,
    "topology": _topology_files,
    "edges": _edge_files,
    "clusters": _cluster_files,
    "lagged": _lagged_files,
    "periods": _period_files,
}


def write_outputs(
    result: SweepResult,
    cfg: AnalysisConfig,
    out_dir: str,
    families,
) -> dict:
    """Write the requested CSV families plus the run manifest; returns the
    manifest dictionary.  An unknown family, or one the sweep did not
    compute, raises ConfigError before anything is written."""
    _check_families(families)
    if missing := [f for f in families if f not in result.families]:
        names = ", ".join(map(repr, missing))
        raise ConfigError(f"output family {names} not computed by the sweep")
    os.makedirs(out_dir, exist_ok=True)
    outputs: list[str] = []
    for family in families:
        outputs.extend(_WRITERS[family](result, cfg, out_dir))
    manifest = {
        "config": cfg.semantic_dict(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "families": sorted(families),
        "tickers": list(result.tickers),
        "n_windows_planned": result.n_windows_planned,
        "n_windows_done": len(result.windows),
        "skipped": [[idx, reason] for idx, reason in result.skipped],
        "outputs": sorted(outputs),
        "conventions": {
            "window_label": "end timestamp of the window",
            "timestamps": "epoch minutes",
            "clusters_q": f"partitions are computed at q = {cfg.q[0]:g}",
        },
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
