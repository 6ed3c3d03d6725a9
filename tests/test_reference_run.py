"""Reference run: every emitted value checked against a committed run.

Three small analyses are regenerated from their `synth` seeds and compared
with `fixtures/reference_run.json`:

* ``c15``: the criterion-15 shape (8 factor series, 30,000 minutes, q = 1, 4,
  s = 10, 60, lags -1, 0, 1, two anchors, four windows);
* ``n80_s180``: one window of 80 series in four correlated blocks (so the
  partition has more than one community) at s = 180 with q = 1, 2, 4 and
  lags -1, 0, 1;
* ``c15_residual_verbose``: the ``c15`` data at q = 2, s = 60 over two
  windows with ``residual`` and ``verbose`` on, so the ``res_*`` spectra
  columns and both extra path-length columns are checked too.

Every float in every file must lie within the oracle bound of 1e-10 of the
reference, every other field (indices, timestamps, hubs, 0/1 flags,
co-membership) must be equal, and the MST edge sets and Louvain partitions
must be identical.  A change that moves the summation order may change the
bytes and still pass; the test prints whether the bytes matched (run pytest
with -s or -rP to see it).

The fixture is rewritten by

    PYTHONPATH=src python tests/test_reference_run.py [CASE ...]

which regenerates the named cases (all of them when none is named) and
keeps the other entries as they are.
"""

import csv
import io
import json
import math
import os
import sys

from qdcca.cli import main as cli_main
from qdcca.config import AnalysisConfig
from qdcca.data import build_return_matrix, load_quotes
from qdcca.emit import MANIFEST_NAME, write_outputs
from qdcca.pipeline import ALL_FAMILIES, run_analysis

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "reference_run.json")
BOUND = 1e-10

CASES = {
    "c15": (
        ["--generator", "factor", "--n", "8", "--t", "30000", "--seed", "42"],
        AnalysisConfig(q=(1.0, 4.0), s=(10, 60), window=10_080, step=5_000,
                       lags=(-1, 0, 1), anchors=("SYN00", "SYN01"), seed=9),
    ),
    "n80_s180": (
        ["--generator", "blocks", "--n", "80", "--t", "10080", "--seed", "80",
         "--sizes", "20,20,20,20", "--within", "0.4", "--across", "0.1"],
        AnalysisConfig(q=(1.0, 2.0, 4.0), s=(180,), window=10_080, step=1_440,
                       lags=(-1, 0, 1), anchors=("SYN00", "SYN01"), seed=3),
    ),
    "c15_residual_verbose": (
        ["--generator", "factor", "--n", "8", "--t", "30000", "--seed", "42"],
        AnalysisConfig(q=(2.0,), s=(60,), window=10_080, step=10_080,
                       lags=(-1, 0, 1), anchors=("SYN00", "SYN01"), seed=9,
                       residual=True, verbose=True),
    ),
}


def run_case(name, workdir):
    """Emitted files (name -> text) and partitions of one reference case."""
    synth_args, cfg = CASES[name]
    data_dir = os.path.join(workdir, name, "data")
    out_dir = os.path.join(workdir, name, "out")
    assert cli_main(["synth", *synth_args, "--out", data_dir]) == 0
    returns, _ = build_return_matrix(load_quotes(data_dir), base=cfg.base, grid=cfg.grid,
                                     stable_threshold=cfg.stable_threshold)
    result = run_analysis(cfg, returns)
    manifest = write_outputs(result, cfg, out_dir, ALL_FAMILIES)
    files = {}
    for fname in manifest["outputs"] + [MANIFEST_NAME]:
        with open(os.path.join(out_dir, fname), newline="") as fh:
            files[fname] = fh.read()
    partitions = {
        f"{w.index}/{s}": [p.communities[t] for t in result.tickers]
        for w in result.windows
        for s, p in sorted(w.partitions.items())
    }
    return {"files": files, "partitions": partitions}


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _is_float(field):
    try:
        int(field)
    except ValueError:
        try:
            float(field)
        except ValueError:
            return False
        return True
    return False


def _cell_diff(got, ref):
    """|difference| of two float fields, 0.0 for equal other fields, None
    for fields that cannot match (a float against a non-float, unequal
    text)."""
    if _is_float(ref):
        if not _is_float(got):
            return None
        a, b = float(got), float(ref)
        if math.isnan(a) or math.isnan(b):
            return 0.0 if math.isnan(a) and math.isnan(b) else None
        return abs(a - b)
    return 0.0 if got == ref else None


def _edge_table(rows):
    return {frozenset(row[:2]): row[2:] for row in rows[1:]}


def compare_file(fname, got, ref):
    """(mismatches, largest float difference) of one emitted file against
    its reference text."""
    if fname == MANIFEST_NAME:
        return ([] if json.loads(got) == json.loads(ref) else ["manifest differs"]), 0.0
    got_rows, ref_rows = _rows(got), _rows(ref)
    if got_rows[:1] != ref_rows[:1]:
        return [f"header {got_rows[:1]} vs {ref_rows[:1]}"], 0.0
    if fname.startswith("edges_"):
        # An edge set, not an insertion order: Prim's order may follow the
        # last bits of near-equal distances.
        got_edges, ref_edges = _edge_table(got_rows), _edge_table(ref_rows)
        if set(got_edges) != set(ref_edges) or len(got_edges) != len(got_rows) - 1:
            return ["MST edge set differs"], 0.0
        pairs = [(got_edges[e], ref_edges[e]) for e in ref_edges]
    else:
        if len(got_rows) != len(ref_rows):
            return [f"{len(got_rows)} rows vs {len(ref_rows)}"], 0.0
        pairs = list(zip(got_rows[1:], ref_rows[1:]))
    problems, largest = [], 0.0
    for got_row, ref_row in pairs:
        if len(got_row) != len(ref_row):
            problems.append(f"row {got_row} vs {ref_row}")
            continue
        for g, r in zip(got_row, ref_row):
            diff = _cell_diff(g, r)
            if diff is None or diff > BOUND:
                problems.append(f"{g!r} vs {r!r}")
            else:
                largest = max(largest, diff)
    return problems, largest


def test_reference_run_within_oracle_bound(tmp_path):
    with open(FIXTURE) as fh:
        reference = json.load(fh)
    assert sorted(reference) == sorted(CASES)
    for name in CASES:
        ref = reference[name]
        got = run_case(name, str(tmp_path))
        assert sorted(got["files"]) == sorted(ref["files"]), name
        assert got["partitions"] == ref["partitions"], f"{name}: partitions differ"
        problems, largest = {}, 0.0
        for fname, text in ref["files"].items():
            found, diff = compare_file(fname, got["files"][fname], text)
            if found:
                problems[fname] = found
            largest = max(largest, diff)
        assert not problems, f"{name}: {problems}"
        same = sum(got["files"][f] == text for f, text in ref["files"].items())
        print(f"REFERENCE {name}: {same} of {len(ref['files'])} files byte-identical, "
              f"largest float difference {largest:.1e} (bound {BOUND:g})")


if __name__ == "__main__":
    import tempfile

    runs = {}
    if os.path.exists(FIXTURE):
        with open(FIXTURE) as fh:
            runs = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        runs.update({name: run_case(name, tmp) for name in sys.argv[1:] or CASES})
    with open(FIXTURE, "w") as fh:
        json.dump(runs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE} ({os.path.getsize(FIXTURE)} bytes)", file=sys.stderr)
