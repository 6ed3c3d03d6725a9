import csv
import json
import os

import pytest

from qdcca.cli import main
from qdcca.config import CONFIG_KEYS
from qdcca.data import load_quotes
from qdcca.synth import GeneratorSpec, synth_quotes

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "quotes")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_fixture(capsys):
    code, out, err = _run(capsys, "validate", FIXTURE, "--window", "400", "--step", "100",
                          "--s", "10,20")
    assert code == 0
    assert "ok" in out
    assert "windows: 3" in out


def test_help_enumerates_every_config_key(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in CONFIG_KEYS:
        assert f"--{key.replace('_', '-')}" in out, key


def test_invalid_config_is_machine_readable(capsys):
    code, out, err = _run(capsys, "validate", FIXTURE, "--q", "0")
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"] == "ConfigError"


def test_missing_input_reports_error(capsys):
    code, out, err = _run(capsys, "analyze", "/nonexistent/path")
    assert code == 2
    assert json.loads(err.strip())["error"] in ("OSError", "QuoteParseError")


def test_non_finite_timestamp_is_machine_readable(tmp_path, capsys):
    (tmp_path / "AAA.csv").write_text("timestamp,price\n0,100\nnan,101\n2,102\n")
    (tmp_path / "BBB.csv").write_text("timestamp,price\n0,100\n1,101\n2,102\n")
    code, out, err = _run(capsys, "validate", str(tmp_path))
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"] == "QuoteParseError"
    assert payload["detail"].startswith(f"{tmp_path / 'AAA.csv'}:3: ")


def test_non_utf8_quote_file_is_machine_readable(tmp_path, capsys):
    (tmp_path / "AAA.csv").write_bytes(b"timestamp,price\n0,100\n1,10\xff1\n2,102\n")
    (tmp_path / "BBB.csv").write_text("timestamp,price\n0,100\n1,101\n2,102\n")
    code, out, err = _run(capsys, "validate", str(tmp_path))
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"] == "QuoteParseError"
    assert payload["detail"].startswith(f"{tmp_path / 'AAA.csv'}:3: ")


def test_synth_output_loads_back_bitwise(tmp_path, capsys):
    code, _, _ = _run(capsys, "synth", "--generator", "factor", "--n", "4", "--t", "500",
                      "--seed", "11", "--response-spread", "3", "--out", str(tmp_path))
    assert code == 0
    spec = GeneratorSpec("factor", 4, 500, {"beta": 1.0, "sigma": 1.0, "response_spread": 3})
    expected = synth_quotes(spec, 11)
    loaded = load_quotes(str(tmp_path))
    assert [qs.ticker for qs in loaded] == [qs.ticker for qs in expected]
    for got, want in zip(loaded, expected):
        assert got.timestamps.tobytes() == want.timestamps.tobytes()
        assert got.prices.tobytes() == want.prices.tobytes()


def _analyze_args(out_dir, *extra):
    return [
        "analyze", FIXTURE, "--out", str(out_dir),
        "--window", "400", "--step", "100", "--q", "1,2", "--s", "10,20",
        "--lags=-1,0,1", "--seed", "3",
    ] + list(extra)


def test_analyze_fixture_emits_all_families(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = _run(capsys, *_analyze_args(out_dir))
    assert code == 0, err
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    names = manifest["outputs"]
    for q in ("1", "2"):
        for s in ("10", "20"):
            assert f"spectra_{q}_{s}.csv" in names
            assert f"topology_{q}_{s}.csv" in names
            assert f"periods_{q}_{s}.csv" in names
            assert f"lagged_BTC_{q}_{s}.csv" in names
            assert f"lagged_ETH_{q}_{s}.csv" in names
    assert "clusters_BTC_10.csv" in names
    assert "clusters_ETH_20.csv" in names
    assert any(n.startswith("edges_1_10_") for n in names)


def test_manifest_files_exist_and_parse(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, _ = _run(capsys, *_analyze_args(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["n_windows_done"] == 3
    for name in manifest["outputs"]:
        path = out_dir / name
        assert path.exists(), name
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows, name
        header = rows[0]
        assert all(h for h in header)
        for row in rows[1:]:
            assert len(row) == len(header)
            # numeric columns parse back
            for cell in row:
                if cell and cell not in manifest["tickers"]:
                    float(cell)


def test_analyze_determinism_across_runs_and_threads(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a, _, _ = _run(capsys, *_analyze_args(out_a, "--threads", "1"))
    code_b, _, _ = _run(capsys, *_analyze_args(out_b, "--threads", "4"))
    assert code_a == code_b == 0
    man_a = json.loads((out_a / "run_manifest.json").read_text())
    man_b = json.loads((out_b / "run_manifest.json").read_text())
    assert man_a["config_hash"] == man_b["config_hash"]
    for name in man_a["outputs"] + ["run_manifest.json"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_synth_then_analyze_smoke(tmp_path, capsys):
    data_dir = tmp_path / "synthdata"
    code, out, _ = _run(
        capsys, "synth", "--generator", "factor", "--n", "6", "--t", "3000",
        "--seed", "7", "--out", str(data_dir),
    )
    assert code == 0
    assert len(list(data_dir.glob("*.csv"))) == 6
    out_dir = tmp_path / "run"
    code, out, err = _run(
        capsys, "analyze", str(data_dir), "--out", str(out_dir),
        "--window", "1000", "--step", "1000", "--q", "2", "--s", "25",
        "--anchors", "SYN00,SYN01", "--lags=-1,0,1", "--seed", "1",
    )
    assert code == 0, err
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["n_windows_done"] == 3
    families = {n.split("_")[0] for n in manifest["outputs"]}
    assert families == {"spectra", "topology", "edges", "clusters", "lagged", "periods"}


@pytest.mark.parametrize(
    "command,expect",
    [
        ("spectra", {"spectra_1_10.csv"}),
        ("mst", {"topology_1_10.csv", "edges_1_10_00000.csv", "edges_1_10_00001.csv"}),
        ("clusters", {"clusters_BTC_10.csv", "clusters_ETH_10.csv"}),
        ("lagged", {"lagged_BTC_1_10.csv", "lagged_ETH_1_10.csv"}),
        ("periods", {"periods_1_10.csv"}),
    ],
)
def test_subcommand_emits_single_family(tmp_path, capsys, command, expect):
    out_dir = tmp_path / command
    code, _, err = _run(
        capsys, command, FIXTURE, "--out", str(out_dir),
        "--window", "400", "--step", "200", "--q", "1", "--s", "10", "--lags=-1,0,1",
    )
    assert code == 0, err
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert set(manifest["outputs"]) == expect


def test_config_file_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        "[analysis]\nq = 1\ns = 10\nlags = 0\n"
        "[window]\nwindow = 400\nstep = 200\n"
        "[run]\nseed = 11\n"
    )
    out_dir = tmp_path / "cfg_run"
    code, _, err = _run(
        capsys, "periods", FIXTURE, "--config", str(cfg_path), "--out", str(out_dir)
    )
    assert code == 0, err
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["config"]["seed"] == 11
    assert manifest["config"]["window"] == 400
