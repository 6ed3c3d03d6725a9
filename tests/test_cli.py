import csv
import json
import os
from dataclasses import replace

import pytest

from qdcca.cli import _build_parser, _config_from_args, main
from qdcca.config import CONFIG_KEYS, AnalysisConfig, load_config
from qdcca.data import build_return_matrix, load_quotes
from qdcca.errors import ConfigError
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


def test_validate_counts_gap_fill_skips(tmp_path, capsys):
    # 20 missing minutes of one ticker put 2% gap fills into the three
    # windows that hold them; 5 more missing minutes stay under the 1% limit.
    data_dir = tmp_path / "data"
    code, _, _ = _run(capsys, "synth", "--generator", "factor", "--n", "3", "--t", "3000",
                      "--seed", "5", "--out", str(data_dir))
    assert code == 0
    path = data_dir / "SYN01.csv"
    lines = path.read_text().splitlines(keepends=True)
    drop = set(range(700, 720)) | set(range(2_100, 2_105))  # line k + 1 holds minute k
    path.write_text("".join(line for k, line in enumerate(lines) if k - 1 not in drop))
    code, out, err = _run(capsys, "validate", str(data_dir), "--window", "1000",
                          "--step", "250", "--s", "10", "--max-missing", "0.01")
    assert code == 0, err
    returns, _ = build_return_matrix(load_quotes(str(data_dir)))
    fills = returns.filled.astype(float)
    n_windows = (returns.n_samples - 1_000) // 250 + 1
    expected = sum(fills[k * 250 : k * 250 + 1_000].sum() / 1_000 > 0.01
                   for k in range(n_windows))
    assert expected == 3
    assert f"gap-fill skips: {expected} of {n_windows} windows exceed max_missing 1.00%" in out


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


@pytest.mark.parametrize("flags, detail", [
    (["--resolution", "nan"], "--resolution: must be finite, got nan"),
    (["--threshold", "25%"], "--threshold: could not convert string to float: '25%'"),
    (["--window", "10k"], "--window: invalid literal for int() with base 10: '10k'"),
    (["--s", "10,x"], "--s: invalid literal for int() with base 10: 'x'"),
    (["--q", "1,inf"], "--q: must be finite, got inf"),
])
def test_unparsable_flag_value_is_machine_readable(capsys, flags, detail):
    # The same parse and message as a config file's value, with the flag
    # in place of the file and key.
    code, out, err = _run(capsys, "validate", FIXTURE, *flags)
    assert code == 2 and not out
    assert json.loads(err.strip()) == {"error": "ConfigError", "detail": detail}


@pytest.mark.parametrize("argv", [["--bogus", "1"], ["--window"]])
def test_unknown_flag_or_missing_value_stays_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["validate", FIXTURE, *argv])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


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


def test_two_files_of_one_ticker_are_machine_readable(tmp_path, capsys):
    # `validate` used to print ok here, and `analyze` to emit an edge from
    # SYN00 to SYN00.
    for name in ("SYN00.csv", "SYN00.CSV", "SYN01.csv"):
        (tmp_path / name).write_text("timestamp,price\n0,100\n1,101\n2,102\n")
    code, out, err = _run(capsys, "validate", str(tmp_path))
    assert code == 2 and not out
    assert json.loads(err.strip()) == {
        "error": "QuoteParseError",
        "detail": f"{tmp_path}: SYN00.CSV and SYN00.csv hold the same ticker"}


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


@pytest.mark.parametrize("flags, kind, params", [
    (["--generator", "ar1", "--phi", "0.5"], "ar1", {"phi": 0.5}),
    (["--generator", "correlated", "--pearson", "0.3"], "correlated",
     {"target": [[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]]}),
])
def test_synth_generator_flags_reach_the_generator(tmp_path, capsys, flags, kind, params):
    # --phi feeds the ar1 coefficient; --pearson fills the off-diagonal of
    # the correlated kind's target matrix.
    code, out, _ = _run(capsys, "synth", *flags, "--n", "3", "--t", "400", "--seed", "2",
                        "--out", str(tmp_path))
    assert code == 0 and out == f"wrote 3 series x 401 rows to {tmp_path}\n"
    expected = synth_quotes(GeneratorSpec(kind, 3, 400, params), 2)
    loaded = load_quotes(str(tmp_path))
    for got, want in zip(loaded, expected, strict=True):
        assert got.ticker == want.ticker
        assert got.prices.tobytes() == want.prices.tobytes()


def _gappy_pegged_quotes(capsys, data_dir):
    """Three factor series, one missing 20 minutes (2% gap fills in the
    windows of width 1000, step 500, that hold them), and a pegged USDX."""
    code, _, _ = _run(capsys, "synth", "--generator", "factor", "--n", "3", "--t", "3000",
                      "--seed", "5", "--out", str(data_dir))
    assert code == 0
    path = data_dir / "SYN01.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for k, line in enumerate(lines) if not 701 <= k < 721))
    (data_dir / "USDX.csv").write_text(
        "timestamp,price\n" + "".join(f"{k},1.0\n" for k in range(3_001)))
    return ["--window", "1000", "--step", "500", "--s", "10", "--q", "2",
            "--max-missing", "0.01", "--anchors", "SYN00"]


_PEGGED = "  excluded USDX: near-zero return variance (pegged to quote currency)\n"


def test_validate_prints_each_exclusion(tmp_path, capsys):
    flags = _gappy_pegged_quotes(capsys, tmp_path / "data")
    code, out, err = _run(capsys, "validate", str(tmp_path / "data"), *flags)
    assert code == 0, err
    assert "series: 4 loaded, 3 retained\n" + _PEGGED in out
    assert "gap-fill skips: 2 of 5 windows exceed max_missing 1.00%\n" in out


@pytest.mark.parametrize("verbose", [True, False])
def test_verbose_analyze_prints_skipped_windows_and_exclusions(tmp_path, capsys, verbose):
    flags = _gappy_pegged_quotes(capsys, tmp_path / "data")
    flags += ["--verbose"] if verbose else []
    code, out, err = _run(capsys, "analyze", str(tmp_path / "data"), *flags,
                          "--out", str(tmp_path / "run"))
    assert code == 0, err
    skipped = "".join(f"  skipped window {w}: 2.00% of samples are gap fills (limit 1.00%)\n"
                      for w in (0, 1))
    lines = "5 windows planned, 3 done, 2 skipped\n" + skipped + _PEGGED
    assert (lines in out) is verbose
    assert ("skipped window" in out) is verbose and ("excluded" in out) is verbose


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


# Every key once, as INI text; the two settings differ in each boolean and in
# base (one empty), and lists carry stray spaces.
_SETTINGS = [
    {"q": " 1, 4 ,2", "s": "10 , 20", "poly_order": "1", "window": "500", "step": "50",
     "base": "", "residual": "true", "lags": "-2, 0 ,2", "threshold": "0.3",
     "anchors": " BTC , ETH", "resolution": "1.5", "grid": "intersection",
     "stable_threshold": "1e-7", "max_missing": "0.05", "global_norm": "false",
     "seed": "7", "threads": "2", "verbose": "true"},
    {"q": "0.5", "s": "12", "poly_order": "3", "window": "400", "step": "100",
     "base": "BTC", "residual": "false", "lags": "0", "threshold": "0.1",
     "anchors": "XRP", "resolution": "0.5", "grid": "uniform",
     "stable_threshold": "0", "max_missing": "1", "global_norm": "true",
     "seed": "0", "threads": "1", "verbose": "false"},
]


def _ini(tmp_path, setting, name="run.ini"):
    path = tmp_path / name
    path.write_text("[analysis]\n" + "".join(f"{k} = {v}\n" for k, v in setting.items()))
    return str(path)


def _flags(setting):
    out = []
    for key, raw in setting.items():
        flag = key.replace("_", "-")
        if raw in ("true", "false"):
            out.append(f"--{flag}" if raw == "true" else f"--no-{flag}")
        else:
            out.append(f"--{flag}={raw}")
    return out


def _config_from_argv(*argv):
    return _config_from_args(_build_parser().parse_args(["validate", FIXTURE, *argv]))


@pytest.mark.parametrize("which", [0, 1])
def test_every_key_parses_alike_from_file_and_flag(tmp_path, which):
    setting, other = _SETTINGS[which], _SETTINGS[1 - which]
    assert set(setting) == set(CONFIG_KEYS)
    want = load_config(_ini(tmp_path, setting)).validate()
    assert _config_from_argv(*_flags(setting)) == want
    # Flags override every key of a file, booleans and an empty base included.
    assert _config_from_argv("--config", _ini(tmp_path, other, "other.ini"),
                             *_flags(setting)) == want


@pytest.mark.parametrize("flag, key", [
    ("--q=1,1", "q"), ("--s=10,20,10", "s"), ("--lags=0,1,0", "lags"),
    ("--anchors=BTC,BTC", "anchors"),
])
def test_repeated_list_value_is_machine_readable(tmp_path, capsys, flag, key):
    code, _, err = _run(capsys, "analyze", FIXTURE, "--out", str(tmp_path / "run"),
                        "--window", "400", "--step", "100", "--s", "10,20", flag)
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"] == "ConfigError"
    assert payload["detail"].startswith(f"{key} repeats a value")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, detail", [
    (b"q = 1\n", "line: 1"),
    (b"[analysis]\nq = 1\ns = 10\nq = 2\n", "[line  4]: option 'q'"),
    (b"[analysis]\nq = 1\n[window]\nstep = 10\n[analysis]\ns = 10\n",
     "[line  5]: section 'analysis'"),
    (b"[analysis]\nthreshold = 25%\n", "threshold: could not convert"),
    (b"[run]\nverbose = maybe\n", "verbose: expected a boolean"),
    (b"[run]\nseed = 1\xff\n", "not UTF-8 text"),
    (b"[DEFAULT]\nwindow = 400\n", "keys under [DEFAULT] are not supported"),
    (b"[analysis]\nresolution = nan\n", "resolution: must be finite, got nan"),
    (b"[analysis]\nresolution = inf\n", "resolution: must be finite, got inf"),
    (b"[analysis]\nthreshold = nan\n", "threshold: must be finite, got nan"),
    (b"[data]\nstable_threshold = nan\n", "stable_threshold: must be finite, got nan"),
    (b"[analysis]\nq = 1, inf\n", "q: must be finite, got inf"),
])
def test_malformed_config_file_is_machine_readable(tmp_path, capsys, text, detail):
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    code, _, err = _run(capsys, "validate", FIXTURE, "--config", str(path))
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["error"] == "ConfigError"
    assert str(path) in payload["detail"] and detail in payload["detail"]


def test_validate_rejects_a_negative_stable_threshold():
    # It would keep every series, as 0 does; 0 stays allowed.
    with pytest.raises(ConfigError, match="^stable_threshold must be >= 0, got -1e-06"):
        replace(AnalysisConfig(), stable_threshold=-1e-6).validate()
    assert replace(AnalysisConfig(), stable_threshold=0.0).validate().stable_threshold == 0.0


@pytest.mark.parametrize("key, value", [
    ("resolution", float("nan")), ("resolution", float("inf")), ("threshold", float("nan")),
    ("stable_threshold", float("nan")), ("max_missing", float("nan")), ("q", (1.0, float("inf"))),
])
def test_validate_rejects_non_finite_float_settings(key, value):
    # Each would otherwise run: nan resolution leaves every node alone with
    # modularity nan, nan threshold finds no period, nan stable_threshold
    # keeps pegs.  Flags and files reject them earlier, when parsed.
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        replace(AnalysisConfig(), **{key: value}).validate()


@pytest.mark.parametrize("source, detail", [
    ({"s": (3, 10)}, "every scale must be >= poly_order + 2 = 4, got (3, 10)"),
    ({"window": 700}, "window of 700 samples is too short for scale 360: need at least 720"),
    ({"step": 0}, "step must be >= 1, got 0"),
    ({"poly_order": -1}, "poly_order must be >= 0, got -1"),
    ({"grid": "daily"}, "grid must be 'uniform' or 'intersection', got 'daily'"),
    ({"max_missing": -0.01}, "max_missing must be in [0, 1], got -0.01"),
    ({"max_missing": 1.5}, "max_missing must be in [0, 1], got 1.5"),
    ({"resolution": 0.0}, "resolution must be positive, got 0.0"),
    ({"resolution": -1.0}, "resolution must be positive, got -1.0"),
    ({"threads": 0}, "threads must be >= 1, got 0"),
    # An anchor names its clusters_ and lagged_ files.
    ({"anchors": ("a/b",)}, "anchor 'a/b' cannot name its output files: "
                            "it is empty or holds a path separator"),
    ({"anchors": ("BTC", "")}, "anchor '' cannot name its output files: "
                               "it is empty or holds a path separator"),
    (None, "config file not found: {path}"),
    ("[analysis]\nwindo = 400\n", "{path}: unknown config key 'windo' in [analysis]"),
    ("[analysis]\nq = 1\n[window]\nq = 2\n", "{path}: config key 'q' set more than once"),
])
def test_config_rejections_say_what_is_wrong(tmp_path, source, detail):
    # A dict is a setting that `validate` rejects; text is a config file
    # that `load_config` rejects, and None a file that is not there.
    path = tmp_path / "run.ini"
    if isinstance(source, str):
        path.write_text(source)
    with pytest.raises(ConfigError) as err:
        if isinstance(source, dict):
            replace(AnalysisConfig(), **source).validate()
        else:
            load_config(str(path))
    assert str(err.value) == detail.format(path=path)


def _wide_csv(path, names, n_samples=3_000, seed=1):
    """A wide CSV of factor series under the header names ``names``."""
    spec = GeneratorSpec(kind="factor", n_series=len(names), n_samples=n_samples)
    quotes = synth_quotes(spec, seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", *names])
        writer.writerows([int(ts), *map(float, prices)]
                         for ts, *prices in zip(quotes[0].timestamps, *(q.prices for q in quotes)))
    return str(path)


def test_analyze_refuses_an_anchor_with_a_path_separator_before_reading(tmp_path, capsys):
    # One failed to open its output files only after the whole sweep.
    data = _wide_csv(tmp_path / "wide.csv", ["a/b", "BTC", "ETH"])
    flags = ["--q", "2", "--s", "10", "--window", "1000", "--step", "1000", "--lags=0"]
    code, out, err = _run(capsys, "analyze", data, *flags, "--anchors", "a/b,BTC",
                          "--out", str(tmp_path / "o2"))
    assert code == 2 and not out
    assert json.loads(err) == {"error": "ConfigError", "detail": (
        "anchor 'a/b' cannot name its output files: it is empty or holds a path separator")}
    assert not (tmp_path / "o2").exists()
    # A ticker that holds a separator but is no anchor names no file.
    code, _, err = _run(capsys, "analyze", data, *flags, "--anchors", "BTC",
                        "--out", str(tmp_path / "ok"))
    assert code == 0, err
    manifest = json.loads((tmp_path / "ok" / "run_manifest.json").read_text())
    assert manifest["tickers"] == ["a/b", "BTC", "ETH"]
    assert "clusters_BTC_10.csv" in manifest["outputs"]


def _hold_price(path, price: str):
    """Rewrite a per-ticker CSV with every price set to ``price``."""
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [f"{row.split(',')[0]},{price}" for row in rows]) + "\n")


# Each case's JSON error, or None where both commands pass.
_REFUSALS = {
    "all-anchors": {"error": "ConfigError", "detail": (
        "lagged coefficients need a series that is not an anchor, "
        "and every series is one: SYN00, SYN01, SYN02, SYN03")},
    "constant": {"error": "ZeroVarianceError",
                 "detail": "SYN03: cannot normalize a constant series"},
    "long-window": {"error": "ConfigError",
                    "detail": "series of 3000 samples is shorter than one window of 4000"},
    "anchor-path": {"error": "ConfigError", "detail": (
        "anchor 'a/b' cannot name its output files: it is empty or holds a path separator")},
    "gappy": None,
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_validate_refuses_what_analyze_refuses(tmp_path, capsys, case):
    # `validate` runs the checks that `analyze` makes before its first
    # window, so it exits 0 exactly when `analyze` would start; on the
    # gappy data both count the same windows and gap-fill skips.
    data_dir = tmp_path / "data"
    if case == "gappy":
        flags = _gappy_pegged_quotes(capsys, data_dir)
    else:
        _run(capsys, "synth", "--generator", "factor", "--n", "4", "--t", "3000", "--seed", "1",
             "--out", str(data_dir))
        flags = ["--q", "1,4", "--s", "10,60", "--lags=-1,0,1", "--window", "1000",
                 "--step", "500", "--anchors", "SYN00"]
        flags += {"all-anchors": ["--anchors", "SYN00,SYN01,SYN02,SYN03"],
                  # Only a stable_threshold of 0 keeps a constant series.
                  "constant": ["--global-norm", "--stable-threshold", "0"],
                  "long-window": ["--window", "4000"],
                  "anchor-path": ["--anchors", "a/b"]}[case]
        if case == "constant":
            _hold_price(data_dir / "SYN03.csv", "5.0")
    out_dir = tmp_path / "out"
    checked = _run(capsys, "validate", str(data_dir), *flags)
    ran = _run(capsys, "analyze", str(data_dir), *flags, "--out", str(out_dir))
    if _REFUSALS[case] is not None:
        assert checked[0] == ran[0] == 2 and not checked[1]
        assert json.loads(checked[2]) == json.loads(ran[2]) == _REFUSALS[case]
        assert not out_dir.exists()
        return
    assert checked[0] == ran[0] == 0, checked[2] + ran[2]
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    gap_skips = sum("gap fills" in reason for _, reason in manifest["skipped"])
    n = manifest["n_windows_planned"]
    assert (n, gap_skips) == (5, 2)
    assert f"windows: {n} of width 1000, step 500\n" in checked[1]
    assert f"gap-fill skips: {gap_skips} of {n} windows exceed" in checked[1]



@pytest.mark.parametrize("command", ["analyze", "lagged"])
@pytest.mark.parametrize("verbose", [True, False])
def test_analysis_notes_anchors_that_are_not_in_the_data(tmp_path, capsys, command, verbose):
    # BTC names no series of the synthetic quotes, so the sweep writes no
    # clusters_BTC_ or lagged_BTC_ file; the run says so on one line, with
    # or without --verbose, as validate does.
    data_dir = tmp_path / "data"
    _run(capsys, "synth", "--generator", "factor", "--n", "4", "--t", "3000", "--seed", "1",
         "--out", str(data_dir))
    flags = ["--window", "1000", "--step", "500", "--s", "10", "--q", "2"]
    flags += ["--verbose"] if verbose else []
    note = "note: anchors not in data: ['BTC']\n"
    code, out, err = _run(capsys, command, str(data_dir), *flags, "--anchors", "BTC",
                          "--out", str(tmp_path / "btc"))
    assert code == 0, err
    assert out.count(note) == 1
    assert not any("BTC" in name for name in os.listdir(tmp_path / "btc"))
    code, out, err = _run(capsys, "validate", str(data_dir), *flags, "--anchors", "BTC")
    assert code == 0 and note in out
    # An anchor that the data holds leaves no note.
    code, out, err = _run(capsys, command, str(data_dir), *flags, "--anchors", "SYN00",
                          "--out", str(tmp_path / "syn"))
    assert code == 0, err
    assert "note:" not in out
