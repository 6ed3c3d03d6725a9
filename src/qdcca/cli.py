"""Command-line entry point.

Subcommands: analyze (full sweep), spectra / mst / clusters / lagged /
periods (single output family), synth (test-data generation), validate
(input and config checks, no computation).  Every config-file key has an
identically named flag, both read from the `AnalysisConfig` fields (a
boolean's flag also has a ``--no-`` form); flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .config import CONFIG_KEYS, AnalysisConfig, comma_list, load_config, parse_setting
from .data import build_return_matrix, load_quotes
from .emit import write_outputs
from .errors import QdccaError
from .pipeline import ALL_FAMILIES, gap_fill_skip, rolling_windows, run_analysis
from .synth import GeneratorSpec, synth_quotes

_FAMILY_OF = {
    "analyze": ALL_FAMILIES,
    "spectra": ("spectra",),
    "mst": ("topology", "edges"),
    "clusters": ("clusters",),
    "lagged": ("lagged",),
    "periods": ("periods",),
}


def _add_config_flags(sub):
    sub.add_argument("--config", help="INI config file; flags override its keys")
    sub.add_argument("--out", default="qdcca_out", help="output directory")
    # A flag that is not given leaves no attribute, so the file's value stands;
    # `_config_from_args` parses a given value as it parses a file's.
    for f in fields(AnalysisConfig):
        how = {"action": argparse.BooleanOptionalAction} if isinstance(f.default, bool) else {}
        sub.add_argument(_flag(f.name), dest=f.name, help=f.metadata["help"],
                         default=argparse.SUPPRESS, **how)


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdcca",
        description="q-dependent detrended cross-correlation analysis of "
                    "minute-bar price series",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "full sweep: every output family"),
        ("spectra", "eigenvalue/entropy rows only"),
        ("mst", "spanning-tree edge lists and topology rows"),
        ("clusters", "community co-membership rasters"),
        ("lagged", "lagged mean coefficients for the anchor assets"),
        ("periods", "threshold periods of the mean coefficient"),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("data", help="directory of per-ticker CSVs or one wide CSV")
        _add_config_flags(sub)
    synth = subs.add_parser("synth", help="write synthetic quote CSVs")
    synth.add_argument("--generator", required=True,
                       choices=("gaussian", "correlated", "ar1", "factor", "blocks"))
    synth.add_argument("--n", type=int, required=True, help="number of series")
    synth.add_argument("--t", type=int, required=True, help="samples per series")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", default="qdcca_synth", help="output directory")
    synth.add_argument("--phi", type=float, default=0.9, help="ar1 coefficient")
    synth.add_argument("--beta", type=float, default=1.0, help="factor loading")
    synth.add_argument("--sigma", type=float, default=1.0, help="idiosyncratic noise scale")
    synth.add_argument("--response-spread", dest="response_spread", type=int, default=0,
                       help="max factor response delay in samples (factor kind)")
    synth.add_argument("--pearson", type=float, default=0.7,
                       help="common off-diagonal correlation (correlated kind)")
    synth.add_argument("--sizes", type=comma_list(int), default=None,
                       help="block sizes (blocks kind)")
    synth.add_argument("--within", type=float, default=0.8, help="within-block correlation")
    synth.add_argument("--across", type=float, default=0.0, help="across-block correlation")
    validate = subs.add_parser("validate", help="check inputs and config, compute nothing")
    validate.add_argument("data", help="directory of per-ticker CSVs or one wide CSV")
    _add_config_flags(validate)
    return parser


def _config_from_args(args) -> AnalysisConfig:
    cfg = load_config(args.config) if args.config else AnalysisConfig()
    given = {key: getattr(args, key) for key in CONFIG_KEYS if hasattr(args, key)}
    # A boolean flag's action has set its value; every other flag is text.
    flags = {key: value if isinstance(value, bool) else parse_setting(key, value, _flag(key))
             for key, value in given.items()}
    return replace(cfg, **flags).validate()


def _synth_spec(args) -> GeneratorSpec:
    params: dict = {}
    if args.generator == "ar1":
        params["phi"] = args.phi
    elif args.generator == "factor":
        params.update(beta=args.beta, sigma=args.sigma,
                      response_spread=args.response_spread)
    elif args.generator == "correlated":
        import numpy as np

        target = np.full((args.n, args.n), args.pearson)
        np.fill_diagonal(target, 1.0)
        params["target"] = target
    elif args.generator == "blocks":
        if not args.sizes:
            raise QdccaError("blocks generator needs --sizes")
        params.update(sizes=args.sizes, within=args.within, across=args.across)
    return GeneratorSpec(kind=args.generator, n_series=args.n,
                         n_samples=args.t, params=params)


def _cmd_synth(args) -> int:
    import os

    spec = _synth_spec(args)
    quotes = synth_quotes(spec, args.seed)
    os.makedirs(args.out, exist_ok=True)
    for qs in quotes:
        path = os.path.join(args.out, f"{qs.ticker}.csv")
        with open(path, "w") as fh:
            fh.write("timestamp,price\n")
            for ts, px in zip(qs.timestamps, qs.prices):
                fh.write(f"{int(ts)},{float(px)!r}\n")
    print(f"wrote {len(quotes)} series x {args.t + 1} rows to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _config_from_args(args)
    series = load_quotes(args.data)
    returns, report = build_return_matrix(
        series, base=cfg.base, grid=cfg.grid, stable_threshold=cfg.stable_threshold
    )
    windows = rolling_windows(returns.n_samples, cfg.window, cfg.step)
    print(f"series: {len(series)} loaded, {len(returns.tickers)} retained")
    for ticker, reason in sorted(report.excluded.items()):
        print(f"  excluded {ticker}: {reason}")
    for ticker, kept in sorted(report.retention.items()):
        print(f"  {ticker}: retention {kept:.4f}")
    print(f"samples: {returns.n_samples} on the {cfg.grid} grid "
          f"(gap fills: {report.filled_fraction:.4%})")
    print(f"windows: {len(windows)} of width {cfg.window}, step {cfg.step}")
    gappy = sum(
        gap_fill_skip(returns, start, stop, cfg.max_missing) is not None
        for start, stop in windows
    )
    print(f"gap-fill skips: {gappy} of {len(windows)} windows exceed "
          f"max_missing {cfg.max_missing:.2%}")
    print(f"q: {list(cfg.q)}  s: {list(cfg.s)}  m: {cfg.poly_order}")
    missing = [a for a in cfg.anchors if a not in returns.tickers]
    if missing:
        print(f"note: anchors not in data: {missing}")
    print("ok")
    return 0


def _cmd_analysis(args) -> int:
    cfg = _config_from_args(args)
    families = _FAMILY_OF[args.command]
    series = load_quotes(args.data)
    returns, report = build_return_matrix(
        series, base=cfg.base, grid=cfg.grid, stable_threshold=cfg.stable_threshold
    )
    result = run_analysis(cfg, returns, families=families)
    manifest = write_outputs(result, cfg, args.out, families)
    print(f"{result.n_windows_planned} windows planned, "
          f"{len(result.windows)} done, {len(result.skipped)} skipped")
    if cfg.verbose:
        for idx, reason in result.skipped:
            print(f"  skipped window {idx}: {reason}")
        for ticker, reason in sorted(report.excluded.items()):
            print(f"  excluded {ticker}: {reason}")
    print(f"outputs: {len(manifest['outputs'])} files in {args.out} "
          f"(config hash {manifest['config_hash'][:12]})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_analysis(args)
    except QdccaError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": "OSError", "detail": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
