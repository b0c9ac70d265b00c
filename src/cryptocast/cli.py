"""Batch command-line harness.

Subcommands: synth, ingest, fgi, train, predict, evaluate, run, compare,
report. Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical divergence.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import data as dataio
from .bundle import bundle_bytes, load_bundle, model_bundle, save_bundle
from .config import check_setting, load_config_file, validate_config
from .errors import (
    AlignmentError,
    ConfigError,
    CryptocastError,
    DataError,
    DomainError,
    NumericalError,
    SchemaError,
)
from .jsonio import dumps_canonical
from .pipeline import (
    MODEL_ORDER,
    MODELS,
    comparison_csv,
    csv_text,
    emit_artifacts,
    loss_csv,
    predict_windows,
    prepare_data,
    report_json_dict,
    run_experiment,
    train_model,
)
from .rng import Rng
from .stats import compare_models, compute_metrics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _load_predictions(path) -> dataio.SeriesFrame:
    """A predictions CSV, read under the data-CSV rules; it must carry the
    actual and predicted columns."""
    frame = dataio.load_series(path)
    if not {"actual", "predicted"} <= set(frame.columns):
        raise SchemaError(f"{path} needs 'actual' and 'predicted' columns, has {frame.columns}")
    return frame


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    params = dataio.SynthParams(
        start_price=args.start_price, drift=args.drift, volatility=args.volatility,
        cycle_period=args.cycle_period, cycle_amplitude=args.fgi_amplitude,
        price_cycle=args.price_cycle, fgi_lead=args.fgi_lead,
    )
    frame = dataio.synthesize_series(args.seed, args.n, params)
    dataio.write_series_csv(frame, args.out)
    print(f"wrote {len(frame)} rows to {args.out}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    frame = dataio.load_series(args.data)
    print(f"{args.data}: {len(frame)} rows, "
          f"{frame.dates[0].isoformat()}..{frame.dates[-1].isoformat()}, "
          f"columns {frame.columns}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(frame.to_json_dict()) + "\n")
        print(f"wrote frame artifact to {args.json}")
    if args.windows_out:
        stats = dataio.fit_minmax(frame)
        normalized = dataio.apply_minmax(frame, stats)
        ws = dataio.make_windows(normalized, args.window, args.target)
        with open(args.windows_out, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(ws.to_json_dict()) + "\n")
        print(f"wrote {len(ws)} windows to {args.windows_out}")
    return EXIT_OK


def _cmd_fgi(args) -> int:
    frame = dataio.load_series(args.data)
    enriched = dataio.add_fgi_column(frame, args.sentiment_column, args.trends_column,
                                     args.w1, args.w2)
    dataio.write_series_csv(enriched, args.out)
    bands = [dataio.classify_fgi(float(v)) for v in enriched.column("fgi")]
    counts = {band: bands.count(band) for band in dataio.FGI_BANDS}
    print(f"wrote {args.out}; band counts: " +
          ", ".join(f"{b}={c}" for b, c in counts.items()))
    return EXIT_OK


def _load_config(args):
    """The --config file; a --seed override is checked like the file's own seed."""
    cfg = load_config_file(args.config)
    if args.seed is None:
        return cfg
    return validate_config({**cfg.to_json_dict(), "output_dir": cfg.output_dir, "seed": args.seed})


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    prepared = prepare_data(cfg)
    model, trace, hyper = train_model(args.model, cfg, prepared, Rng(cfg.seed))
    save_bundle(model_bundle(cfg, prepared.stats, args.model, model, hyper), args.out)
    print(f"trained {args.model} on {len(prepared.train_windows)} windows; "
          f"bundle written to {args.out}")
    if trace is not None and args.loss_out:
        with open(args.loss_out, "w", encoding="utf-8") as fh:
            fh.write(loss_csv(trace))
        print(f"loss trace written to {args.loss_out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    bundle = load_bundle(args.bundle)
    frame = dataio.with_composed_fgi(dataio.load_series(args.data), bundle.compose_fgi,
                                     bundle.fgi_weights)
    frame = frame.select(bundle.feature_columns)
    normalized = dataio.apply_minmax(frame, bundle.stats)
    ws = dataio.make_windows(normalized, bundle.window, bundle.target_column)
    raw = predict_windows(bundle.kind, bundle.model, ws)
    predicted = dataio.invert_minmax(raw, bundle.target_column, bundle.stats)
    finite = np.isfinite(predicted)
    if not finite.all():
        date = ws.target_dates[int(np.argmin(finite))]
        raise NumericalError(f"non-finite prediction for {date.isoformat()}")
    actual = dataio.invert_minmax(ws.y, bundle.target_column, bundle.stats)
    # tolist() gives Python floats, whose repr is the cell text
    rows = [[date.isoformat(), repr(act), repr(pred)]
            for date, act, pred in zip(ws.target_dates, actual.tolist(), predicted.tolist())]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text([["date", "actual", "predicted"], *rows]))
    print(f"wrote {len(ws)} predictions to {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    frame = _load_predictions(args.predictions)
    m = compute_metrics(frame.column("actual"), frame.column("predicted"))
    doc = {"mse": m.mse, "rmse": m.rmse, "mae": m.mae,
           "mape_percent": m.mape_percent, "n": m.n}
    text = dumps_canonical(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote metrics to {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if args.out:
        cfg.output_dir = args.out
    result = run_experiment(cfg)
    bundles = {}
    if args.save_models:
        bundles = {f"model_{kind}.json": bundle_bytes(model_bundle(
            cfg, result.prepared.stats, kind, run.model, run.hyperparameters))
            for kind, run in result.runs.items()}
    manifest = emit_artifacts(result, cfg.output_dir, bundles)
    print(f"run complete: {len(manifest['files'])} artifacts in {cfg.output_dir}")
    for kind in MODEL_ORDER:
        m = result.runs[kind].metrics
        print(f"  {kind:8s} rmse={m.rmse:.6g} mae={m.mae:.6g} mape={m.mape_percent:.4g}%")
    fr = result.report.friedman
    print(f"  friedman chi2={fr.chi2:.4f} df={fr.df} p={fr.p_value:.4g}")
    return EXIT_OK


def _infer_name(path: str) -> str:
    base = os.path.basename(path)
    if base.startswith("predictions_"):
        base = base[len("predictions_"):]
    return base.rsplit(".", 1)[0]


def cmd_compare(paths: list[str], names: list[str] | None = None, alpha: float = 0.05):
    """Build a comparison report from >= 2 aligned prediction files."""
    alpha = check_setting("alpha", alpha, "--alpha")
    if len(paths) < 2:
        raise ConfigError(f"compare needs at least 2 prediction files, got {len(paths)}")
    names = names or [_infer_name(p) for p in paths]
    if len(names) != len(paths):
        raise ConfigError("--names must list one name per input file")
    if len(set(names)) != len(names):
        raise ConfigError(f"model names must be unique, got {names}")
    frames = [_load_predictions(path) for path in paths]
    ref_dates = frames[0].dates
    for path, frame in zip(paths[1:], frames[1:]):
        if frame.dates != ref_dates:
            first_bad = next(
                (f"{a.isoformat()} vs {b.isoformat()}"
                 for a, b in zip(ref_dates, frame.dates) if a != b),
                f"lengths {len(ref_dates)} vs {len(frame.dates)}",
            )
            raise AlignmentError(
                f"{path} dates do not align with {paths[0]}: first mismatch {first_bad}"
            )
    abs_errors = {name: np.abs(frame.column("actual") - frame.column("predicted"))
                  for name, frame in zip(names, frames)}
    try:
        return compare_models(abs_errors, alpha=alpha)
    except DomainError as exc:
        raise DomainError(f"comparison degenerate: {exc}") from exc


def _cmd_compare(args) -> int:
    report = cmd_compare(args.inputs, args.names, args.alpha)
    doc = report_json_dict(report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(doc) + "\n")
    print(f"wrote comparison report to {args.out}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(comparison_csv(report))
        print(f"wrote pairwise table to {args.csv}")
    fr = report.friedman
    print(f"friedman chi2={fr.chi2:.4f} df={fr.df} p={fr.p_value:.4g}")
    return EXIT_OK


def _cmd_report(args) -> int:
    # a missing data file stays a data error, raised by load_series
    cfg = load_config_file(os.path.join(args.run_dir, "config.resolved.json"), check_files=False)
    frame = dataio.with_composed_fgi(dataio.load_series(cfg.data.path), cfg.data.compose_fgi,
                                     cfg.data.fgi_weights)
    fgi_by_date = {}
    if "fgi" in frame.columns:
        fgi = frame.column("fgi")
        fgi_by_date = {d: dataio.classify_fgi(float(v))
                       for d, v in zip(frame.dates, fgi)}

    rows = []
    wrote_actual = False
    for kind in MODEL_ORDER:
        path = os.path.join(args.run_dir, f"predictions_{kind}.csv")
        if not os.path.exists(path):
            continue
        predictions = _load_predictions(path)
        dates = predictions.dates
        if not wrote_actual:
            for date, actual in zip(dates, predictions.column("actual")):
                rows.append([date.isoformat(), "actual", repr(float(actual)), "", "",
                             fgi_by_date.get(date, "")])
            wrote_actual = True
        for date, value, lo, hi in zip(dates, predictions.column("predicted"),
                                       predictions.column("lower"), predictions.column("upper")):
            rows.append([date.isoformat(), kind, repr(float(value)), repr(float(lo)),
                         repr(float(hi)), fgi_by_date.get(date, "")])
    if not rows:
        raise DataError(f"no predictions_*.csv files found in {args.run_dir}")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text([["date", "series", "value", "band_lo", "band_hi", "fgi_category"],
                           *rows]))
    print(f"wrote {len(rows)} plot rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptocast",
        description="Train and compare five window-based price forecasters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a deterministic synthetic fixture CSV")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--start-price", type=float, default=100.0)
    p.add_argument("--drift", type=float, default=0.0005)
    p.add_argument("--volatility", type=float, default=0.01)
    p.add_argument("--cycle-period", type=float, default=60.0)
    p.add_argument("--fgi-amplitude", type=float, default=40.0)
    p.add_argument("--price-cycle", type=float, default=0.0)
    p.add_argument("--fgi-lead", type=float, default=15.0)

    p = sub.add_parser("ingest", help="validate a data CSV and optionally export JSON artifacts")
    p.add_argument("--data", required=True)
    p.add_argument("--json", help="write the frame as a JSON artifact")
    p.add_argument("--windows-out", help="write a normalized window-set JSON artifact")
    p.add_argument("--window", type=int, default=30)
    p.add_argument("--target", default="close")

    p = sub.add_parser("fgi", help="compose the fear/greed column from sentiment and trends")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sentiment-column", default="sentiment")
    p.add_argument("--trends-column", default="trends")
    p.add_argument("--w1", type=float, default=0.5)
    p.add_argument("--w2", type=float, default=0.5)

    p = sub.add_parser("train", help="train one model and save its bundle")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, choices=list(MODELS))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss-out")

    p = sub.add_parser("predict", help="run a saved bundle over a data CSV")
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="compute metrics from a predictions CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--out")

    p = sub.add_parser("run", help="full experiment: train all five models and emit artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--save-models", action="store_true",
                   help="also write model_<kind>.json bundles")

    p = sub.add_parser("compare", help="Friedman + pairwise signed-rank over prediction files")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write the pairwise table as CSV")
    p.add_argument("--names", nargs="+")
    p.add_argument("--alpha", type=float, default=0.05)

    p = sub.add_parser("report", help="tidy plot-ready CSV from a run directory")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call of the process and reused:
    it holds no per-call state, and each call parses into a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and return its exit code. May be called repeatedly in
    one process; the handler is looked up per call, so a replaced `_cmd_*`
    function takes effect."""
    args = _parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CryptocastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
