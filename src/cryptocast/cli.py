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
from dataclasses import asdict

import numpy as np

from . import data as dataio
# save_bundle stays importable here: perfbench's tracer wraps `cli.save_bundle`
from .bundle import ModelBundle, bundle_bytes, load_bundle, save_bundle  # noqa: F401
from .config import check_setting, check_weights, load_config_file, validate_config
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
    float_table,
    load_inputs,
    loss_csv,
    predict_prices,
    prepare_data,
    run_experiment,
    train_model,
    write_files,
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
    write_files([(args.out, dataio.series_csv(frame))])
    print(f"wrote {len(frame)} rows to {args.out}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    window = check_setting("window", args.window, "--window")
    frame = dataio.load_series(args.data)
    print(f"{args.data}: {len(frame)} rows, "
          f"{frame.dates[0].isoformat()}..{frame.dates[-1].isoformat()}, "
          f"columns {frame.columns}")
    outputs = []
    if args.json:
        outputs.append((args.json, dumps_canonical(frame.to_json_dict()) + "\n"))
    if args.windows_out:
        ws = dataio.make_windows(dataio.apply_minmax(frame, dataio.fit_minmax(frame)), window,
                                 args.target)
        outputs.append((args.windows_out, dumps_canonical(ws.to_json_dict()) + "\n"))
    write_files(outputs)
    if args.json:
        print(f"wrote frame artifact to {args.json}")
    if args.windows_out:
        print(f"wrote {len(ws)} windows to {args.windows_out}")
    return EXIT_OK


def _cmd_fgi(args) -> int:
    w1, w2 = check_weights([args.w1, args.w2], "--w1/--w2")
    frame = dataio.load_series(args.data)
    enriched = dataio.add_fgi_column(frame, args.sentiment_column, args.trends_column, w1, w2)
    write_files([(args.out, dataio.series_csv(enriched))])
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
    return validate_config({**cfg, "seed": args.seed})


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    # the kernel kinds are fitted in closed form, with no epochs to trace
    if args.loss_out and "epochs" not in cfg["models"][args.model]:
        raise ConfigError(f"--loss-out: {args.model} is fitted in closed form and has no "
                          f"loss trace")
    prepared = prepare_data(cfg)
    model, trace = train_model(args.model, cfg, prepared, Rng(cfg["seed"]))
    outputs = [(args.out, bundle_bytes(ModelBundle(args.model, model, cfg, prepared.stats)))]
    if args.loss_out:
        outputs.append((args.loss_out, loss_csv(trace)))
    write_files(outputs)
    print(f"trained {args.model} on {len(prepared.train_windows)} windows; "
          f"bundle written to {args.out}")
    if args.loss_out:
        print(f"loss trace written to {args.loss_out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    bundle = load_bundle(args.bundle)
    cfg, stats = bundle.config, bundle.stats
    target = cfg["data"]["target_column"]
    normalized = dataio.apply_minmax(load_inputs(args.data, cfg["data"]), stats)
    ws = dataio.make_windows(normalized, cfg["window"], target)
    predicted = predict_prices(bundle.kind, bundle.model, ws, target, stats)
    actual = dataio.invert_minmax(ws.y, target, stats)
    write_files([(args.out, float_table(["date", "actual", "predicted"],
                                        [date.isoformat() for date in ws.target_dates],
                                        actual.tolist(), predicted.tolist()))])
    print(f"wrote {len(ws)} predictions to {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    frame = _load_predictions(args.predictions)
    m = compute_metrics(frame.column("actual"), frame.column("predicted"))
    text = dumps_canonical(asdict(m))
    if args.out:
        write_files([(args.out, text + "\n")])
        print(f"wrote metrics to {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    if args.out:
        cfg["output_dir"] = args.out
    result = run_experiment(cfg)
    bundles = {}
    if args.save_models:
        bundles = {f"model_{kind}.json": bundle_bytes(ModelBundle(
            kind, run.model, cfg, result.prepared.stats)) for kind, run in result.runs.items()}
    manifest = emit_artifacts(result, cfg["output_dir"], bundles)
    print(f"run complete: {len(manifest['files'])} artifacts in {cfg['output_dir']}")
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
    abs_errors = {}
    for path, name, frame in zip(paths, names, frames):
        with np.errstate(over="ignore"):  # an overflow is an inf error, refused below
            errors = np.abs(frame.column("actual") - frame.column("predicted"))
        finite = np.isfinite(errors)
        if not finite.all():
            date = frame.dates[int(np.argmin(finite))]
            raise NumericalError(f"{path}: non-finite absolute error for {date.isoformat()}")
        abs_errors[name] = errors
    try:
        return compare_models(abs_errors, alpha=alpha)
    except DomainError as exc:
        raise DomainError(f"comparison degenerate: {exc}") from exc


def _cmd_compare(args) -> int:
    report = cmd_compare(args.inputs, args.names, args.alpha)
    outputs = [(args.out, dumps_canonical(asdict(report)) + "\n")]
    if args.csv:
        outputs.append((args.csv, comparison_csv(report)))
    write_files(outputs)
    print(f"wrote comparison report to {args.out}")
    if args.csv:
        print(f"wrote pairwise table to {args.csv}")
    fr = report.friedman
    print(f"friedman chi2={fr.chi2:.4f} df={fr.df} p={fr.p_value:.4g}")
    return EXIT_OK


def _cmd_report(args) -> int:
    # a missing data file stays a data error, raised by load_series
    cfg = load_config_file(os.path.join(args.run_dir, "config.resolved.json"), check_files=False)
    data = cfg["data"]
    frame = dataio.with_composed_fgi(dataio.load_series(data["path"]), data["compose_fgi"],
                                     data["fgi_weights"])
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
    write_files([(args.out, csv_text([["date", "series", "value", "band_lo", "band_hi",
                                       "fgi_category"], *rows]))])
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
