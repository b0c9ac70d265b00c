"""End-to-end experiment harness: ingest, train all five models, predict,
evaluate, compare, and emit deterministic artifacts.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import data as dataio
from .config import ExperimentConfig
from .errors import CryptocastError, SizeError
from .hybrid import HybridConfig, hybrid_forward_batch, hybrid_template, hybrid_train, init_hybrid
from .jsonio import dumps_canonical, sha256_hex
from .kernels import (GrnnModel, RbfnModel, grnn_fit, grnn_predict_batch, rbfn_fit,
                      rbfn_predict_batch)
from .optim import TrainConfig
from .params import named_arrays
from .recurrent import birnn_forward_batch, birnn_template, birnn_train, init_birnn
from .rng import Rng
from .stats import ComparisonReport, IntervalBand, MetricReport, compare_models, compute_metrics, prediction_interval


@dataclass(frozen=True)
class ModelKind:
    """How the pipeline, CLI and bundles handle one kind. Entries look model
    functions up in this module's globals at call time, so wrappers on them apply."""

    hyper: Callable    # (cfg, input_size) -> hyperparameters (JSON-ready dict)
    fit: Callable      # (hyper, train WindowSet, seed) -> (model, loss trace or None)
    predict: Callable  # (model, WindowSet) -> normalized predictions
    # (hyper, flat window width) -> a model of the fitted structure, built
    # without drawing random numbers; a bundle's parameters take the names
    # and shapes of its arrays
    template: Callable
    # arrays whose first axis counts stored training rows: free in a bundle
    # ("rows"), but equal across them
    stored_rows: tuple = ()
    # hyperparameters (or "window") each at most the number of parameters a
    # bundle carries: an axis length of the template, or a count of its arrays
    sizes: tuple = ()

    def shapes_of(self, template) -> dict[str, tuple]:
        """{parameter name: shape} of a template, the stored-row axis as "rows"."""
        return {name: ("rows", *a.shape[1:]) if name in self.stored_rows else a.shape
                for name, a in named_arrays(template).items()}

    def shapes(self, hyper: dict, width: int) -> dict[str, tuple]:
        return self.shapes_of(self.template(hyper, width))


def _train_config(hyper: dict, seed: int) -> TrainConfig:
    return TrainConfig(epochs=hyper["epochs"], lr=hyper["lr"], seed=seed,
                       batch_size=hyper["batch_size"])


def _recurrent(cell: str, kind: str) -> ModelKind:
    def sizes(h):
        return int(h["input_size"]), int(h["hidden_size"])

    return ModelKind(
        hyper=lambda cfg, k: {**cfg.models[kind], "input_size": k},
        fit=lambda h, ws, seed: birnn_train(
            init_birnn(cell, *sizes(h), seed), ws, _train_config(h, seed)),
        predict=lambda model, ws: birnn_forward_batch(model, ws.X),
        template=lambda h, width: birnn_template(cell, *sizes(h)),
        sizes=("hidden_size",),
    )


MODELS = {
    "rbfn": ModelKind(
        hyper=lambda cfg, k: dict(cfg.models["rbfn"]),
        fit=lambda h, ws, seed: (rbfn_fit(ws.flatten(), ws.y, h["centers"], seed), None),
        predict=lambda model, ws: rbfn_predict_batch(model, ws.flatten()),
        # unit spreads: a model rejects non-positive ones
        template=lambda h, width: RbfnModel(
            centers=np.zeros((h["centers"], width)), spreads=np.ones(h["centers"]),
            weights=np.zeros(h["centers"]), bias=np.zeros(())),
        sizes=("centers", "window"),
    ),
    "grnn": ModelKind(
        hyper=lambda cfg, k: dict(cfg.models["grnn"]),
        fit=lambda h, ws, seed: (grnn_fit(ws.flatten(), ws.y, h["sigma_grid"]), None),
        predict=lambda model, ws: grnn_predict_batch(model, ws.flatten()),
        # one stored row and unit sigma: a model rejects none or zero
        template=lambda h, width: GrnnModel(
            stored_inputs=np.zeros((1, width)), stored_targets=np.zeros(1), sigma=np.ones(())),
        stored_rows=("stored_inputs", "stored_targets"),
        sizes=("window",),
    ),
    "bilstm": _recurrent("lstm", "bilstm"),
    "bigru": _recurrent("gru", "bigru"),
    "hybrid": ModelKind(
        hyper=lambda cfg, k: {**cfg.models["hybrid"], "window": cfg.window, "input_size": k},
        fit=lambda h, ws, seed: hybrid_train(
            init_hybrid(HybridConfig.from_hyperparameters(h), seed), ws, _train_config(h, seed)),
        predict=lambda model, ws: hybrid_forward_batch(model, ws.X),
        template=lambda h, width: hybrid_template(HybridConfig.from_hyperparameters(h)),
        sizes=("d_model", "d_ffn", "d_gru", "layers"),
    ),
}
MODEL_ORDER = tuple(MODELS)


@contextmanager
def _stage(name: str):
    """Annotate propagated errors with the pipeline stage they came from."""
    try:
        yield
    except CryptocastError as exc:
        raise type(exc)(f"[stage: {name}] {exc}") from exc


@dataclass
class PreparedData:
    frame: dataio.SeriesFrame
    train: dataio.SeriesFrame
    test: dataio.SeriesFrame
    stats: dataio.NormStats
    train_windows: dataio.WindowSet
    test_windows: dataio.WindowSet


@dataclass
class ModelRun:
    kind: str
    model: object
    hyperparameters: dict
    loss_trace: list[float] | None
    train_pred: np.ndarray      # original scale, train windows
    test_pred: np.ndarray       # original scale, test windows
    band: IntervalBand
    metrics: MetricReport


@dataclass
class RunResult:
    config: ExperimentConfig
    prepared: PreparedData
    runs: dict[str, ModelRun]
    report: ComparisonReport
    test_actual: np.ndarray
    test_dates: list


def prepare_data(cfg: ExperimentConfig) -> PreparedData:
    with _stage("ingest"):
        frame = dataio.load_series(cfg.data.path)
        frame = dataio.with_composed_fgi(frame, cfg.data.compose_fgi, cfg.data.fgi_weights)
        frame = frame.select(cfg.data.feature_columns)
    with _stage("split"):
        train, test = dataio.chronological_split(frame, cfg.split_ratio)
    with _stage("normalize"):
        stats = dataio.fit_minmax(train)
        normalized = dataio.apply_minmax(frame, stats)
    with _stage("window"):
        target = cfg.data.target_column
        train_windows = dataio.make_windows(normalized.slice_rows(0, len(train)), cfg.window, target)
        test_windows = dataio.build_eval_windows(normalized, len(train), cfg.window, target,
                                                 cfg.test_windows)
    return PreparedData(frame=frame, train=train, test=test, stats=stats,
                        train_windows=train_windows, test_windows=test_windows)


def train_model(kind: str, cfg: ExperimentConfig, prepared: PreparedData,
                master: Rng):
    """Fit one model kind on the training windows; returns (model, trace,
    hyperparameters)."""
    ws = prepared.train_windows
    spec = MODELS[kind]
    hyper = spec.hyper(cfg, ws.X.shape[2])
    return (*spec.fit(hyper, ws, master.derive(kind).seed), hyper)


def predict_windows(kind: str, model, ws: dataio.WindowSet) -> np.ndarray:
    """Normalized predictions for a window set."""
    return MODELS[kind].predict(model, ws)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    prepared = prepare_data(cfg)
    master = Rng(cfg.seed)
    target = cfg.data.target_column
    stats = prepared.stats

    train_actual = dataio.invert_minmax(prepared.train_windows.y, target, stats)
    test_actual = dataio.invert_minmax(prepared.test_windows.y, target, stats)
    if np.any(test_actual == 0.0) or np.any(train_actual == 0.0):
        raise SizeError("target contains zero prices; percentage metrics undefined")

    runs: dict[str, ModelRun] = {}
    for kind in MODEL_ORDER:
        with _stage(f"train:{kind}"):
            model, trace, hyper = train_model(kind, cfg, prepared, master)
        with _stage(f"predict:{kind}"):
            train_pred = dataio.invert_minmax(
                predict_windows(kind, model, prepared.train_windows), target, stats)
            test_pred = dataio.invert_minmax(
                predict_windows(kind, model, prepared.test_windows), target, stats)
        with _stage(f"evaluate:{kind}"):
            residuals = train_actual - train_pred
            band = prediction_interval(residuals, test_pred, cfg.interval_level)
            metrics = compute_metrics(test_actual, test_pred)
        runs[kind] = ModelRun(
            kind=kind, model=model, hyperparameters=hyper, loss_trace=trace,
            train_pred=train_pred, test_pred=test_pred, band=band, metrics=metrics,
        )

    with _stage("compare"):
        abs_errors = {kind: np.abs(test_actual - runs[kind].test_pred)
                      for kind in MODEL_ORDER}
        report = compare_models(abs_errors, alpha=cfg.alpha)

    return RunResult(
        config=cfg, prepared=prepared, runs=runs, report=report,
        test_actual=test_actual, test_dates=list(prepared.test_windows.target_dates),
    )


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------

def _csv_line(cells) -> str:
    return ",".join(cells) + "\n"


def _float_cell(x: float) -> str:
    return repr(float(x))


def metrics_csv(result: RunResult) -> str:
    lines = [_csv_line(["model", "mse", "rmse", "mae", "mape_percent"])]
    for kind in MODEL_ORDER:
        m = result.runs[kind].metrics
        lines.append(_csv_line([kind, _float_cell(m.mse), _float_cell(m.rmse),
                                _float_cell(m.mae), _float_cell(m.mape_percent)]))
    return "".join(lines)


def predictions_csv(result: RunResult, kind: str) -> str:
    run = result.runs[kind]
    lines = [_csv_line(["date", "actual", "predicted", "lower", "upper"])]
    for i, date in enumerate(result.test_dates):
        lines.append(_csv_line([
            date.isoformat(),
            _float_cell(result.test_actual[i]),
            _float_cell(run.test_pred[i]),
            _float_cell(run.band.lower[i]),
            _float_cell(run.band.upper[i]),
        ]))
    return "".join(lines)


def loss_csv(trace: list[float]) -> str:
    lines = [_csv_line(["epoch", "loss"])]
    for epoch, loss in enumerate(trace):
        lines.append(_csv_line([str(epoch), _float_cell(loss)]))
    return "".join(lines)


def report_json_dict(report: ComparisonReport) -> dict:
    return {
        "models": list(report.models),
        "alpha": report.alpha,
        "bonferroni_m": report.bonferroni_m,
        "friedman": {
            "chi2": report.friedman.chi2,
            "df": report.friedman.df,
            "p_value": report.friedman.p_value,
            "mean_ranks": report.friedman.mean_ranks.tolist(),
        },
        "pairwise": [
            {
                "model_1": p.model_1, "model_2": p.model_2,
                "wilcoxon_r": p.r_stat, "n_effective": p.n_effective,
                "p_raw": p.p_raw, "p_corrected": p.p_corrected,
                "significant": p.significant,
            }
            for p in report.pairwise
        ],
    }


def comparison_csv(report: ComparisonReport) -> str:
    lines = [_csv_line(["model_1", "model_2", "wilcoxon_r", "raw_p_value",
                        "bonferroni_corrected_p_value", "significant"])]
    for p in report.pairwise:
        lines.append(_csv_line([
            p.model_1, p.model_2, _float_cell(p.r_stat),
            _float_cell(p.p_raw), _float_cell(p.p_corrected),
            "TRUE" if p.significant else "FALSE",
        ]))
    return "".join(lines)


def build_artifact_files(result: RunResult) -> dict[str, bytes]:
    """All artifact files as bytes, keyed by filename. Content is fully
    deterministic for a given config."""
    files: dict[str, bytes] = {}
    files["config.resolved.json"] = (
        dumps_canonical(result.config.to_json_dict()) + "\n").encode("utf-8")
    files["metrics.csv"] = metrics_csv(result).encode("utf-8")
    for kind in MODEL_ORDER:
        files[f"predictions_{kind}.csv"] = predictions_csv(result, kind).encode("utf-8")
        trace = result.runs[kind].loss_trace
        if trace is not None:
            files[f"loss_{kind}.csv"] = loss_csv(trace).encode("utf-8")
    files["stats.json"] = (
        dumps_canonical(report_json_dict(result.report)) + "\n").encode("utf-8")
    files["comparison.csv"] = comparison_csv(result.report).encode("utf-8")
    return files


def emit_artifacts(result: RunResult, out_dir: str) -> dict:
    """Write all artifact files plus a manifest of their sha256 digests.
    On failure every file written so far is removed."""
    files = build_artifact_files(result)
    manifest = {
        "format": "run-manifest/1",
        "files": {name: "sha256:" + sha256_hex(content)
                  for name, content in sorted(files.items())},
    }
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    try:
        for name, content in sorted(files.items()):
            path = os.path.join(out_dir, name)
            written.append(path)
            with open(path, "wb") as fh:
                fh.write(content)
        manifest_path = os.path.join(out_dir, "manifest.json")
        written.append(manifest_path)
        with open(manifest_path, "wb") as fh:
            fh.write((dumps_canonical(manifest) + "\n").encode("utf-8"))
    except BaseException:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    return manifest

