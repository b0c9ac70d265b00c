"""End-to-end experiment harness: ingest, train all five models, predict,
evaluate, compare, and emit deterministic artifacts.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import data as dataio
from .errors import ConfigError, CryptocastError, NumericalError, SizeError
from .hybrid import hybrid_forward_batch, hybrid_template, hybrid_train, init_hybrid
from .jsonio import dumps_canonical, sha256_hex
from .kernels import (GrnnModel, RbfnModel, grnn_fit, grnn_predict_batch, rbfn_fit,
                      rbfn_predict_batch)
from .params import named_arrays
from .recurrent import birnn_forward_batch, birnn_template, birnn_train, init_birnn
from .rng import Rng
from .stats import ComparisonReport, IntervalBand, MetricReport, compare_models, compute_metrics, prediction_interval


@dataclass(frozen=True)
class ModelKind:
    """How the pipeline, CLI and bundles handle one kind. Each takes its
    hyperparameters as the config's resolved `models.<kind>` section. Entries
    look model functions up in this module's globals at call time, so
    wrappers on them apply."""

    fit: Callable      # (hyper, train WindowSet, seed) -> (model, loss trace or None)
    predict: Callable  # (model, WindowSet) -> normalized predictions
    # (hyper, window, input size) -> a model of the fitted structure, built
    # without drawing random numbers; a bundle's parameters take the names
    # and shapes of its arrays
    template: Callable
    # arrays whose first axis counts stored training rows: free in a bundle
    # ("rows"), but equal across them
    stored_rows: tuple = ()
    # hyperparameters (or "window") each at most the number of parameters a
    # bundle carries: an axis length of the template
    sizes: tuple = ()
    # hyperparameters each at most the number of arrays a bundle carries: a
    # count of the template's arrays
    counts: tuple = ()

    def shapes_of(self, template) -> dict[str, tuple]:
        """{parameter name: shape} of a template, the stored-row axis as "rows"."""
        return {name: ("rows", *a.shape[1:]) if name in self.stored_rows else a.shape
                for name, a in named_arrays(template).items()}


def _recurrent(cell: str) -> ModelKind:
    return ModelKind(
        fit=lambda h, ws, seed: birnn_train(
            init_birnn(cell, ws.X.shape[2], h["hidden_size"], seed), ws, h, seed),
        predict=lambda model, ws: birnn_forward_batch(model, ws.X),
        template=lambda h, window, k: birnn_template(cell, k, h["hidden_size"]),
        sizes=("hidden_size",),
    )


MODELS = {
    "rbfn": ModelKind(
        fit=lambda h, ws, seed: (rbfn_fit(ws.flatten(), ws.y, h["centers"], seed), None),
        predict=lambda model, ws: rbfn_predict_batch(model, ws.flatten()),
        # unit spreads: a model rejects non-positive ones
        template=lambda h, window, k: RbfnModel(
            centers=np.zeros((h["centers"], window * k)), spreads=np.ones(h["centers"]),
            weights=np.zeros(h["centers"]), bias=np.zeros(())),
        sizes=("centers", "window"),
    ),
    "grnn": ModelKind(
        fit=lambda h, ws, seed: (grnn_fit(ws.flatten(), ws.y, h["sigma_grid"]), None),
        predict=lambda model, ws: grnn_predict_batch(model, ws.flatten()),
        # one stored row and unit sigma: a model rejects none or zero
        template=lambda h, window, k: GrnnModel(
            stored_inputs=np.zeros((1, window * k)), stored_targets=np.zeros(1), sigma=np.ones(())),
        stored_rows=("stored_inputs", "stored_targets"),
        sizes=("window",),
    ),
    "bilstm": _recurrent("lstm"),
    "bigru": _recurrent("gru"),
    "hybrid": ModelKind(
        fit=lambda h, ws, seed: hybrid_train(init_hybrid(h, ws.X.shape[2], seed), ws, h, seed),
        predict=lambda model, ws: hybrid_forward_batch(model, ws.X),
        template=lambda h, window, k: hybrid_template(h, k),
        sizes=("d_model", "d_ffn", "d_gru"),
        counts=("layers",),
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
    model: object
    loss_trace: list[float] | None
    train_pred: np.ndarray      # original scale, train windows
    test_pred: np.ndarray       # original scale, test windows
    band: IntervalBand
    metrics: MetricReport


@dataclass
class RunResult:
    config: dict  # the resolved document
    prepared: PreparedData
    runs: dict[str, ModelRun]
    report: ComparisonReport
    test_actual: np.ndarray
    test_dates: list


def load_inputs(path, data: dict) -> dataio.SeriesFrame:
    """The data file at `path` as a model's inputs under a config's `data`
    section: the fgi column composed if it asks, its feature columns selected."""
    frame = dataio.with_composed_fgi(dataio.load_series(path), data["compose_fgi"],
                                     data["fgi_weights"])
    return frame.select(data["feature_columns"])


def prepare_data(cfg: dict) -> PreparedData:
    data = cfg["data"]
    with _stage("ingest"):
        frame = load_inputs(data["path"], data)
    with _stage("split"):
        train, test = dataio.chronological_split(frame, cfg["split_ratio"])
    with _stage("normalize"):
        stats = dataio.fit_minmax(train)
        normalized = dataio.apply_minmax(frame, stats)
    with _stage("window"):
        target, window = data["target_column"], cfg["window"]
        train_windows = dataio.make_windows(normalized.slice_rows(0, len(train)), window, target)
        test_windows = dataio.build_eval_windows(normalized, len(train), window, target,
                                                 cfg["test_windows"])
    return PreparedData(frame=frame, train=train, test=test, stats=stats,
                        train_windows=train_windows, test_windows=test_windows)


def train_model(kind: str, cfg: dict, prepared: PreparedData, master: Rng):
    """Fit one model kind on the training windows; returns (model, trace)."""
    return MODELS[kind].fit(cfg["models"][kind], prepared.train_windows,
                            master.derive(kind).seed)


def predict_windows(kind: str, model, ws: dataio.WindowSet) -> np.ndarray:
    """Normalized predictions for a window set."""
    return MODELS[kind].predict(model, ws)


def predict_prices(kind: str, model, ws: dataio.WindowSet, target: str,
                   stats: dataio.NormStats) -> np.ndarray:
    """Predictions for a window set in price units. A non-finite one raises
    NumericalError naming the first date it predicts."""
    predicted = dataio.invert_minmax(predict_windows(kind, model, ws), target, stats)
    finite = np.isfinite(predicted)
    if not finite.all():
        date = ws.target_dates[int(np.argmin(finite))]
        raise NumericalError(f"non-finite prediction for {date.isoformat()}")
    return predicted


def _fit(kind: str, cfg: dict, prepared: PreparedData):
    """Train one kind and predict its train and test windows in price units;
    returns (model, trace, train predictions, test predictions)."""
    target, stats = cfg["data"]["target_column"], prepared.stats
    with _stage(f"train:{kind}"):
        model, trace = train_model(kind, cfg, prepared, Rng(cfg["seed"]))
    with _stage(f"predict:{kind}"):
        train_pred = predict_prices(kind, model, prepared.train_windows, target, stats)
        test_pred = predict_prices(kind, model, prepared.test_windows, target, stats)
    return model, trace, train_pred, test_pred


# the hybrid's fit is the longest and the kernel kinds' the shortest, so
# claiming kinds in this order keeps one long fit from starting last
FIT_ORDER = tuple(reversed(MODEL_ORDER))


def _claimed_fits(counter, cfg: dict, prepared: PreparedData):
    """(kind, fit or the exception it raised) for each kind in FIT_ORDER this
    process claims from the counter it shares with the other workers."""
    while True:
        with counter.get_lock():
            claim = counter.value
            counter.value = claim + 1
        if claim >= len(FIT_ORDER):
            return
        kind = FIT_ORDER[claim]
        try:
            outcome = _fit(kind, cfg, prepared)
        except Exception as exc:
            outcome = exc
        yield kind, outcome


class HelperTraceback(Exception):
    """The cause given to an exception a helper raised: the helper's
    traceback as text, which pickling the exception drops."""


def _helper(counter, results, cfg: dict, prepared: PreparedData, cpus: list) -> None:
    import traceback

    _pin(cpus)
    # the queue's feeder thread writes each result while the next fit runs
    for kind, outcome in _claimed_fits(counter, cfg, prepared):
        helper_traceback = None
        if isinstance(outcome, Exception):
            helper_traceback = "".join(traceback.format_exception(outcome))
        results.put((kind, outcome, helper_traceback))


def _pin(cpus: list) -> None:
    """Run this process on `cpus` only, where the system lets it."""
    with suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _fit_all(cfg: dict, prepared: PreparedData) -> dict:
    """{kind: _fit(kind, ...)} for every kind. The process is worker 0 and
    forks one helper per further CPU it may run on, up to one worker per
    kind; the workers claim kinds from one shared counter. While they fit,
    worker w of n runs on the CPUs at positions w, w + n, ... of the sorted
    set, so the inference threads inside a fit (`ops.run_blocks`) do not
    compete with the other workers; the process's own set is restored
    before this returns or raises. Helpers send their fits back, and every helper is joined before
    this returns or raises. A failed fit raises once every claimed kind is
    done: the error of the earliest failed kind in MODEL_ORDER, as one
    worker alone would raise it. No helper is forked where the CPU set is
    unknown, or in a daemonic process, which may not have children."""
    import multiprocessing  # here: no other command pays for importing it

    affinity = getattr(os, "sched_getaffinity", None)
    cpus = sorted(affinity(0)) if affinity is not None else []
    workers = 1
    if not multiprocessing.current_process().daemon:
        workers = min(len(cpus), len(MODELS))
    if workers <= 1:
        return {kind: _fit(kind, cfg, prepared) for kind in MODEL_ORDER}
    # fork, not spawn or forkserver: a helper starts in milliseconds with the
    # prepared data already in memory, and re-imports nothing
    ctx = multiprocessing.get_context("fork")
    counter, results = ctx.Value("i", 0), ctx.Queue()
    started = []
    try:
        for worker in range(1, workers):
            process = ctx.Process(target=_helper, args=(counter, results, cfg, prepared,
                                                        cpus[worker::workers]))
            try:
                process.start()
            except OSError:  # no process to spare: the workers started claim every kind
                break
            started.append(process)
        # the helpers now hold the only write ends, so reading past their
        # last result ends in EOF once every helper has exited
        results._writer.close()
        _pin(cpus[::workers])
        outcomes = dict(_claimed_fits(counter, cfg, prepared))
        while len(outcomes) < len(MODEL_ORDER):
            try:
                kind, outcome, helper_traceback = results.get()
            except (EOFError, OSError):
                break
            if helper_traceback is not None:
                outcome.__cause__ = HelperTraceback(helper_traceback)
            outcomes[kind] = outcome
    except BaseException:
        for process in started:
            process.terminate()
        raise
    finally:
        _pin(cpus)
        for process in started:
            process.join()
        results.close()
    lost = [kind for kind in MODEL_ORDER if kind not in outcomes]
    if lost:
        codes = [process.exitcode for process in started]
        raise CryptocastError(f"a helper process exited (exit codes {codes}) without "
                              f"reporting the fit of {', '.join(lost)}")
    for kind in MODEL_ORDER:
        if isinstance(outcomes[kind], Exception):
            raise outcomes[kind]
    return outcomes


def run_experiment(cfg: dict) -> RunResult:
    prepared = prepare_data(cfg)
    target = cfg["data"]["target_column"]
    stats = prepared.stats

    train_actual = dataio.invert_minmax(prepared.train_windows.y, target, stats)
    test_actual = dataio.invert_minmax(prepared.test_windows.y, target, stats)
    if np.any(test_actual == 0.0) or np.any(train_actual == 0.0):
        raise SizeError("target contains zero prices; percentage metrics undefined")

    fits = _fit_all(cfg, prepared)
    runs: dict[str, ModelRun] = {}
    for kind in MODEL_ORDER:
        model, trace, train_pred, test_pred = fits[kind]
        with _stage(f"evaluate:{kind}"):
            residuals = train_actual - train_pred
            band = prediction_interval(residuals, test_pred, cfg["interval_level"])
            metrics = compute_metrics(test_actual, test_pred)
        runs[kind] = ModelRun(model=model, loss_trace=trace, train_pred=train_pred,
                              test_pred=test_pred, band=band, metrics=metrics)

    with _stage("compare"):
        abs_errors = {kind: np.abs(test_actual - runs[kind].test_pred)
                      for kind in MODEL_ORDER}
        report = compare_models(abs_errors, alpha=cfg["alpha"])

    return RunResult(
        config=cfg, prepared=prepared, runs=runs, report=report,
        test_actual=test_actual, test_dates=list(prepared.test_windows.target_dates),
    )


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------

def csv_text(rows) -> str:
    """Rows of string cells as CSV text: a cell holding a comma, a quote or
    a line break is quoted, and each line ends in a bare newline."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def float_table(header, keys, *columns) -> str:
    """A table of floats as CSV text: the `header` line, then per key a line
    of the key and the repr of each column's value at that row, each line
    ending in a bare newline. Neither a key (a date, an epoch or a model
    kind) nor a float repr holds a character `csv_text` would quote, so
    these are its bytes, in one join. Every column must hold Python floats,
    such as an array's `.tolist()`: in numpy 2, `repr(np.float64(x))` is
    `np.float64(x)`. A column shorter or longer than `keys` is a ValueError."""
    line = "%s" + ",%r" * len(columns) + "\n"
    return ",".join(header) + "\n" + "".join(map(line.__mod__, zip(keys, *columns, strict=True)))


def metrics_csv(result: RunResult) -> str:
    fields = ("mse", "rmse", "mae", "mape_percent")
    return float_table(["model", *fields], MODEL_ORDER, *(
        [getattr(result.runs[kind].metrics, name) for kind in MODEL_ORDER] for name in fields))


def predictions_csv(result: RunResult, kind: str) -> str:
    run = result.runs[kind]
    return float_table(["date", "actual", "predicted", "lower", "upper"],
                       [date.isoformat() for date in result.test_dates],
                       result.test_actual.tolist(), run.test_pred.tolist(),
                       run.band.lower.tolist(), run.band.upper.tolist())


def loss_csv(trace: list[float]) -> str:
    return float_table(["epoch", "loss"], map(str, range(len(trace))), trace)


def comparison_csv(report: ComparisonReport) -> str:
    rows = [["model_1", "model_2", "wilcoxon_r", "raw_p_value",
             "bonferroni_corrected_p_value", "significant"]]
    for p in report.pairwise:
        rows.append([
            p.model_1, p.model_2, repr(float(p.wilcoxon_r)),
            repr(float(p.p_raw)), repr(float(p.p_corrected)),
            "TRUE" if p.significant else "FALSE",
        ])
    return csv_text(rows)


def build_artifact_files(result: RunResult, out_dir: str) -> dict[str, bytes]:
    """All artifact files as bytes, keyed by filename, for the run directory
    `out_dir`. Content is fully deterministic for a given config and data
    file location relative to `out_dir`."""
    cfg = result.config
    # the output directory names where artifacts land, not what the experiment
    # is; the data path is relative to the run directory, where `report`
    # resolves it. So the same run made to or from another directory writes
    # the same bytes
    snapshot = {key: value for key, value in cfg.items() if key != "output_dir"}
    snapshot["data"] = {**cfg["data"], "path": os.path.relpath(cfg["data"]["path"], out_dir)}
    files: dict[str, bytes] = {}
    files["config.resolved.json"] = (dumps_canonical(snapshot) + "\n").encode("utf-8")
    files["metrics.csv"] = metrics_csv(result).encode("utf-8")
    for kind in MODEL_ORDER:
        files[f"predictions_{kind}.csv"] = predictions_csv(result, kind).encode("utf-8")
        trace = result.runs[kind].loss_trace
        if trace is not None:
            files[f"loss_{kind}.csv"] = loss_csv(trace).encode("utf-8")
    files["stats.json"] = (dumps_canonical(asdict(result.report)) + "\n").encode("utf-8")
    files["comparison.csv"] = comparison_csv(result.report).encode("utf-8")
    return files


@contextmanager
def _writing(path):
    """Writes to the output `path` inside the block. An output location is
    part of the invocation, so an OSError is a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_distinct(outputs) -> None:
    """Two output paths that resolve to one file would be written once and
    reported twice: a ConfigError naming both."""
    seen = {}
    for path, _ in outputs:
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"two outputs name one file: {seen[real]} and {path}")
        seen[real] = path


def write_files(outputs) -> None:
    """Write a command's output files, given as (path, text or bytes) pairs:
    all of them, or none when one cannot be written (a ConfigError naming
    it, see `_writing`). Two paths that resolve to one file are a
    ConfigError before anything is written. Each file is written to a
    staged file next to its target, and the staged files replace their
    targets only once every one is written."""
    outputs = list(outputs)
    if len(outputs) > 1:  # a lone output clashes with nothing: skip its stat calls
        _check_distinct(outputs)
    staged = []
    try:
        for path, content in outputs:
            with _writing(path):
                if os.path.isdir(path):  # os.replace would fail only after others moved
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                head, tail = os.path.split(path)
                stage = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
                staged.append((path, stage))
                with open(stage, "xb") as fh:
                    fh.write(content.encode("utf-8") if isinstance(content, str) else content)
        for path, stage in staged:
            with _writing(path):
                os.replace(stage, path)
    finally:
        for _, stage in staged:
            with suppress(FileNotFoundError):
                os.remove(stage)


def _listed_files(out_dir: str) -> dict:
    """Digest by name of each file the `run-manifest/1` in `out_dir` lists."""
    try:
        with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return {}
    manifest = isinstance(doc, dict) and doc.get("format") == "run-manifest/1"
    return doc["files"] if manifest and isinstance(doc.get("files"), dict) else {}


def emit_artifacts(result: RunResult, out_dir: str, extra: dict[str, bytes] | None = None) -> dict:
    """Write all artifact files, and the `extra` files (such as model
    bundles) keyed by filename, then a manifest of the sha256 digests of
    them all, through `write_files` with the manifest last: so a failed
    write leaves a previous run's files as they were. Then each plain file
    name the previous manifest lists and this run did not write is removed
    if it still holds the listed content."""
    listed = _listed_files(out_dir)
    files = {**build_artifact_files(result, out_dir), **(extra or {})}
    manifest = {
        "format": "run-manifest/1",
        "files": {name: "sha256:" + sha256_hex(content)
                  for name, content in sorted(files.items())},
    }
    files["manifest.json"] = (dumps_canonical(manifest) + "\n").encode("utf-8")
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    write_files((os.path.join(out_dir, name), content) for name, content in files.items())
    for name in listed.keys() - files.keys():
        path = os.path.join(out_dir, name)
        with suppress(OSError):
            if (name == os.path.basename(name) and name not in ("", ".", "..")
                    and listed[name] == "sha256:" + sha256_hex(Path(path).read_bytes())):
                os.remove(path)
    return manifest
