"""cryptocast benchmark: one named workload in a fresh process.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 40 --trace 0

Load model: a closed loop with one client. Every call into the program goes
through ``cryptocast.cli.main`` in this process and starts only after the
previous one returned; BLAS is pinned to one thread, so the run uses one core.

Set-up (fresh-interpreter import, synthesize and write the CSV, write and
validate the config, determinism pre-check) is repeated SETUP_REPS times.
Then --seconds are filled with ``run --save-models`` calls, each followed by
a batch of round-robin ``predict`` requests over the five saved bundles (see
Bench.measure). Latency percentiles are taken within each block of
BLOCK_ROUNDS rounds of requests and averaged over the blocks. With
--trace 1, half the time goes to untraced runs and half to the same loop
under the tracer, which gives the per-layer metrics.
The last stdout line is the JSON result; see README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is first imported, here and in children

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 3
PRECHECK_ROWS = 200
PRECHECK_EPOCHS = 1
REL_TOL = 1e-9
MIN_REQUESTS = 100
BLOCK_ROUNDS = 5  # rounds of requests (5 each) that give one p50/p90 sample

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "predict_p50_ms": "ms",
                    "predict_p90_ms": "ms", "peak_rss_mb": "MB", "test_rmse_gmean": "price"}


class CryptocastMissing(Exception):
    pass


def import_cryptocast():
    """Import the checkout's own cryptocast from ROOT/src, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import cryptocast
        import cryptocast.cli
    except ImportError as exc:
        raise CryptocastMissing(f"cannot import cryptocast from {src}: {exc}") from exc
    if not os.path.abspath(cryptocast.__file__).startswith(src + os.sep):
        raise CryptocastMissing(f"imported cryptocast from {cryptocast.__file__}, not {src}")
    return cryptocast


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD read from .git without starting git; 'unknown' outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def read_predictions(path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["date"]: float(row["predicted"]) for row in csv.DictReader(fh)}


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def copy_rows(src, dst, rows: slice) -> None:
    """Copy the CSV header and the data rows selected by `rows`."""
    with open(src, encoding="utf-8") as fh:
        header, *lines = fh.readlines()
    with open(dst, "w", encoding="utf-8") as fh:
        fh.writelines([header, *lines[rows]])


class Bench:
    """One workload's files, counters and measurement loop."""

    def __init__(self, cc, wl: workloads.Workload, seed: int, workdir: str):
        self.cc = cc
        self.wl = wl
        self.rounds = workloads.request_rounds(seed)
        self.dir = workdir
        self.data = os.path.join(workdir, "series.csv")
        self.requests_csv = os.path.join(workdir, "requests.csv")
        self.config = os.path.join(workdir, "experiment.json")
        self.out = os.path.join(workdir, "run")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer: tracing.Tracer | None = None
        self.rmse_gmean = None
        self.manifest = None        # first run's manifest.json; every rerun must match it
        self.cpu_s = 0.0
        self.traced_runs: list[float] = []
        self.artifact_bytes = 0
        self.bundle_bytes = 0

    # -- operations and checks ---------------------------------------------

    def call(self, argv: list[str], span: str) -> bool:
        """One closed-loop call into the CLI; a nonzero exit or an exception fails it."""
        self.attempted += 1
        err = io.StringIO()
        span_cm = self.tracer.span(span) if self.tracer else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    span_cm:
                rc = self.cc.cli.main(argv)
        except Exception as exc:  # any escape from the program is a failed operation
            return self.fail(f"{argv[0]} raised {type(exc).__name__}: {exc}")
        if rc != 0:
            return self.fail(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
        return True

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        return True if ok else self.fail(f"check failed: {what}")

    def fail(self, message: str) -> bool:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
        return False

    @contextlib.contextmanager
    def reading(self, what: str):
        """An output that cannot be read or parsed is a failed check."""
        try:
            yield
        except (OSError, ValueError, KeyError) as exc:
            self.attempted += 1
            self.fail(f"cannot read {what}: {type(exc).__name__}: {exc}")

    # -- set-up ------------------------------------------------------------

    def write_config(self, path: str, data_path: str, epoch_cap=None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.wl.config(os.path.basename(data_path), epoch_cap), fh, indent=2)
        self.cc.config.load_config_file(path)

    def setup_once(self) -> None:
        """Everything between import and the first measured call; the import
        itself is timed in a fresh interpreter (see fresh_import_s)."""
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.call(self.wl.synth_args(self.data), "cli.synth")
        copy_rows(self.data, self.requests_csv, slice(-self.wl.predict_rows, None))
        self.write_config(self.config, self.data)
        self.precheck()

    def precheck(self) -> None:
        """Two tiny reruns of the workload config must give byte-identical manifests."""
        tiny_data = os.path.join(self.dir, "tiny.csv")
        tiny_config = os.path.join(self.dir, "tiny.json")
        copy_rows(self.data, tiny_data, slice(PRECHECK_ROWS))
        self.write_config(tiny_config, tiny_data, epoch_cap=PRECHECK_EPOCHS)
        manifests = []
        for rerun in ("a", "b"):
            out = os.path.join(self.dir, f"tiny_{rerun}")
            if not self.call(["run", "--config", tiny_config, "--out", out], "cli.run"):
                return
            with open(os.path.join(out, "manifest.json"), "rb") as fh:
                manifests.append(fh.read())
        self.check(manifests[0] == manifests[1], "tiny reruns differ in manifest.json")

    # -- measurement -------------------------------------------------------

    def run_once(self) -> float | None:
        """One `run --save-models` and its output checks; returns its wall seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        ok = self.call(["run", "--config", self.config, "--out", self.out, "--save-models"],
                       "cli.run")
        run_s = time.perf_counter() - wall0
        self.cpu_s += time.process_time() - cpu0
        if not ok:
            return None
        with self.reading("the run's artifacts"):
            self.check_run()
        return run_s

    def check_run(self) -> None:
        with open(os.path.join(self.out, "manifest.json"), "rb") as fh:
            manifest = fh.read()
        files = json.loads(manifest)["files"]
        self.check(all(sha256_file(os.path.join(self.out, name)) == digest
                       for name, digest in files.items()),
                   "manifest digest does not match the file on disk")
        if self.manifest is None:
            self.manifest = manifest
        else:
            self.check(manifest == self.manifest, "a rerun changed manifest.json")
        losses = []
        for kind in workloads.NEURAL:
            with open(os.path.join(self.out, f"loss_{kind}.csv"), encoding="utf-8") as fh:
                losses += [float(row["loss"]) for row in csv.DictReader(fh)]
        self.check(all(math.isfinite(v) for v in losses), "non-finite loss in a loss trace")
        with open(os.path.join(self.out, "metrics.csv"), encoding="utf-8") as fh:
            rmse = [float(row["rmse"]) for row in csv.DictReader(fh)
                    if row["model"] in self.wl.trained]
        self.rmse_gmean = statistics.geometric_mean(rmse)
        self.artifact_bytes = sum(os.path.getsize(os.path.join(self.out, name))
                                  for name in [*files, "manifest.json"])
        self.bundle_bytes = sum(os.path.getsize(os.path.join(self.out, f"model_{kind}.json"))
                                for kind in workloads.KINDS)

    def predict_batch(self, blocks: list[list[float]], seconds: float, min_total: int) -> None:
        """Blocks of BLOCK_ROUNDS rounds of `predict` requests over the bundles
        the last run saved, at least one block, until `seconds` have passed and
        `blocks` hold `min_total` latencies."""
        reference = {}
        with self.reading("the run's predictions"):
            reference = {kind: read_predictions(os.path.join(self.out, f"predictions_{kind}.csv"))
                         for kind in workloads.KINDS}
        answer = os.path.join(self.dir, "request_out.csv")
        start = time.perf_counter()
        while True:
            block = []
            for _ in range(BLOCK_ROUNDS):
                for kind in next(self.rounds):
                    bundle = os.path.join(self.out, f"model_{kind}.json")
                    t = time.perf_counter()
                    ok = self.call(["predict", "--bundle", bundle, "--data", self.requests_csv,
                                    "--out", answer], f"cli.predict.{kind}")
                    block.append(time.perf_counter() - t)
                    if ok:
                        with self.reading(f"the {kind} predict output"):
                            self.check_prediction(kind, answer, reference[kind])
            blocks.append(block)
            if (time.perf_counter() - start >= seconds
                    and sum(map(len, blocks)) >= min_total):
                break

    def check_prediction(self, kind: str, answer: str, reference: dict) -> None:
        got = read_predictions(answer)
        shared = sorted(set(got) & set(reference))
        bad = [d for d in shared
               if abs(got[d] - reference[d]) > REL_TOL * max(abs(got[d]), abs(reference[d]))]
        self.check(bool(shared) and not bad,
                   f"predict {kind} differs from predictions_{kind}.csv on {bad[:3] or 'no dates'}")

    def measure(self, seconds: float, blocks: list[list[float]] | None) -> list[float]:
        """Fill `seconds` with runs; when `blocks` collects request latencies,
        each run is followed by a predict batch of the workload's
        predict_ratio times its length. Once another run and batch would not
        fit, the last batch takes the rest of the time and tops the requests
        up to MIN_REQUESTS."""
        ratio = self.wl.predict_ratio if blocks is not None else 0.0
        self.cpu_s = 0.0
        start = time.perf_counter()
        runs = []
        while True:
            run_s = self.run_once()
            if run_s is None:
                break
            runs.append(run_s)
            remaining = seconds - (time.perf_counter() - start)
            last = remaining < run_s * (1.0 + ratio)
            if blocks is not None:
                self.predict_batch(blocks, remaining if last else run_s * ratio,
                                   MIN_REQUESTS if last else 0)
            if last:
                break
        return runs


def layer_metrics(tr: tracing.Tracer, runs: int, bench: Bench, run_untraced: float,
                  run_traced: float) -> dict:
    """Per-layer metrics from the traced phase, each as (value, unit).

    Spans inside `run` calls are reported per run, spans inside `predict`
    requests per request; names ending in _ms or _us are per call of that
    span. Counts are exact."""
    requests = tr.calls("cli.predict", "cli.predict")

    def per_run(prefix):
        return tr.total(prefix, "cli.run") / runs

    def per_call(prefix, scale, root):
        calls = tr.calls(prefix, root)
        return tr.total(prefix, root) * scale / calls if calls else 0.0

    def run_count(prefix):
        return tr.calls(prefix, "cli.run") / runs

    m = {
        "pipeline.prepare_s": (per_run("pipeline.prepare"), "s"),
        "pipeline.evaluate_s": (per_run("pipeline.evaluate"), "s"),
        "pipeline.compare_s": (per_run("pipeline.compare"), "s"),
        "pipeline.emit_s": (per_run("pipeline.emit"), "s"),
        "pipeline.artifact_bytes": (bench.artifact_bytes, "bytes"),
        "pipeline.cpu_util": (bench.cpu_s / sum(bench.traced_runs), "ratio"),
        "pipeline.train_samples": (tr.counted("pipeline.train_samples", "cli.run") / runs,
                                   "count"),
        "data.load_series_ms": (per_call("data.load_series", 1e3, "cli.predict"), "ms"),
        "data.rows_parsed": (tr.counted("data.rows_parsed", "cli.predict") / requests, "count"),
        "data.windows_ms": (per_call("data.make_windows", 1e3, "cli.predict"), "ms"),
        "data.windows_built": (tr.counted("data.windows_built", "cli.predict") / requests,
                               "count"),
        "ops.sigmoid.calls": (run_count("ops.sigmoid"), "count"),
        "ops.sigmoid.self_s": (tr.self_time("ops.sigmoid", "cli.run") / runs, "s"),
        "ops.layer_norm.calls": (run_count("ops.layer_norm"), "count"),
        "ops.layer_norm.self_s": (tr.self_time("ops.layer_norm", "cli.run") / runs, "s"),
        "ops.softmax.self_s": (tr.self_time("ops.softmax", "cli.run") / runs, "s"),
        "recurrent.self_s": (tr.self_time("recurrent", "cli.run") / runs, "s"),
        "hybrid.loss_grad.calls": (run_count("hybrid.loss_grad"), "count"),
        "hybrid.loss_grad_ms": (per_call("hybrid.loss_grad", 1e3, "cli.run"), "ms"),
        "hybrid.self_s": (tr.self_time("hybrid", "cli.run") / runs, "s"),
        "hybrid.forward_ms": (per_call("hybrid.forward", 1e3, "cli.predict"), "ms"),
        "optim.adam_step.calls": (run_count("optim.adam_step"), "count"),
        "optim.adam_step_us": (per_call("optim.adam_step", 1e6, "cli.run"), "us"),
        "optim.loop_self_s": (tr.self_time("optim.loop", "cli.run") / runs, "s"),
        "kernels.kmeans_s": (per_run("kernels.kmeans"), "s"),
        "kernels.rbfn_fit_s": (per_run("kernels.rbfn_fit"), "s"),
        "kernels.grnn_fit_s": (per_run("kernels.grnn_fit"), "s"),
        "kernels.grnn_predict_ms": (per_call("kernels.grnn_predict", 1e3, "cli.predict"), "ms"),
        "kernels.rbfn_predict_ms": (per_call("kernels.rbfn_predict", 1e3, "cli.predict"), "ms"),
        "kernels.grnn_bytes_computed": (
            tr.counted("kernels.grnn_bytes_computed", "cli.run") / runs, "bytes"),
        "bundle.save_s": (per_run("bundle.save"), "s"),
        "bundle.load_ms": (per_call("bundle.load", 1e3, "cli.predict"), "ms"),
        "bundle.bytes": (bench.bundle_bytes, "bytes"),
        "stats.compare_ms": (per_run("stats.compare") * 1e3, "ms"),
        "cli.predict_self_ms": (tr.self_time("cli.predict", "cli.predict") * 1e3 / requests,
                                "ms"),
        "trace.overhead_ratio": (run_traced / run_untraced - 1.0, "ratio"),
        "trace.closure": (tr.children_total("cli.run") / tr.total("cli.run", "cli.run"),
                          "ratio"),
    }
    for kind in workloads.KINDS:
        m[f"pipeline.train_s.{kind}"] = (per_run(f"pipeline.train.{kind}"), "s")
        m[f"pipeline.predict_s.{kind}"] = (per_run(f"pipeline.predict.{kind}"), "s")
        m[f"cli.predict_ms.{kind}"] = (
            per_call(f"cli.predict.{kind}", 1e3, "cli.predict"), "ms")
    for cell in ("lstm", "gru"):
        m[f"recurrent.loss_grad.calls.{cell}"] = (run_count(f"recurrent.loss_grad.{cell}"),
                                                  "count")
        m[f"recurrent.loss_grad_ms.{cell}"] = (
            per_call(f"recurrent.loss_grad.{cell}", 1e3, "cli.run"), "ms")
        m[f"recurrent.forward_ms.{cell}"] = (
            per_call(f"recurrent.forward.{cell}", 1e3, "cli.predict"), "ms")
    return m


def fresh_import_s() -> float:
    """Wall time of a fresh interpreter that starts and imports cryptocast,
    waited for before returning."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import cryptocast.cli"
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, log=print) -> dict:
    cc = import_cryptocast()
    env = environment(seed)
    log("env " + json.dumps(env, sort_keys=True))
    bench = Bench(cc, workloads.build(name), seed, os.path.join(WORK, name))

    imports, reps = [], []
    for _ in range(SETUP_REPS):
        imports.append(fresh_import_s())
        t = time.perf_counter()
        bench.setup_once()
        reps.append(time.perf_counter() - t)
    setup_s = statistics.median(i + r for i, r in zip(imports, reps))
    log(f"setup: fresh imports {[round(i, 3) for i in imports]} s, "
        f"data/config/pre-check {[round(r, 3) for r in reps]} s")
    if bench.failed:
        return finish(bench, env, {}, log)

    if not trace:
        blocks: list[list[float]] = []
        runs = bench.measure(seconds, blocks)
        metrics = {}
        if runs and blocks and bench.rmse_gmean is not None:
            # one p50 and p90 per block, averaged: the host's speed drifts by
            # ~20% over tens of seconds; the mean weighs every stretch of the run
            # alike, while the tail of one pooled sample follows its slowest one
            deciles = [statistics.quantiles(b, n=10, method="inclusive") for b in blocks]
            p50 = statistics.fmean(d[4] for d in deciles)
            p90 = statistics.fmean(d[8] for d in deciles)
            requests = sum(map(len, blocks))
            beyond = sum(lat > d[8] for b, d in zip(blocks, deciles) for lat in b)
            metrics = {
                "setup_s": setup_s,
                "run_s": statistics.median(runs),
                "predict_p50_ms": p50 * 1e3,
                "predict_p90_ms": p90 * 1e3,
                "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
                / 1024.0,
                "test_rmse_gmean": bench.rmse_gmean,
            }
            log(f"runs {len(runs)}: {[round(r, 3) for r in runs]} s; predict requests "
                f"{requests} in {len(blocks)} blocks, {beyond} beyond their block's p90")
        return finish(bench, env, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
                      log)

    # traced: an untraced reference phase, then the same loop under the tracer
    runs = bench.measure(seconds / 2, None)
    bench.tracer = tracing.Tracer()
    with tracing.installed(bench.tracer, cc):
        bench.traced_runs = bench.measure(seconds / 2, [])
    metrics = {}
    if runs and bench.traced_runs:
        metrics = layer_metrics(bench.tracer, len(bench.traced_runs), bench,
                                statistics.median(runs), statistics.median(bench.traced_runs))
        closure = metrics["trace.closure"][0]
        log(f"untraced runs {len(runs)}, traced runs {len(bench.traced_runs)}; closure: "
            f"pipeline spans cover {closure:.2%} of traced run_s "
            f"({'ok' if closure >= 0.95 else 'LOW'})")
    return finish(bench, env, metrics, log)


def finish(bench: Bench, env: dict, metrics: dict, log) -> dict:
    for line in bench.errors:
        log("error: " + line)
    log(f"error_rate {bench.failed / max(bench.attempted, 1):.6g} "
        f"({bench.failed} failed of {bench.attempted} operations)")
    for key, (value, unit) in sorted(metrics.items()):
        log(f"  {key:34s} {value:>16.6f} {unit}")
    result = {
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"env": env, "result": result}
    if bench.tracer is not None:
        report["trace"] = bench.tracer.to_json_dict()
    shutil.rmtree(bench.out, ignore_errors=True)
    with open(os.path.join(bench.dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except CryptocastMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
