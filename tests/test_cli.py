import csv
import errno
import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptocast import cli, pipeline
from cryptocast import data as dataio
from cryptocast.bundle import load_bundle
from cryptocast.config import load_config_file
from cryptocast.errors import DivergenceError, NumericalError


def run_cli(*argv):
    return cli.main(list(argv))


class TestSynth:
    def test_writes_deterministic_csv(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("synth", "--seed", "5", "--n", "50", "--out", str(a)) == 0
        assert run_cli("synth", "--seed", "5", "--n", "50", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        frame = dataio.load_series(a)
        assert len(frame) == 50
        assert frame.columns == ["close", "volume", "fgi"]


class TestIngest:
    def test_summary_and_artifacts(self, small_csv, tmp_path, capsys):
        frame_json = tmp_path / "frame.json"
        windows_json = tmp_path / "windows.json"
        code = run_cli("ingest", "--data", small_csv, "--json", str(frame_json),
                       "--windows-out", str(windows_json), "--window", "6")
        assert code == 0
        out = capsys.readouterr().out
        assert "300 rows" in out
        doc = json.loads(frame_json.read_text())
        assert doc["format"] == "series-frame/1"
        assert len(doc["dates"]) == 300
        wdoc = json.loads(windows_json.read_text())
        assert wdoc["format"] == "window-set/1"
        assert wdoc["window"] == 6
        assert len(wdoc["y"]) == 294

    def test_bad_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,close\n2021-01-02,1\n2021-01-01,2\n")
        assert run_cli("ingest", "--data", str(bad)) == 3

    def test_window_follows_the_config_rule(self, small_csv, tmp_path, capsys):
        # like --alpha and --seed: a config rule, so exit 2 and no file
        out = tmp_path / "w.json"
        assert run_cli("ingest", "--data", small_csv, "--windows-out", str(out),
                       "--window", "0") == 2
        assert capsys.readouterr().err == "config error: --window=0 violates minimum: 1\n"
        assert not out.exists()


class TestFgi:
    def test_composes_column(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text(
            "date,close,sentiment,trends\n"
            "2021-01-01,10,0.0,50\n"
            "2021-01-02,11,1.0,100\n"
            "2021-01-03,12,-1.0,0\n"
        )
        out = tmp_path / "with_fgi.csv"
        assert run_cli("fgi", "--data", str(src), "--out", str(out)) == 0
        frame = dataio.load_series(out)
        assert frame.column("fgi").tolist() == [50.0, 100.0, 0.0]
        printed = capsys.readouterr().out
        assert "extreme_greed=1" in printed

    def test_out_of_range_sentiment_exits_3(self, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("date,close,sentiment,trends\n2021-01-01,10,2.0,50\n")
        assert run_cli("fgi", "--data", str(src), "--out", str(tmp_path / "x.csv")) == 3

    @pytest.mark.parametrize("data", ["raw.csv", "missing.csv"])
    @pytest.mark.parametrize("w1, w2, message", [
        ("0.7", "0.7", "fgi weights must be nonnegative and sum to 1, got 0.7, 0.7"),
        ("nan", "0.5", "--w1/--w2[0] must be a finite JSON number, got nan"),
        ("inf", "0.5", "--w1/--w2[0] must be a finite JSON number, got inf"),
        ("0.5", "-0.5", "--w1/--w2[1]=-0.5 violates minimum: 0"),
    ], ids=["sum", "nan", "inf", "negative"])
    def test_weights_follow_the_config_rule(self, tmp_path, capsys, data, w1, w2, message):
        """--w1/--w2 are checked like a config's data.fgi_weights, before
        --data is read: a config error, exit 2, and no file."""
        (tmp_path / "raw.csv").write_text("date,close,sentiment,trends\n2021-01-01,10,0.0,50\n")
        out = tmp_path / "x.csv"
        assert run_cli("fgi", "--data", str(tmp_path / data), "--out", str(out),
                       "--w1", w1, "--w2", w2) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestRun:
    def test_artifacts_and_exit_zero(self, small_config_file, tmp_path, capsys):
        out_dir = tmp_path / "run_out"
        assert run_cli("run", "--config", small_config_file, "--out", str(out_dir)) == 0
        names = sorted(os.listdir(out_dir))
        assert "manifest.json" in names
        assert "metrics.csv" in names
        assert "stats.json" in names
        assert sum(1 for n in names if n.startswith("predictions_")) == 5
        printed = capsys.readouterr().out
        assert "friedman" in printed

    def test_rerun_manifest_is_byte_identical(self, small_config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("run", "--config", small_config_file, "--out", str(out_a)) == 0
        assert run_cli("run", "--config", small_config_file, "--out", str(out_b)) == 0
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_save_models_writes_bundles(self, small_config_file, tmp_path):
        out_dir = tmp_path / "with_models"
        assert run_cli("run", "--config", small_config_file, "--out", str(out_dir),
                       "--save-models") == 0
        resolved = json.loads((out_dir / "config.resolved.json").read_text())
        for kind in ("rbfn", "grnn", "bilstm", "bigru", "hybrid"):
            # the bundle's first line is its JSON header
            bundle = json.loads((out_dir / f"model_{kind}.json").read_bytes().split(b"\n")[0])
            # the config's section as resolved, with nothing derived added
            assert bundle["hyperparameters"] == resolved["models"][kind]
            assert bundle["window"] == resolved["window"]
            assert bundle["feature_columns"] == resolved["data"]["feature_columns"]

    def test_manifest_lists_saved_bundles(self, small_config_file, tmp_path):
        manifests = []
        for rerun in ("a", "b"):
            out_dir = tmp_path / rerun
            assert run_cli("run", "--config", small_config_file, "--out", str(out_dir),
                           "--save-models") == 0
            manifest = (out_dir / "manifest.json").read_bytes()
            files = json.loads(manifest)["files"]
            for kind in cli.MODELS:
                digest = hashlib.sha256((out_dir / f"model_{kind}.json").read_bytes()).hexdigest()
                assert files[f"model_{kind}.json"] == "sha256:" + digest
            manifests.append(manifest)
        assert manifests[0] == manifests[1]

    def test_saved_models_are_byte_identical_across_processes(self, small_config_doc, tmp_path):
        # fresh interpreters with different string-hash seeds: nothing written
        # may depend on set or dict-of-str iteration order
        csv_path = tmp_path / "series200.csv"
        dataio.write_series_csv(dataio.synthesize_series(19, 200), csv_path)
        small_config_doc["data"]["path"] = str(csv_path)
        for kind in ("bilstm", "bigru", "hybrid"):
            small_config_doc["models"][kind]["epochs"] = 2
        config = tmp_path / "config200.json"
        config.write_text(json.dumps(small_config_doc))
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        outs = []
        for hash_seed in ("1", "2"):
            out_dir = tmp_path / f"hashseed{hash_seed}"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "cryptocast", "run", "--config", str(config),
                            "--out", str(out_dir), "--save-models"],
                           env=env, capture_output=True, check=True)
            outs.append(out_dir)
        names = ["manifest.json"] + [f"model_{kind}.json" for kind in cli.MODELS]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_unknown_config_key_exits_2(self, small_config_doc, tmp_path):
        small_config_doc["spliit_ratio"] = 0.9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(small_config_doc))
        assert run_cli("run", "--config", str(path)) == 2

    def test_missing_data_exits_2(self, small_config_doc, tmp_path):
        small_config_doc["data"]["path"] = str(tmp_path / "absent.csv")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(small_config_doc))
        assert run_cli("run", "--config", str(path)) == 2

    def test_corrupt_data_exits_3(self, small_config_doc, tmp_path):
        bad = tmp_path / "corrupt.csv"
        bad.write_text("date,close,volume,fgi\n2021-01-01,1,2,50\n2021-01-01,1,2,50\n")
        small_config_doc["data"]["path"] = str(bad)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config_doc))
        assert run_cli("run", "--config", str(path)) == 3

    def test_rerun_without_save_models_removes_the_bundles(self, small_config_file, small_csv,
                                                         tmp_path, capsys):
        out_dir = tmp_path / "rerun"
        assert run_cli("run", "--config", small_config_file, "--out", str(out_dir),
                       "--save-models") == 0
        assert run_cli("run", "--config", small_config_file, "--out", str(out_dir)) == 0
        assert sorted(out_dir.glob("model_*.json")) == []
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["manifest.json", *json.loads((out_dir / "manifest.json").read_text())["files"]])
        capsys.readouterr()
        assert run_cli("predict", "--bundle", str(out_dir / "model_hybrid.json"),
                       "--data", small_csv, "--out", str(tmp_path / "p.csv")) == 3
        assert "cannot open bundle" in capsys.readouterr().err

    def test_seed_override_is_checked_like_the_config(self, small_config_file, tmp_path, capsys):
        # a negative seed would write a snapshot that report then rejects
        out_dir = tmp_path / "neg"
        assert run_cli("run", "--config", small_config_file, "--out", str(out_dir),
                       "--seed", "-1") == 2
        assert "config error: seed" in capsys.readouterr().err
        assert run_cli("train", "--config", small_config_file, "--model", "rbfn",
                       "--out", str(tmp_path / "b.json"), "--seed", "-1") == 2

    def test_seed_override_lands_in_the_snapshot(self, small_config_doc, tmp_path):
        small_config_doc["output_dir"] = str(tmp_path / "from_file")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(small_config_doc))
        assert run_cli("run", "--config", str(config), "--seed", "5") == 0
        snapshot = json.loads((tmp_path / "from_file" / "config.resolved.json").read_text())
        assert snapshot["seed"] == 5

    def test_seed_override_leaves_the_loaded_config_unchanged(self, small_config_file,
                                                              monkeypatch):
        loaded = []
        monkeypatch.setattr(cli, "load_config_file",
                            lambda path: loaded.append(load_config_file(path)) or loaded[-1])
        args = cli.build_parser().parse_args(["run", "--config", small_config_file,
                                              "--seed", "5"])
        assert cli._load_config(args)["seed"] == 5
        assert loaded == [load_config_file(small_config_file)]

    def test_numerical_divergence_exits_4(self, small_config_file, monkeypatch):
        def explode(cfg):
            raise NumericalError("non-finite loss at epoch 3")

        monkeypatch.setattr(cli, "run_experiment", explode)
        assert run_cli("run", "--config", small_config_file) == 4


class TestRunFromTwoDirectories:
    def test_manifests_agree_and_report_reads_the_runs_data(self, small_config_doc,
                                                             small_csv, tmp_path, monkeypatch):
        small_config_doc["data"]["path"] = "series.csv"
        for kind in ("bilstm", "bigru", "hybrid"):
            small_config_doc["models"][kind]["epochs"] = 2
        homes = [tmp_path / "home1", tmp_path / "home2"]
        for home in homes:
            home.mkdir()
            shutil.copyfile(small_csv, home / "series.csv")
            (home / "config.json").write_text(json.dumps(small_config_doc))
            monkeypatch.chdir(home)
            assert run_cli("run", "--config", "config.json", "--out", "out") == 0
        runs = [home / "out" for home in homes]
        assert (runs[0] / "manifest.json").read_bytes() == (runs[1] / "manifest.json").read_bytes()
        snapshot = json.loads((runs[0] / "config.resolved.json").read_text())
        assert snapshot["data"]["path"] == os.path.join(os.pardir, "series.csv")

        # report resolves the path against the run directory, not the working one
        monkeypatch.chdir(tmp_path)
        (homes[1] / "series.csv").unlink()
        assert run_cli("report", "--run-dir", str(runs[0]), "--out", "plot.csv") == 0
        assert run_cli("report", "--run-dir", str(runs[1]), "--out", "plot.csv") == 3


class TestBlasThreads:
    BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def test_unset_thread_count_writes_the_pinned_bytes(self, tmp_path):
        # a threaded BLAS splits the hybrid's gradient GEMMs otherwise, and
        # with two or more CPUs the bits of the run change
        dataio.write_series_csv(dataio.synthesize_series(7, 200), tmp_path / "s.csv")
        (tmp_path / "c.json").write_text(json.dumps({"data": {"path": "s.csv"}, "window": 5,
                                                     "models": {kind: {"epochs": 1} for kind in
                                                                ("bilstm", "bigru", "hybrid")}}))
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = {key: value for key, value in os.environ.items() if key not in self.BLAS_THREADS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        manifests = []
        for name, pinned in (("unset", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
            subprocess.run([sys.executable, "-m", "cryptocast", "run", "--config", "c.json",
                            "--out", name], cwd=tmp_path, env={**env, **pinned},
                           capture_output=True, check=True,
                           # at most two CPUs, and so at most two BLAS threads
                           preexec_fn=lambda: os.sched_setaffinity(
                               0, sorted(os.sched_getaffinity(0))[:2]))
            manifests.append((tmp_path / name / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]


class TestRunOnSeveralCpus:
    """`run` fits the kinds in the process and in one forked helper per
    further CPU of the affinity mask, which these tests set."""

    @pytest.fixture()
    def fitters(self, tmp_path):
        """A file each fit appends the id of its process to."""
        return tmp_path / "fitters"

    @pytest.fixture()
    def patch_fits(self, monkeypatch, fitters):
        def patch(before_fit, processes=2):
            """Call before_fit(kind) ahead of every fit. With two processes,
            each one's first fit waits until the other's has begun, so the
            first two kinds claimed (hybrid, bigru) are fitted one in the
            parent and one in the helper. Forked helpers inherit the patch."""
            barrier = multiprocessing.get_context("fork").Barrier(processes, timeout=60)
            waited = set()
            train_model = pipeline.train_model

            def patched(kind, *args):
                with open(fitters, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                if processes > 1 and os.getpid() not in waited:
                    waited.add(os.getpid())
                    barrier.wait()
                before_fit(kind)
                return train_model(kind, *args)

            monkeypatch.setattr(pipeline, "train_model", patched)
        return patch

    @pytest.fixture()
    def run(self, small_config_file, capsys, fitters):
        def run(out):
            """Exit code and stderr of `run --save-models`, once every helper
            that fitted a kind has been joined: a helper not waited for would
            remain a zombie, which os.kill still reaches."""
            code = run_cli("run", "--config", small_config_file, "--out", str(out),
                           "--save-models")
            helpers = set(fitters.read_text().split()) - {str(os.getpid())} \
                if fitters.exists() else set()
            for pid in helpers:
                with pytest.raises(ProcessLookupError):
                    os.kill(int(pid), 0)
            fitters.unlink(missing_ok=True)
            assert multiprocessing.active_children() == []
            return code, capsys.readouterr().err
        return run

    def test_two_cpus_write_the_bytes_one_cpu_writes(self, tmp_path, cpus, patch_fits, run):
        files = {}
        for ids in ((0, 1), (0,)):
            cpus(*ids)
            patch_fits(lambda kind: None, processes=len(ids))
            out = tmp_path / f"cpus{len(ids)}"
            assert run(out) == (0, "")
            files[ids] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert {"manifest.json", *(f"model_{kind}.json" for kind in cli.MODELS)} <= \
            files[(0,)].keys()
        assert files[(0, 1)] == files[(0,)]

    @pytest.mark.parametrize("affinity", ["one cpu", "unknown"])
    def test_one_cpu_forks_nothing(self, tmp_path, cpus, monkeypatch, run, affinity):
        if affinity == "one cpu":
            cpus(0)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)

        def no_fork():
            raise AssertionError("run forked a process")

        monkeypatch.setattr(os, "fork", no_fork)
        assert run(tmp_path / "out") == (0, "")

    def test_each_worker_fits_on_cpus_of_its_own(self, tmp_path, cpus, monkeypatch, patch_fits,
                                                  run):
        pins = tmp_path / "pins"

        def record(pid, mask):
            with open(pins, "a") as fh:
                fh.write(f"{os.getpid()} {sorted(mask)}\n")

        monkeypatch.setattr(os, "sched_setaffinity", record, raising=False)
        cpus(0, 1, 2)
        patch_fits(lambda kind: None, processes=3)
        assert run(tmp_path / "out") == (0, "")
        by_process = {}
        for line in pins.read_text().splitlines():
            pid, mask = line.split(" ", 1)
            by_process.setdefault(int(pid), []).append(mask)
        # the parent runs on its share while it fits, then on the whole set again
        assert by_process.pop(os.getpid()) == ["[0]", "[0, 1, 2]"]
        assert sorted(by_process.values()) == [["[1]"], ["[2]"]]

    def test_a_failed_fork_leaves_every_kind_to_the_parent(self, tmp_path, cpus, monkeypatch,
                                                           run):
        def no_process_to_spare():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        cpus(0, 1)
        monkeypatch.setattr(os, "fork", no_process_to_spare)
        assert run(tmp_path / "out") == (0, "")

    def test_a_daemonic_process_fits_every_kind_itself(self, small_config_file, tmp_path,
                                                       cpus):
        # a pool worker is daemonic, and a daemonic process may not have children
        cpus(0, 1)
        out = tmp_path / "out"
        worker = multiprocessing.get_context("fork").Process(
            target=lambda: sys.exit(run_cli("run", "--config", small_config_file,
                                            "--out", str(out))),
            daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert worker.exitcode == 0
        assert (out / "manifest.json").exists()

    def test_a_helper_fit_error_exits_as_on_one_cpu(self, tmp_path, cpus, patch_fits, run):
        parent, failed = os.getpid(), tmp_path / "failed_kind"

        def fail_in_helper(kind):
            if os.getpid() != parent and kind in ("hybrid", "bigru"):
                failed.write_text(kind)
                raise DivergenceError("non-finite loss at epoch 3")

        cpus(0, 1)
        patch_fits(fail_in_helper)
        code, err = run(tmp_path / "two")
        kind = failed.read_text()

        def fail(k):
            if k == kind:
                raise DivergenceError("non-finite loss at epoch 3")

        cpus(0)
        patch_fits(fail, processes=1)
        assert (code, err) == run(tmp_path / "one")
        assert code == 4
        assert err == f"numerical error: [stage: train:{kind}] non-finite loss at epoch 3\n"

    def test_of_two_failed_kinds_the_earlier_in_model_order_is_reported(
            self, tmp_path, cpus, patch_fits, run):
        # hybrid and bigru fail, one in each process
        def fail(kind):
            if kind in ("hybrid", "bigru"):
                raise DivergenceError(f"non-finite loss in {kind}")

        outcomes = []
        for ids in ((0, 1), (0,)):
            cpus(*ids)
            patch_fits(fail, processes=len(ids))
            outcomes.append(run(tmp_path / f"cpus{len(ids)}"))
        assert outcomes[0] == outcomes[1] == (
            4, "numerical error: [stage: train:bigru] non-finite loss in bigru\n")

    def test_a_helper_error_carries_the_helper_traceback(self, small_config_file, cpus,
                                                         patch_fits):
        parent = os.getpid()

        def fail_in_helper(kind):
            if os.getpid() != parent:
                raise ValueError(f"unexpected in {kind}")

        cpus(0, 1)
        patch_fits(fail_in_helper)
        with pytest.raises(ValueError, match="unexpected in") as raised:
            pipeline.run_experiment(load_config_file(small_config_file))
        assert multiprocessing.active_children() == []
        assert isinstance(raised.value.__cause__, pipeline.HelperTraceback)
        assert ", in fail_in_helper\n" in str(raised.value.__cause__)

    def test_a_helper_that_dies_unreported_is_a_typed_error(self, tmp_path, cpus, patch_fits,
                                                            run):
        parent = os.getpid()

        def die_in_helper(kind):
            if os.getpid() != parent:
                os._exit(1)

        cpus(0, 1)
        patch_fits(die_in_helper)
        code, err = run(tmp_path / "out")
        assert code == 1
        assert err.startswith("error: a helper process exited (exit codes [1]) without "
                              "reporting the fit of ")
        assert err.rstrip().rsplit(" ", 1)[1] in ("hybrid", "bigru")


NAN = float("nan")


class TestMalformedConfigExits2:
    # each of these once ran, reached a later stage or raised a raw TypeError
    @pytest.mark.parametrize("path, value", [
        (("alpha",), NAN),
        (("split_ratio",), NAN),
        (("interval_level",), NAN),
        (("models", "rbfn"), 5),
        (("models", "bilstm"), []),
        (("models", "grnn", "sigma_grid"), [True]),
        (("data", "fgi_weights"), [True, False]),
        (("data", "fgi_weights"), [-0.5, 1.5]),
        (("data", "fgi_weights"), [0.3, 0.3]),
        (("data", "feature_columns"), ["close", "close", "volume"]),
        (("data", "path"), ""),
        (("output_dir",), 5),
    ], ids=lambda v: str(v))
    def test_config_error_without_traceback(self, small_config_doc, tmp_path, capsys,
                                            path, value):
        section = small_config_doc
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(small_config_doc))
        out_dir = tmp_path / "never"
        assert run_cli("run", "--config", str(config), "--out", str(out_dir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out_dir.exists()


class TestFgiWeights:
    @pytest.fixture()
    def ingredients(self, small_config_doc, small_csv, tmp_path):
        """The shared fixture with fgi replaced by sentiment and trends columns
        whose composition depends strongly on the weights."""
        base = dataio.load_series(small_csv)
        fgi = base.column("fgi")
        raw = dataio.SeriesFrame.build(
            base.dates, ["close", "volume", "sentiment", "trends"],
            np.column_stack([base.column("close"), base.column("volume"),
                             fgi / 50.0 - 1.0, 100.0 - fgi]))
        data_path = tmp_path / "ingredients.csv"
        dataio.write_series_csv(raw, data_path)
        small_config_doc["data"].update(path=str(data_path), fgi_weights=[0.9, 0.1])
        config = tmp_path / "weighted.json"
        config.write_text(json.dumps(small_config_doc))
        return str(config), str(data_path), raw

    def test_run_predict_and_report_compose_alike(self, ingredients, tmp_path):
        config, data_path, raw = ingredients
        out_dir = tmp_path / "run"
        assert run_cli("run", "--config", config, "--out", str(out_dir), "--save-models") == 0
        served_path = tmp_path / "served.csv"
        assert run_cli("predict", "--bundle", str(out_dir / "model_grnn.json"),
                       "--data", data_path, "--out", str(served_path)) == 0
        with open(out_dir / "predictions_grnn.csv") as fh:
            ran = {r["date"]: float(r["predicted"]) for r in csv.DictReader(fh)}
        with open(served_path) as fh:
            served = {r["date"]: float(r["predicted"]) for r in csv.DictReader(fh)}
        assert ran and set(ran) <= set(served)
        for date, value in ran.items():
            assert served[date] == pytest.approx(value, rel=1e-9, abs=0.0)

        plot_path = tmp_path / "plot.csv"
        assert run_cli("report", "--run-dir", str(out_dir), "--out", str(plot_path)) == 0
        composed = dataio.compose_fgi(raw.column("sentiment"), raw.column("trends"), 0.9, 0.1)
        band = {d.isoformat(): dataio.classify_fgi(float(v)) for d, v in zip(raw.dates, composed)}
        with open(plot_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["fgi_category"] == band[r["date"]] for r in rows)

    @pytest.mark.parametrize("snapshot", [
        "{not json", '{"data": {}}', '{"data": {"path": 5}}',
        '{"data": {"path": "x.csv"}, "alpha": NaN}',
    ])
    def test_malformed_snapshot_is_a_config_error(self, tmp_path, capsys, snapshot):
        (tmp_path / "config.resolved.json").write_text(snapshot)
        assert run_cli("report", "--run-dir", str(tmp_path), "--out", str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


class TestTrainPredictEvaluate:
    def test_round_trip(self, small_config_file, small_csv, tmp_path, capsys):
        bundle_path = tmp_path / "grnn.json"
        loss_path = tmp_path / "loss.csv"
        assert run_cli("train", "--config", small_config_file, "--model", "grnn",
                       "--out", str(bundle_path)) == 0
        assert bundle_path.exists()

        pred_path = tmp_path / "pred.csv"
        assert run_cli("predict", "--bundle", str(bundle_path), "--data", small_csv,
                       "--out", str(pred_path)) == 0
        with open(pred_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 295  # 300 rows, window 5
        assert set(rows[0]) == {"date", "actual", "predicted"}

        metrics_path = tmp_path / "metrics.json"
        assert run_cli("evaluate", "--predictions", str(pred_path),
                       "--out", str(metrics_path)) == 0
        doc = json.loads(metrics_path.read_text())
        assert set(doc) == {"mse", "rmse", "mae", "mape_percent", "n"}
        assert doc["n"] == 295

    def test_vanishing_sigma_predicts_nearest_rows_not_nan(self, small_config_doc, small_csv,
                                                           tmp_path):
        small_config_doc["models"]["grnn"]["sigma_grid"] = [1e-160]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(small_config_doc))
        bundle_path = tmp_path / "grnn.json"
        assert run_cli("train", "--config", str(config), "--model", "grnn",
                       "--out", str(bundle_path)) == 0
        pred_path = tmp_path / "pred.csv"
        assert run_cli("predict", "--bundle", str(bundle_path), "--data", small_csv,
                       "--out", str(pred_path)) == 0
        with open(pred_path) as fh:
            predicted = [float(row["predicted"]) for row in csv.DictReader(fh)]
        assert len(predicted) == 295 and np.all(np.isfinite(predicted))
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "run")) == 0

    def test_train_writes_loss_trace_for_iterative_model(self, small_config_file, tmp_path):
        bundle_path = tmp_path / "bigru.json"
        loss_path = tmp_path / "loss.csv"
        assert run_cli("train", "--config", small_config_file, "--model", "bigru",
                       "--out", str(bundle_path), "--loss-out", str(loss_path)) == 0
        with open(loss_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15
        assert float(rows[-1]["loss"]) < float(rows[0]["loss"])

    @pytest.mark.parametrize("kind", ["rbfn", "grnn"])
    def test_loss_out_of_a_kind_without_trace_exits_2(self, small_config_file, tmp_path, capsys,
                                                      kind):
        bundle_path, loss_path = tmp_path / f"{kind}.json", tmp_path / "loss.csv"
        assert run_cli("train", "--config", small_config_file, "--model", kind,
                       "--out", str(bundle_path), "--loss-out", str(loss_path)) == 2
        assert capsys.readouterr().err == (f"config error: --loss-out: {kind} is fitted in "
                                           f"closed form and has no loss trace\n")
        assert not bundle_path.exists() and not loss_path.exists()


class TestPredictReproducesRun:
    """`cli predict` over exactly a run's test rows builds the run's test
    windows and works through them in the same blocks, so every kind's
    predictions come back bit for bit."""

    def test_test_rows_reproduce_every_kind(self, small_config_doc, small_config_file,
                                            small_csv, tmp_path):
        out = tmp_path / "run"
        assert run_cli("run", "--config", small_config_file, "--out", str(out),
                       "--save-models") == 0
        _, test = dataio.chronological_split(dataio.load_series(small_csv),
                                             small_config_doc["split_ratio"])
        test_csv = tmp_path / "test_rows.csv"
        dataio.write_series_csv(test, test_csv)
        for kind in ("rbfn", "grnn", "bilstm", "bigru", "hybrid"):
            pred = tmp_path / f"{kind}.csv"
            assert run_cli("predict", "--bundle", str(out / f"model_{kind}.json"),
                           "--data", str(test_csv), "--out", str(pred)) == 0
            with open(out / f"predictions_{kind}.csv") as fh:
                expected = list(csv.DictReader(fh))
            with open(pred) as fh:
                got = list(csv.DictReader(fh))
            assert [row["date"] for row in got] == [row["date"] for row in expected]
            assert [float(row["predicted"]) for row in got] == \
                [float(row["predicted"]) for row in expected], kind


class TestCompare:
    @pytest.fixture()
    def run_dir(self, small_config_file, tmp_path):
        out_dir = tmp_path / "cmp_run"
        assert run_cli("run", "--config", small_config_file, "--out", str(out_dir)) == 0
        return out_dir

    def test_five_files_ten_pairs(self, run_dir, tmp_path):
        inputs = [str(run_dir / f"predictions_{k}.csv")
                  for k in ("rbfn", "grnn", "bilstm", "bigru", "hybrid")]
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        assert run_cli("compare", "--inputs", *inputs, "--out", str(report_path),
                       "--csv", str(csv_path)) == 0
        doc = json.loads(report_path.read_text())
        assert len(doc["pairwise"]) == 10
        assert doc["bonferroni_m"] == 10
        assert doc["models"] == ["rbfn", "grnn", "bilstm", "bigru", "hybrid"]
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert set(rows[0]) == {"model_1", "model_2", "wilcoxon_r", "raw_p_value",
                                "bonferroni_corrected_p_value", "significant"}
        assert rows[0]["significant"] in ("TRUE", "FALSE")

    def test_identical_files_surface_degenerate_cleanly(self, run_dir, tmp_path, capsys):
        src = run_dir / "predictions_hybrid.csv"
        dup = tmp_path / "copy.csv"
        dup.write_bytes(src.read_bytes())
        code = run_cli("compare", "--inputs", str(src), str(dup),
                       "--out", str(tmp_path / "r.json"))
        assert code == 3
        err = capsys.readouterr().err
        assert "degenerate" in err

    def test_misaligned_dates_exit_3_and_name_first_date(self, run_dir, tmp_path, capsys):
        src = run_dir / "predictions_hybrid.csv"
        other = run_dir / "predictions_bigru.csv"
        shifted = tmp_path / "shifted.csv"
        lines = src.read_text().strip().split("\n")
        header, body = lines[0], lines[1:]
        shifted.write_text("\n".join([header] + body[1:]) + "\n")
        code = run_cli("compare", "--inputs", str(other), str(shifted),
                       "--out", str(tmp_path / "r.json"))
        assert code == 3
        assert "mismatch" in capsys.readouterr().err

    def test_single_input_is_config_error(self, run_dir, tmp_path):
        assert run_cli("compare", "--inputs",
                       str(run_dir / "predictions_hybrid.csv"),
                       "--out", str(tmp_path / "r.json")) == 2


class TestReport:
    def test_tidy_plot_csv(self, small_config_file, tmp_path):
        out_dir = tmp_path / "rep_run"
        assert run_cli("run", "--config", small_config_file, "--out", str(out_dir)) == 0
        plot_path = tmp_path / "plot.csv"
        assert run_cli("report", "--run-dir", str(out_dir), "--out", str(plot_path)) == 0
        with open(plot_path) as fh:
            rows = list(csv.DictReader(fh))
        series = {r["series"] for r in rows}
        assert series == {"actual", "rbfn", "grnn", "bilstm", "bigru", "hybrid"}
        n_dates = len({r["date"] for r in rows})
        assert len(rows) == 6 * n_dates
        model_row = next(r for r in rows if r["series"] == "hybrid")
        assert float(model_row["band_lo"]) <= float(model_row["value"])
        assert model_row["fgi_category"] in dataio.FGI_BANDS
        actual_row = next(r for r in rows if r["series"] == "actual")
        assert actual_row["band_lo"] == ""


class TestParser:
    def test_version_of_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0


class TestRepeatedMain:
    """`main` reuses one parser per process; no call may see another's state."""

    COMMANDS = ("synth", "ingest", "fgi", "train", "predict", "evaluate", "run", "compare",
                "report")

    def test_an_omitted_option_takes_its_default_again(self, inputs, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("compare", "--inputs", *inputs, "--out", str(out), "--alpha", "0.1") == 0
        assert json.loads(out.read_text())["alpha"] == 0.1
        assert run_cli("compare", "--inputs", *inputs, "--out", str(out)) == 0
        assert json.loads(out.read_text())["alpha"] == 0.05

    @pytest.mark.parametrize("command", [(), *((c,) for c in COMMANDS)])
    def test_help_is_the_same_twice(self, capsys, command):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run_cli(*command, "--help")
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and "usage: cryptocast" in texts[0]

    def test_a_handler_replaced_after_a_call_is_the_one_that_runs(self, inputs, tmp_path,
                                                                  monkeypatch):
        out = tmp_path / "r.json"
        assert run_cli("compare", "--inputs", *inputs, "--out", str(out)) == 0
        seen = []
        monkeypatch.setattr(cli, "_cmd_compare", lambda args: seen.append(args) or 7)
        assert run_cli("compare", "--inputs", *inputs, "--out", str(tmp_path / "s.json")) == 7
        assert [args.alpha for args in seen] == [0.05]
        assert not (tmp_path / "s.json").exists()

    def test_a_usage_error_after_a_success_exits_2(self, inputs, tmp_path, capsys):
        assert run_cli("compare", "--inputs", *inputs, "--out", str(tmp_path / "r.json")) == 0
        for argv in (["compare", "--inputs", *inputs], ["forecast"], ["compare", "--alpha"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2
        assert capsys.readouterr().err.count("usage: cryptocast") == 3


class TestPredictOutput:
    def test_rows_are_the_reprs_of_the_model_outputs(self, small_config_doc, small_csv,
                                                     tmp_path):
        for kind in ("bilstm", "bigru", "hybrid"):
            small_config_doc["models"][kind]["epochs"] = 2
        config = tmp_path / "config.json"
        config.write_text(json.dumps(small_config_doc))
        bundles = tmp_path / "run"

        def predict(kind, name):
            answer = tmp_path / name
            assert run_cli("predict", "--bundle", str(bundles / f"model_{kind}.json"),
                           "--data", small_csv, "--out", str(answer)) == 0
            return answer.read_bytes()

        assert run_cli("run", "--config", str(config), "--out", str(bundles),
                       "--save-models") == 0
        first = {kind: predict(kind, f"{kind}.csv") for kind in cli.MODELS}
        # another run between two requests in the same process
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "other")) == 0
        for kind in cli.MODELS:
            b = load_bundle(str(bundles / f"model_{kind}.json"))
            data, target = b.config["data"], b.config["data"]["target_column"]
            frame = dataio.with_composed_fgi(dataio.load_series(small_csv), data["compose_fgi"],
                                             data["fgi_weights"]).select(data["feature_columns"])
            ws = dataio.make_windows(dataio.apply_minmax(frame, b.stats), b.config["window"],
                                     target)
            predicted = dataio.invert_minmax(pipeline.predict_windows(kind, b.model, ws),
                                             target, b.stats)
            actual = dataio.invert_minmax(ws.y, target, b.stats)
            rows = [[d.isoformat(), repr(float(a)), repr(float(p))]
                    for d, a, p in zip(ws.target_dates, actual, predicted)]
            expected = pipeline.csv_text([["date", "actual", "predicted"], *rows])
            assert first[kind] == expected.encode("utf-8"), kind
            assert predict(kind, f"{kind}_again.csv") == first[kind], kind


class TestPredictionsText:
    @given(st.lists(st.tuples(st.dates(), st.floats(allow_nan=False) | st.sampled_from(
        [1e-05, 1e+16, -0.0, 0.1 + 0.2, 1.2345678901234567, 5e-324, 1.7976931348623157e308,
         123456789012345678.0])), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_text_is_csv_text_of_the_rows(self, rows):
        # csv_text quotes a cell holding a comma, a quote or a line break; no
        # date or float repr holds one, so the one-join text has its bytes
        dates = [d for d, _ in rows]
        values = [v for _, v in rows]
        expected = pipeline.csv_text([["date", "actual", "predicted"],
                                      *([d.isoformat(), repr(v), repr(-v)] for d, v in rows)])
        assert cli.predictions_text(dates, values, [-v for v in values]) == expected


class TestRangeBeyondFloat64:
    """A column whose max - min overflows float64 has no min-max scale: every
    command that would scale by one exits 3, and writes nothing, instead of
    crashing or writing NaN."""

    @pytest.fixture()
    def wide_csv(self, small_csv, tmp_path):
        frame = dataio.load_series(small_csv)
        values = frame.values.copy()
        j = frame.columns.index("volume")
        values[3, j], values[5, j] = 1.7e308, -1.7e308
        path = tmp_path / "wide.csv"
        dataio.write_series_csv(dataio.SeriesFrame.build(frame.dates, frame.columns, values), path)
        return str(path)

    def test_run_exits_3(self, small_config_doc, wide_csv, tmp_path, capsys):
        small_config_doc["data"]["path"] = wide_csv
        config = tmp_path / "config.json"
        config.write_text(json.dumps(small_config_doc))
        assert run_cli("run", "--config", str(config)) == 3
        assert "column 'volume' spans -1.7e+308..1.7e+308" in capsys.readouterr().err
        assert not os.path.exists(small_config_doc["output_dir"])

    def test_ingest_windows_exit_3(self, wide_csv, tmp_path, capsys):
        out = tmp_path / "windows.json"
        assert run_cli("ingest", "--data", wide_csv, "--windows-out", str(out)) == 3
        assert "column 'volume' spans" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_from_such_a_bundle_exits_3(self, small_config_file, small_csv, tmp_path,
                                               capsys):
        bundle, out = tmp_path / "rbfn.json", tmp_path / "p.csv"
        assert run_cli("train", "--config", small_config_file, "--model", "rbfn",
                       "--out", str(bundle)) == 0
        header, tail = bundle.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["normalization"]["volume"] = [-1e308, 1e308]
        bundle.write_bytes(json.dumps(doc).encode() + b"\n" + tail)
        assert run_cli("predict", "--bundle", str(bundle), "--data", small_csv,
                       "--out", str(out)) == 3
        assert "finite max - min" in capsys.readouterr().err
        assert not out.exists()


class TestNonFinitePrediction:
    def test_predict_exits_4_naming_the_first_date(self, small_config_file, small_csv,
                                                   tmp_path, capsys):
        # a close of 1e300 inside a window overflows the hybrid's forward pass:
        # every window that holds it predicts NaN, and predict writes no file
        bundle, data, out = tmp_path / "hybrid.json", tmp_path / "spike.csv", tmp_path / "p.csv"
        assert run_cli("train", "--config", small_config_file, "--model", "hybrid",
                       "--out", str(bundle)) == 0
        frame = dataio.load_series(small_csv)
        values = frame.values.copy()
        values[40, frame.columns.index("close")] = 1e300
        dataio.write_series_csv(dataio.SeriesFrame.build(frame.dates, frame.columns, values), data)
        capsys.readouterr()
        # numpy's overflow warnings are errors under this suite's filterwarnings
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("predict", "--bundle", str(bundle), "--data", str(data),
                           "--out", str(out))
        assert code == 4
        assert capsys.readouterr().err == (f"numerical error: non-finite prediction for "
                                           f"{frame.dates[41].isoformat()}\n")
        assert not out.exists()

    def test_run_exits_4_naming_the_kind_and_the_first_date(self, tmp_path, capsys):
        # the same spike in a test row: the hybrid's predictions turn NaN in
        # its predict stage, before compare sees a non-finite error
        frame = dataio.synthesize_series(7, 120)
        values = frame.values.copy()
        values[110, frame.columns.index("close")] = 1e300
        data, config, out = tmp_path / "spike.csv", tmp_path / "cfg.json", tmp_path / "out"
        dataio.write_series_csv(dataio.SeriesFrame.build(frame.dates, frame.columns, values), data)
        config.write_text(json.dumps({"data": {"path": str(data)}, "window": 5, "models": {
            kind: {"epochs": 1} for kind in ("bilstm", "bigru", "hybrid")}}))
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("run", "--config", str(config), "--out", str(out))
        assert code == 4
        assert capsys.readouterr().err == (f"numerical error: [stage: predict:hybrid] non-finite "
                                           f"prediction for {frame.dates[111].isoformat()}\n")
        assert not out.exists()


class TestOverflowingMetric:
    def test_evaluate_exits_4_and_writes_nothing(self, tmp_path, capsys):
        predictions, out = tmp_path / "p.csv", tmp_path / "m.json"
        predictions.write_text("date,actual,predicted\n2021-01-01,1.0,1e200\n"
                               "2021-01-02,2.0,1e200\n")
        with np.errstate(over="ignore"):
            code = run_cli("evaluate", "--predictions", str(predictions), "--out", str(out))
        assert code == 4
        assert capsys.readouterr().err == "numerical error: non-finite mse: inf\n"
        assert not out.exists()

    def test_run_exits_4_naming_the_kind(self, tmp_path, capsys):
        # every 7th close 1e160: the predictions stay finite, but their
        # errors square past float64
        frame = dataio.synthesize_series(7, 200)
        values = frame.values.copy()
        values[::7, frame.columns.index("close")] = 1e160
        data, config, out = tmp_path / "spike.csv", tmp_path / "cfg.json", tmp_path / "out"
        dataio.write_series_csv(dataio.SeriesFrame.build(frame.dates, frame.columns, values), data)
        config.write_text(json.dumps({"data": {"path": str(data)}, "window": 5, "models": {
            kind: {"epochs": 1} for kind in ("bilstm", "bigru", "hybrid")}}))
        with np.errstate(over="ignore"):
            code = run_cli("run", "--config", str(config), "--out", str(out))
        assert code == 4
        assert capsys.readouterr().err == ("numerical error: [stage: evaluate:rbfn] "
                                           "non-finite mse: inf\n")
        assert not out.exists()

    def test_compare_exits_4_naming_the_file_and_date(self, tmp_path, capsys):
        # 1e308 - (-1e308) overflows to inf, as in `evaluate`
        rows = "".join(f"2021-01-{d:02d},{100.0 + d},{101.0 + d % 3}\n" for d in range(2, 7))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("date,actual,predicted\n2021-01-01,1e308,1.0\n" + rows)
        b.write_text("date,actual,predicted\n2021-01-01,1e308,-1e308\n" + rows)
        out, table = tmp_path / "r.json", tmp_path / "r.csv"
        with np.errstate(over="ignore"):
            code = run_cli("compare", "--inputs", str(a), str(b), "--out", str(out),
                           "--csv", str(table))
        assert code == 4
        assert capsys.readouterr().err == (f"numerical error: {b}: non-finite absolute error "
                                           f"for 2021-01-01\n")
        assert not out.exists() and not table.exists()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A directory holding a 200-row series `s.csv`, a one-epoch config
    `c.json` over it, the `run --save-models` directory `run/` they make and
    a `raw.csv` that `fgi` reads."""
    root = tmp_path_factory.mktemp("tiny")
    dataio.write_series_csv(dataio.synthesize_series(7, 200), root / "s.csv")
    (root / "c.json").write_text(json.dumps({"data": {"path": "s.csv"}, "window": 5, "models": {
        kind: {"epochs": 1} for kind in ("bilstm", "bigru", "hybrid")}}))
    (root / "raw.csv").write_text("date,close,sentiment,trends\n2021-01-01,10,0.0,50\n")
    assert run_cli("run", "--config", str(root / "c.json"), "--out", str(root / "run"),
                   "--save-models") == 0
    return root


class TestUnwritableOutput:
    """An output location is part of the invocation: one that cannot be
    written exits 2 naming it, with no traceback and nothing written."""

    # each command's arguments, ending in the flag of the output it writes
    ARGV = {
        "synth": ["--seed", "1", "--n", "50", "--out"],
        "ingest": ["--data", "{root}/s.csv", "--json"],
        "fgi": ["--data", "{root}/raw.csv", "--out"],
        "train": ["--config", "{root}/c.json", "--model", "rbfn", "--out"],
        "predict": ["--bundle", "{root}/run/model_rbfn.json", "--data", "{root}/s.csv", "--out"],
        "evaluate": ["--predictions", "{root}/run/predictions_rbfn.csv", "--out"],
        "run": ["--config", "{root}/c.json", "--out"],
        "compare": ["--inputs", "{root}/run/predictions_rbfn.csv",
                    "{root}/run/predictions_grnn.csv", "--out"],
        "report": ["--run-dir", "{root}/run", "--out"],
    }

    @pytest.mark.parametrize("command", list(ARGV))
    def test_output_in_a_missing_directory_exits_2(self, tiny_run, tmp_path, capsys, command):
        missing = tmp_path / "nodir"
        if command == "run":
            # run makes its output directory, so make the parent a file
            missing.write_text("")
        out = missing / "x"
        argv = [arg.format(root=tiny_run) for arg in self.ARGV[command]]
        capsys.readouterr()
        assert run_cli(command, *argv, str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert missing.is_file() if command == "run" else not missing.exists()


class TestTwoOutputs:
    """A command with two outputs writes both or neither: each is staged
    next to its target and moved into place once both are written."""

    # each command's arguments and the flags of its two outputs
    ARGV = {
        "compare": (["--inputs", "{root}/run/predictions_rbfn.csv",
                     "{root}/run/predictions_grnn.csv"], "--out", "--csv"),
        "train": (["--config", "{root}/c.json", "--model", "bilstm"], "--out", "--loss-out"),
        "ingest": (["--data", "{root}/s.csv"], "--json", "--windows-out"),
    }

    def argv(self, command, root, first, second):
        args, first_flag, second_flag = self.ARGV[command]
        return [command, *(arg.format(root=root) for arg in args),
                first_flag, str(first), second_flag, str(second)]

    @pytest.mark.parametrize("unwritable", ["first", "second"])
    @pytest.mark.parametrize("command", list(ARGV))
    def test_an_unwritable_output_leaves_the_other_as_it_was(self, tiny_run, tmp_path, capsys,
                                                             command, unwritable):
        kept = tmp_path / "out" / "kept"
        kept.parent.mkdir()
        kept.write_text("previous\n")
        missing = tmp_path / "nodir" / "x"
        outputs = (missing, kept) if unwritable == "first" else (kept, missing)
        capsys.readouterr()
        assert run_cli(*self.argv(command, tiny_run, *outputs)) == 2
        out, err = capsys.readouterr()
        assert "wrote" not in out and "written" not in out
        assert err == f"config error: cannot write {missing}: No such file or directory\n"
        assert kept.read_text() == "previous\n"
        assert [path.name for path in kept.parent.iterdir()] == ["kept"]

    @pytest.mark.parametrize("command", list(ARGV))
    def test_both_outputs_written_and_nothing_else(self, tiny_run, tmp_path, command):
        first, second = tmp_path / "first", tmp_path / "second"
        first.write_text("previous\n")
        assert run_cli(*self.argv(command, tiny_run, first, second)) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["first", "second"]
        assert first.read_bytes() != b"previous\n" and second.stat().st_size > 0

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    @pytest.mark.parametrize("command", list(ARGV))
    def test_one_path_for_both_outputs_exits_2(self, tiny_run, tmp_path, capsys, monkeypatch,
                                               command, spelling):
        # the two spellings name one file: nothing is written, and the
        # error names the path
        monkeypatch.chdir(tmp_path)
        first, second = "same.txt", "same.txt" if spelling == "same" else "./same.txt"
        capsys.readouterr()
        assert run_cli(*self.argv(command, tiny_run, first, second)) == 2
        out, err = capsys.readouterr()
        assert "wrote" not in out and "written" not in out
        assert err == f"config error: two outputs name one file: {first} and {second}\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_target_replaces_nothing(self, tiny_run, tmp_path, capsys):
        kept = tmp_path / "kept"
        kept.write_text("previous\n")
        capsys.readouterr()
        assert run_cli(*self.argv("compare", tiny_run, kept, tmp_path)) == 2
        assert capsys.readouterr().err == f"config error: cannot write {tmp_path}: Is a directory\n"
        assert kept.read_text() == "previous\n"
        assert [path.name for path in tmp_path.iterdir()] == ["kept"]


class TestUnreadableInputs:
    """Undecodable bytes and oversized CSV fields get a typed exit code,
    never a raw UnicodeDecodeError or csv.Error."""

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"data": {"path": "x\xff.csv"}}')
        assert run_cli("run", "--config", str(config)) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_undecodable_bundle_exits_3(self, small_csv, tmp_path, capsys):
        bundle = tmp_path / "b.json"
        bundle.write_bytes(b'{"format": "model-bundle/3\xff"}')
        assert run_cli("predict", "--bundle", str(bundle), "--data", small_csv,
                       "--out", str(tmp_path / "p.csv")) == 3
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize("command, flag", [("ingest", "--data"),
                                               ("evaluate", "--predictions")])
    def test_undecodable_csv_exits_3(self, tmp_path, capsys, command, flag):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"date,actual,predicted\n2021-01-01,1\xff,2\n")
        assert run_cli(command, flag, str(path)) == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "nested.json"
        config.write_text("[" * 200_000)
        assert run_cli("run", "--config", str(config)) == 2
        assert capsys.readouterr().err.startswith("config error: config is not valid JSON")

    def test_oversized_field_exits_3(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("date,close\n2021-01-01," + "1" * 200_000 + "\n")
        assert run_cli("ingest", "--data", str(path)) == 3
        assert "data error:" in capsys.readouterr().err


class TestPredictionsReader:
    """evaluate, compare and report read predictions CSVs with the data-CSV
    reader: finite cells and strictly increasing dates, or exit 3."""

    @staticmethod
    def write(path, cell=None, dates=None):
        dates = dates or [f"2021-01-{d:02d}" for d in range(1, 9)]
        rows = [f"{d},{100.0 + i},{101.0 + i * 1.5}" for i, d in enumerate(dates)]
        if cell is not None:
            rows[2] = f"{dates[2]},{cell},{103.0}"
        path.write_text("date,actual,predicted\n" + "\n".join(rows) + "\n")
        return str(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_evaluate_non_finite_cell_exits_3(self, tmp_path, capsys, cell):
        path = self.write(tmp_path / "p.csv", cell)
        assert run_cli("evaluate", "--predictions", path) == 3
        assert "row 4: non-finite value for column 'actual'" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_compare_non_finite_cell_exits_3(self, tmp_path, capsys, cell):
        good = self.write(tmp_path / "a.csv")
        bad = self.write(tmp_path / "b.csv", cell)
        assert run_cli("compare", "--inputs", good, bad, "--out", str(tmp_path / "r.json")) == 3
        err = capsys.readouterr().err
        assert "non-finite value" in err and "b.csv" in err

    def test_out_of_order_dates_exit_3(self, tmp_path):
        dates = [f"2021-01-{d:02d}" for d in (1, 2, 4, 3, 5, 6, 7, 8)]
        path = self.write(tmp_path / "p.csv", dates=dates)
        assert run_cli("evaluate", "--predictions", path) == 3

    def test_missing_predicted_column_exits_3(self, tmp_path, capsys):
        good = self.write(tmp_path / "a.csv")
        path = tmp_path / "b.csv"
        path.write_text("date,actual\n2021-01-01,1\n2021-01-02,2\n")
        assert run_cli("evaluate", "--predictions", str(path)) == 3
        assert run_cli("compare", "--inputs", good, str(path), "--out", str(tmp_path / "r")) == 3
        err = capsys.readouterr().err
        assert err.count("b.csv needs 'actual' and 'predicted' columns") == 2


@pytest.fixture()
def inputs(tmp_path):
    """Two aligned predictions files of 12 dates whose errors differ."""
    paths = []
    for name, slope in (("a", 0.5), ("b", 1.5)):
        rows = [f"2021-01-{d:02d},{100.0 + d},{100.0 + d + slope * (d % 3)}"
                for d in range(1, 13)]
        path = tmp_path / f"{name}.csv"
        path.write_text("date,actual,predicted\n" + "\n".join(rows) + "\n")
        paths.append(str(path))
    return paths


class TestCompareCsv:
    @pytest.mark.parametrize("names", [['a,"x', "b"], ["line\nbreak", '"quoted"']])
    def test_model_names_round_trip(self, inputs, tmp_path, names):
        out = tmp_path / "pairs.csv"
        assert run_cli("compare", "--inputs", *inputs, "--names", *names,
                       "--out", str(tmp_path / "r.json"), "--csv", str(out)) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            header, row = csv.reader(fh)
        assert len(row) == len(header) == 6
        assert row[:2] == names


class TestCompareAlpha:
    """--alpha follows the config's rule for alpha: a finite 0 < alpha < 1."""

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0", "1", "7"])
    def test_out_of_range_alpha_exits_2(self, inputs, tmp_path, capsys, alpha):
        out = tmp_path / "r.json"
        assert run_cli("compare", "--inputs", *inputs, "--out", str(out), "--alpha", alpha) == 2
        assert capsys.readouterr().err.startswith("config error: --alpha")
        assert not out.exists()

    def test_valid_alpha_is_reported(self, inputs, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("compare", "--inputs", *inputs, "--out", str(out), "--alpha", "0.1") == 0
        assert json.loads(out.read_text())["alpha"] == 0.1
