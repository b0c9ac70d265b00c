import json
import os

import numpy as np
import pytest

from cryptocast import data as dataio
from cryptocast import hybrid, optim, pipeline, recurrent
from cryptocast.cli import build_parser
from cryptocast.config import validate_config
from cryptocast.errors import ConfigError, ParseError
from cryptocast.jsonio import sha256_hex
from cryptocast.rng import Rng


@pytest.fixture()
def small_config(small_config_doc):
    return validate_config(json.dumps(small_config_doc))


class TestPrepareData:
    def test_shapes_and_split(self, small_config):
        prepared = pipeline.prepare_data(small_config)
        assert len(prepared.train) == 240  # floor(0.8 * 300)
        assert len(prepared.test) == 60
        assert len(prepared.train_windows) == 240 - 5
        assert len(prepared.test_windows) == 60 - 5  # strict policy
        assert prepared.train_windows.X.shape[2] == 3

    def test_stats_come_from_train_rows_only(self, small_config, monkeypatch):
        captured = {}
        real_fit = dataio.fit_minmax

        def spy(train):
            captured["max_date"] = max(train.dates)
            captured["rows"] = len(train)
            return real_fit(train)

        monkeypatch.setattr(pipeline.dataio, "fit_minmax", spy)
        prepared = pipeline.prepare_data(small_config)
        # normalization never saw a date at or past the test boundary
        assert captured["rows"] == len(prepared.train)
        assert captured["max_date"] < min(prepared.test.dates)

    def test_borrow_policy_covers_all_test_rows(self, small_config):
        small_config["test_windows"] = "borrow"
        prepared = pipeline.prepare_data(small_config)
        assert len(prepared.test_windows) == 60

    def test_stage_annotation_on_bad_data(self, small_config, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,close,volume,fgi\n2021-01-01,oops,1,50\n")
        small_config["data"]["path"] = str(bad)
        with pytest.raises(ParseError, match=r"stage: ingest"):
            pipeline.prepare_data(small_config)

    def test_fgi_composed_from_sentiment_and_trends(self, small_config, tmp_path):
        # a file without an fgi column but with its two ingredients
        base = dataio.load_series(small_config["data"]["path"])
        raw = dataio.SeriesFrame.build(
            base.dates, ["close", "volume", "sentiment", "trends"],
            np.column_stack([
                base.column("close"), base.column("volume"),
                base.column("fgi") / 50.0 - 1.0,  # back out a sentiment score
                base.column("fgi"),
            ]),
        )
        path = tmp_path / "ingredients.csv"
        dataio.write_series_csv(raw, path)
        small_config["data"]["path"] = str(path)
        prepared = pipeline.prepare_data(small_config)
        assert "fgi" in prepared.frame.columns
        expected = 0.5 * ((raw.column("sentiment") + 1) / 2 * 100) \
            + 0.5 * raw.column("trends")
        assert np.allclose(prepared.frame.column("fgi"), expected)

    def test_single_lag_window(self, small_config):
        # window = 1 is the one-step-lag special case; the whole pipeline
        # must run on it (attention over a single timestep, one GRU step)
        small_config["window"] = 1
        small_config["models"]["bilstm"]["epochs"] = 3
        small_config["models"]["bigru"]["epochs"] = 3
        small_config["models"]["hybrid"]["epochs"] = 3
        result = pipeline.run_experiment(small_config)
        assert len(result.test_dates) == 59
        for kind in pipeline.MODEL_ORDER:
            assert np.all(np.isfinite(result.runs[kind].test_pred))

    def test_four_feature_scenario(self, small_config, tmp_path):
        # auxiliary price column alongside close/volume/fgi
        base = dataio.load_series(small_config["data"]["path"])
        enriched = base.with_column("btc_close", base.column("close") * 13.7)
        path = tmp_path / "aux.csv"
        dataio.write_series_csv(enriched, path)
        small_config["data"]["path"] = str(path)
        small_config["data"]["scenario"] = "ethereum"
        small_config["data"]["feature_columns"] = ["close", "volume", "fgi", "btc_close"]
        prepared = pipeline.prepare_data(small_config)
        assert prepared.train_windows.X.shape[2] == 4
        result = pipeline.run_experiment(small_config)
        assert all(np.isfinite(result.runs[k].metrics.rmse)
                   for k in pipeline.MODEL_ORDER)


class TestModelTable:
    # perfbench and other tracers wrap these module globals; every kind must
    # reach them by name at call time, not through references captured when
    # the table was built
    PATCHED = [
        (pipeline, "rbfn_fit"), (pipeline, "grnn_fit"),
        (pipeline, "rbfn_predict_batch"), (pipeline, "grnn_predict_batch"),
        (pipeline, "birnn_forward_batch"), (pipeline, "hybrid_forward_batch"),
        (recurrent, "birnn_loss_and_grads"), (recurrent, "run_adam_training"),
        (recurrent, "sigmoid"),
        (hybrid, "hybrid_loss_and_grads"), (hybrid, "run_adam_training"),
        (hybrid, "layer_norm_with_cache"), (hybrid, "layer_norm_backward"),
        (hybrid, "softmax_rows"), (hybrid, "softmax_backward"),
        (optim, "adam_step"),
    ]
    TRAINED = {"run_adam_training", "adam_step", "sigmoid"}
    REACHED = {
        "rbfn": {"rbfn_fit", "rbfn_predict_batch"},
        "grnn": {"grnn_fit", "grnn_predict_batch"},
        "bilstm": {"birnn_forward_batch", "birnn_loss_and_grads"} | TRAINED,
        "bigru": {"birnn_forward_batch", "birnn_loss_and_grads"} | TRAINED,
        "hybrid": {"hybrid_forward_batch", "hybrid_loss_and_grads", "layer_norm_with_cache",
                   "layer_norm_backward", "softmax_rows", "softmax_backward"} | TRAINED,
    }

    def test_every_kind_reaches_the_patched_module_globals(self, small_config, monkeypatch):
        for kind in ("bilstm", "bigru", "hybrid"):
            small_config["models"][kind]["epochs"] = 2
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for module, name in self.PATCHED:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        prepared = pipeline.prepare_data(small_config)
        for kind in pipeline.MODELS:
            calls.clear()
            model, _ = pipeline.train_model(kind, small_config, prepared, Rng(small_config["seed"]))
            pipeline.predict_windows(kind, model, prepared.test_windows)
            assert set(calls) == self.REACHED[kind], kind

    def test_model_order_and_cli_choices_follow_the_table(self):
        assert pipeline.MODEL_ORDER == tuple(pipeline.MODELS)
        train = ["train", "--config", "c.json", "--out", "b.json", "--model"]
        for kind in pipeline.MODELS:
            assert build_parser().parse_args(train + [kind]).model == kind
        with pytest.raises(SystemExit):
            build_parser().parse_args(train + ["perceptron"])


class TestRunExperiment:
    def test_full_run_structure(self, small_config):
        result = pipeline.run_experiment(small_config)
        assert set(result.runs) == set(pipeline.MODEL_ORDER)
        n_test = len(result.test_dates)
        assert n_test == 55
        for kind, run in result.runs.items():
            assert run.test_pred.shape == (n_test,)
            assert np.all(np.isfinite(run.test_pred))
            assert run.metrics.n == n_test
            assert np.all(run.band.lower <= run.test_pred)
            assert np.all(run.band.upper >= run.test_pred)
        assert result.report.bonferroni_m == 10
        assert len(result.report.pairwise) == 10
        traces = {k: r.loss_trace for k, r in result.runs.items()}
        assert traces["rbfn"] is None and traces["grnn"] is None
        assert len(traces["hybrid"]) == 15

    def test_deterministic_artifacts(self, small_config):
        files_a = pipeline.build_artifact_files(pipeline.run_experiment(small_config), "out")
        files_b = pipeline.build_artifact_files(pipeline.run_experiment(small_config), "out")
        assert files_a.keys() == files_b.keys()
        for name in files_a:
            assert files_a[name] == files_b[name], f"{name} differs between runs"

    def test_seed_changes_results(self, small_config):
        result_a = pipeline.run_experiment(small_config)
        small_config["seed"] = small_config["seed"] + 1
        result_b = pipeline.run_experiment(small_config)
        assert not np.array_equal(result_a.runs["hybrid"].test_pred,
                                  result_b.runs["hybrid"].test_pred)


class TestArtifacts:
    def test_emission_layout_and_digests(self, small_config, tmp_path):
        out = tmp_path / "artifacts"
        result = pipeline.run_experiment(small_config)
        manifest = pipeline.emit_artifacts(result, str(out))
        names = sorted(p.name for p in out.iterdir())
        expected = sorted(
            ["manifest.json", "metrics.csv", "stats.json", "comparison.csv",
             "config.resolved.json"]
            + [f"predictions_{k}.csv" for k in pipeline.MODEL_ORDER]
            + ["loss_bilstm.csv", "loss_bigru.csv", "loss_hybrid.csv"]
        )
        assert names == expected
        # manifest digests match the bytes on disk
        for name, digest in manifest["files"].items():
            data = (out / name).read_bytes()
            assert digest == "sha256:" + sha256_hex(data)

    def test_metrics_csv_shape(self, small_config):
        result = pipeline.run_experiment(small_config)
        text = pipeline.metrics_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == "model,mse,rmse,mae,mape_percent"
        assert len(lines) == 6  # header + five models
        assert [ln.split(",")[0] for ln in lines[1:]] == list(pipeline.MODEL_ORDER)

    def test_predictions_csv_round_trip(self, small_config, tmp_path):
        result = pipeline.run_experiment(small_config)
        out = tmp_path / "rt"
        pipeline.emit_artifacts(result, str(out))
        import csv
        with open(out / "predictions_hybrid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.test_dates)
        run = result.runs["hybrid"]
        for i, row in enumerate(rows):
            assert float(row["predicted"]) == run.test_pred[i]
            assert float(row["actual"]) == result.test_actual[i]
            assert float(row["lower"]) == run.band.lower[i]
            assert float(row["upper"]) == run.band.upper[i]

    def test_every_emitted_csv_round_trips(self, small_config, tmp_path):
        import csv
        result = pipeline.run_experiment(small_config)
        out = tmp_path / "rt_all"
        pipeline.emit_artifacts(result, str(out))
        for path in sorted(out.glob("*.csv")):
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows, f"{path.name} has no data rows"
            for row in rows:
                assert None not in row and None not in row.values(), path.name
            # numeric cells parse back to the exact written doubles
            rewritten = []
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                rewritten.append(",".join(header) + "\n")
                for cells in reader:
                    parsed = []
                    for cell in cells:
                        try:
                            int(cell)
                            parsed.append(cell)  # integer cells stay verbatim
                            continue
                        except ValueError:
                            pass
                        try:
                            parsed.append(repr(float(cell)))
                        except ValueError:
                            parsed.append(cell)
                    rewritten.append(",".join(parsed) + "\n")
            assert "".join(rewritten) == path.read_text(), path.name

    # no directory of that name exists, so writing this extra file fails
    # once every artifact file has been staged, a ConfigError naming it
    UNWRITABLE = {"missing/zz.json": b"{}"}

    def test_failed_emission_removes_partial_files(self, small_config, tmp_path):
        result = pipeline.run_experiment(small_config)
        out = tmp_path / "partial"
        with pytest.raises(ConfigError, match=f"cannot write {out}/missing/zz.json: "):
            pipeline.emit_artifacts(result, str(out), self.UNWRITABLE)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("blocked", ["missing/zz.json", "stats.json"],
                             ids=["missing-dir", "stats-dir"])
    def test_failed_emission_keeps_the_previous_run(self, small_config, tmp_path, blocked):
        result = pipeline.run_experiment(small_config)
        out = tmp_path / "previous"
        pipeline.emit_artifacts(result, str(out))
        extra = {}
        if blocked == "stats.json":
            # a directory where the rerun writes a file
            (out / "stats.json").unlink()
            (out / "stats.json").mkdir()
        else:
            extra = self.UNWRITABLE
        before = {path.name: path.is_dir() or path.read_bytes() for path in out.iterdir()}
        small_config["seed"] += 1
        with pytest.raises(ConfigError, match=f"cannot write {out}/{blocked}: "):
            pipeline.emit_artifacts(pipeline.run_experiment(small_config), str(out), extra)
        assert {path.name: path.is_dir() or path.read_bytes() for path in out.iterdir()} == before

    def test_a_rerun_removes_only_unchanged_files_it_no_longer_writes(self, small_config,
                                                                      tmp_path):
        result = pipeline.run_experiment(small_config)
        out = tmp_path / "rerun"
        pipeline.emit_artifacts(result, str(out), {"model_a.json": b"a", "model_b.json": b"b"})
        # a listed file rewritten since, a file no manifest lists and a
        # listed name outside the directory all stay
        (out / "model_b.json").write_bytes(b"rewritten")
        (out / "notes.txt").write_bytes(b"mine")
        (tmp_path / "x").write_bytes(b"outside")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"]["../x"] = "sha256:" + sha256_hex(b"outside")
        (out / "manifest.json").write_text(json.dumps(manifest))
        files = pipeline.emit_artifacts(result, str(out))["files"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["manifest.json", "model_b.json", "notes.txt", *files])
        assert (out / "model_b.json").read_bytes() == b"rewritten"
        assert (tmp_path / "x").read_bytes() == b"outside"

    @pytest.mark.parametrize("previous", [b'{"format": "run-manifest/2", "files": {}}',
                                          b"[", b"[1]"])
    def test_a_manifest_of_another_format_removes_nothing(self, small_config, tmp_path,
                                                          previous):
        out = tmp_path / "rerun"
        out.mkdir()
        (out / "model_a.json").write_bytes(b"a")
        listed = {"model_a.json": "sha256:" + sha256_hex(b"a")}
        (out / "manifest.json").write_bytes(previous.replace(b"{}", json.dumps(listed).encode()))
        pipeline.emit_artifacts(pipeline.run_experiment(small_config), str(out))
        assert (out / "model_a.json").read_bytes() == b"a"

    def test_emission_leaves_the_config_data_path_absolute(self, small_config, tmp_path):
        result = pipeline.run_experiment(small_config)
        path = result.config["data"]["path"]
        pipeline.emit_artifacts(result, str(tmp_path / "out"))
        assert result.config["data"]["path"] == path and os.path.isabs(path)
        # the snapshot is the config without output_dir, its data path
        # relative to the run directory
        snapshot = json.loads((tmp_path / "out" / "config.resolved.json").read_text())
        expected = {key: value for key, value in result.config.items() if key != "output_dir"}
        expected["data"] = {**result.config["data"],
                            "path": os.path.relpath(path, tmp_path / "out")}
        assert snapshot == expected
