"""The benchmark emits every metric BENCHMARK.json names, with its unit, on
every workload, and refuses to run without the program's sources.

Run with ``python3 -m pytest perfbench``. Workloads are shrunk (fewer rows,
epochs and requests) so the test takes seconds; the code paths are the ones
a full run takes.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
FULL_BUILD = workloads.build


def shrunk(name):
    wl = FULL_BUILD(name)
    models = {kind: {k: (min(v, 2) if k == "epochs" else v) for k, v in section.items()}
              for kind, section in wl.models.items()}
    return dataclasses.replace(wl, rows=min(wl.rows, 400), models=models,
                               predict_rows=min(wl.predict_rows, 60))


def test_workload_names_match():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace, monkeypatch):
    monkeypatch.setattr(workloads, "build", shrunk)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    result = run.run_benchmark(name, seed=3, seconds=0.0, trace=bool(trace),
                               log=lambda line: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 100
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "readme",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
