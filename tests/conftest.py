import json
import os

import pytest

from cryptocast import data as dataio


@pytest.fixture(scope="session")
def small_csv(tmp_path_factory):
    """Deterministic 300-row synthetic price CSV shared across tests."""
    path = tmp_path_factory.mktemp("fixtures") / "series.csv"
    frame = dataio.synthesize_series(
        11, 300,
        dataio.SynthParams(drift=0.0, volatility=0.004, price_cycle=0.035,
                           cycle_period=40.0, fgi_noise=1.5),
    )
    dataio.write_series_csv(frame, path)
    return str(path)


@pytest.fixture()
def small_config_doc(small_csv, tmp_path):
    """Fast-running full-experiment config against the shared CSV."""
    return {
        "data": {"path": small_csv, "scenario": "bitcoin"},
        "window": 5,
        "seed": 77,
        "split_ratio": 0.8,
        "output_dir": str(tmp_path / "out"),
        "models": {
            "rbfn": {"centers": 8},
            "grnn": {"sigma_grid": [0.03, 0.1, 0.3]},
            "bilstm": {"hidden_size": 6, "epochs": 15, "lr": 0.01},
            "bigru": {"hidden_size": 6, "epochs": 15, "lr": 0.01},
            "hybrid": {"d_model": 8, "heads": 2, "layers": 1, "d_ffn": 16,
                       "d_gru": 8, "epochs": 15, "lr": 0.01},
        },
    }


@pytest.fixture()
def small_config_file(small_config_doc, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config_doc))
    return str(path)


@pytest.fixture()
def cpus(monkeypatch):
    """Sets the CPUs the program finds in its affinity mask to the ids
    given. `run` pins its fit workers to CPUs of that set and restores the
    set it found, so the process's real mask is put back afterwards."""
    real = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    restore = getattr(os, "sched_setaffinity", None)

    def pin(*ids):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(ids), raising=False)

    yield pin
    if real is not None:
        restore(0, real)
