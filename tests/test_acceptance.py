"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import json
import time

import numpy as np
import pytest

from cryptocast import data as dataio
from cryptocast import hybrid, kernels, recurrent, stats
from cryptocast.cli import main as cli_main
from cryptocast.config import validate_config
from cryptocast.data import SynthParams, synthesize_series, write_series_csv
from cryptocast.gradcheck import grad_check
from cryptocast.optim import TrainConfig
from cryptocast.params import named_arrays
from cryptocast.pipeline import run_experiment
from cryptocast.rng import Rng

GRAD_TOLERANCE = 1e-4


def report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. gradient oracle
# ---------------------------------------------------------------------------

def test_gradient_oracle():
    started = time.time()
    rng = Rng(1001)
    results = {}

    # RBFN least-squares residual
    X = rng.uniform(0, 1, (15, 3))
    y = rng.uniform(0, 1, (15,))
    rbfn = kernels.rbfn_fit(X, y, m=5, seed=7)
    rbfn.weights = rng.uniform(-1, 1, rbfn.weights.shape)
    rbfn.bias = np.array(rng.uniform(-1, 1))
    results["rbfn"] = grad_check(lambda: kernels.rbfn_loss_and_grad(rbfn, X, y),
                                 {"weights": rbfn.weights, "bias": rbfn.bias}, h=1e-5)

    # bidirectional recurrent models, T <= 4
    Xw = rng.uniform(0, 1, (4, 4, 2))
    yw = rng.uniform(0, 1, (4,))
    for name, kind in (("bilstm", "lstm"), ("bigru", "gru")):
        model = recurrent.init_birnn(kind, 2, 3, seed=11)
        results[name] = grad_check(lambda: recurrent.birnn_loss_and_grads(model, Xw, yw),
                                   named_arrays(model), h=1e-5)

    # full hybrid stack, T <= 4
    cfg = hybrid.HybridConfig(input_size=2, d_model=4, heads=2,
                              layers=1, d_ffn=8, d_gru=4)
    Xh = rng.uniform(0, 1, (4, 3, 2))
    yh = rng.uniform(0, 1, (4,))
    hmodel = hybrid.init_hybrid(cfg, seed=13)

    results["hybrid"] = grad_check(lambda: hybrid.hybrid_loss_and_grads(hmodel, Xh, yh),
                                   named_arrays(hmodel), h=1e-5)

    elapsed = time.time() - started
    for name, err in results.items():
        assert err < GRAD_TOLERANCE, f"{name} gradient error {err:.3e} >= {GRAD_TOLERANCE}"
    assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s (limit 60s)"
    report("gradient-oracle",
           "max rel err " + ", ".join(f"{k}={v:.2e}" for k, v in results.items())
           + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. memorization
# ---------------------------------------------------------------------------

def _memorization_fixture():
    rng = Rng(88)
    import datetime as dt
    X = rng.uniform(0, 1, (8, 4, 2))
    y = rng.uniform(0, 1, (8,))
    return dataio.WindowSet(
        X=X, y=y, window=4,
        target_dates=[dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(8)],
        feature_columns=["close", "volume"], target_column="close",
    )


@pytest.mark.parametrize("kind", ["bilstm", "bigru", "hybrid"])
def test_memorization(kind):
    data = _memorization_fixture()
    started = time.time()
    if kind == "hybrid":
        cfg = hybrid.HybridConfig(input_size=2, d_model=8, heads=2,
                                  layers=1, d_ffn=16, d_gru=8)
        model = hybrid.init_hybrid(cfg, seed=21)
        trained, _ = hybrid.hybrid_train(
            model, data, TrainConfig(epochs=500, lr=0.01, seed=22))
        pred = hybrid.hybrid_forward_batch(trained, data.X)
    else:
        model = recurrent.init_birnn(
            "lstm" if kind == "bilstm" else "gru", 2, 8, seed=21)
        trained, _ = recurrent.birnn_train(
            model, data, TrainConfig(epochs=500, lr=0.02, seed=22))
        pred = recurrent.birnn_forward_batch(trained, data.X)
    elapsed = time.time() - started
    mse = float(((pred - data.y) ** 2).mean())
    assert mse < 1e-3, f"{kind} train MSE {mse:.2e} after 500 epochs"
    assert elapsed < 30.0, f"{kind} memorization took {elapsed:.1f}s (limit 30s)"
    report(f"memorization-{kind}", f"train MSE {mse:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. benchmark sanity on synthetic data
# ---------------------------------------------------------------------------

def test_benchmark_sanity_beats_persistence(tmp_path):
    frame = synthesize_series(2024, 600, SynthParams(
        start_price=100.0, drift=0.0, volatility=0.001, price_cycle=0.05,
        cycle_period=75.0, cycle_amplitude=40.0, fgi_lead=18.75, fgi_noise=1.0,
        volume_cycle=0.3, volume_noise=0.02,
    ))
    csv_path = tmp_path / "bench.csv"
    write_series_csv(frame, csv_path)
    cfg = validate_config(json.dumps({
        "data": {"path": str(csv_path), "scenario": "bitcoin"},
        "window": 8, "seed": 99, "split_ratio": 0.8,
        "models": {
            "rbfn": {"centers": 32},
            "grnn": {"sigma_grid": [0.01, 0.03, 0.1, 0.3, 1.0]},
            "bilstm": {"hidden_size": 16, "epochs": 300, "lr": 0.01},
            "bigru": {"hidden_size": 16, "epochs": 300, "lr": 0.01},
            "hybrid": {"d_model": 16, "heads": 2, "layers": 1, "d_ffn": 32,
                       "d_gru": 16, "epochs": 300, "lr": 0.005},
        },
    }))
    result = run_experiment(cfg)

    # naive persistence on the same target dates: predict yesterday's close
    test = result.prepared.test
    close = test.column("close")
    idx = {d: i for i, d in enumerate(test.dates)}
    persistence = np.array([close[idx[d] - 1] for d in result.test_dates])
    persistence_rmse = float(np.sqrt(((result.test_actual - persistence) ** 2).mean()))

    ratios = {}
    for kind, run in result.runs.items():
        ratios[kind] = run.metrics.rmse / persistence_rmse
        assert run.metrics.rmse < persistence_rmse, (
            f"{kind} RMSE {run.metrics.rmse:.4f} does not beat persistence "
            f"{persistence_rmse:.4f}"
        )
    hybrid_mape = result.runs["hybrid"].metrics.mape_percent
    assert np.isfinite(hybrid_mape)
    report("benchmark-sanity",
           f"persistence RMSE {persistence_rmse:.3f}; RMSE ratios "
           + ", ".join(f"{k}={v:.2f}" for k, v in ratios.items())
           + f"; hybrid MAPE {hybrid_mape:.3f}%")


# ---------------------------------------------------------------------------
# 4. statistics exactness
# ---------------------------------------------------------------------------

def test_statistics_exactness():
    # Friedman on the hand-built instance: chi2 = 4 exactly
    friedman = stats.friedman_test(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
    assert friedman.chi2 == pytest.approx(4.0, abs=1e-12)

    # a chi2 statistic of 1419.34 with df = 4 has an upper tail
    # numerically indistinguishable from zero
    assert stats.chi_square_tail(1419.34, 4) < 1e-12

    # signed ranks of d = [1, -2, 3, -4, 5]: R = min(9, 6) = 6
    wil = stats.wilcoxon_signed_rank(
        np.array([1.0, 0.0, 3.0, 0.0, 5.0]), np.array([0.0, 2.0, 0.0, 4.0, 0.0]))
    assert wil.r_stat == 6.0

    # exact and normal p-value routes agree within 0.01 across the
    # exact-enumeration boundary
    rng = Rng(4242)
    worst = 0.0
    for n_eff in range(20, 26):
        for _ in range(10):
            d = rng.uniform(-1, 1, (n_eff,))
            d = d[d != 0.0]
            ranks = stats._average_ranks(np.abs(d))
            r = min(float(ranks[d > 0].sum()), float(ranks[d < 0].sum()))
            exact = min(1.0, 2.0 * stats._signed_rank_exact_cdf_leq(
                np.rint(2 * ranks).astype(np.int64), int(round(2 * r))))
            mu = n_eff * (n_eff + 1) / 4.0
            var = n_eff * (n_eff + 1) * (2 * n_eff + 1) / 24.0
            approx = min(1.0, 2.0 * (1.0 - stats.standard_normal_tail(
                (r - mu + 0.5) / np.sqrt(var))))
            worst = max(worst, abs(exact - approx))
    assert worst < 0.01, f"exact vs normal p disagreement {worst:.4f}"
    report("statistics-exactness",
           f"chi2=4 exact, tail<1e-12, R=6, exact-vs-normal gap {worst:.4f}")


# ---------------------------------------------------------------------------
# 5. reference correction arithmetic
# ---------------------------------------------------------------------------

def test_reference_correction_arithmetic():
    # row 1: 0.02894864 * 10 = 0.2894864, exact to 1e-12
    row1 = stats.bonferroni_adjust([0.02894864], 10)[0]
    assert row1 == pytest.approx(0.2894864, abs=1e-12)

    # row 2: 0.004209894 * 10 = 0.04209894 exactly. The reference pair
    # (0.004209894, 0.042098938) is internally inconsistent at the 2e-9
    # level: its corrected entry carries more digits of the underlying raw
    # p than the quoted raw entry does. Exact x10 arithmetic is therefore
    # pinned at 1e-12 and the reference entry at its own precision.
    row2 = stats.bonferroni_adjust([0.004209894], 10)[0]
    assert row2 == pytest.approx(0.04209894, abs=1e-12)
    assert row2 == pytest.approx(0.042098938, abs=5e-9)
    report("correction-arithmetic",
           f"x10 rows: {row1!r}, {row2!r}")


# ---------------------------------------------------------------------------
# 6. sentiment-index formula and bands
# ---------------------------------------------------------------------------

def test_fgi_formula_and_bands():
    assert dataio.compose_fgi(-1.0, 0.0, 0.5, 0.5) == 0.0
    assert dataio.compose_fgi(0.0, 50.0, 0.5, 0.5) == 50.0
    assert dataio.compose_fgi(1.0, 100.0, 0.5, 0.5) == 100.0

    # four bands partition [0, 100]
    edges = {
        "extreme_fear": (0.0, 24.0),
        "fear": (25.0, 49.0),
        "greed": (50.0, 74.0),
        "extreme_greed": (75.0, 100.0),
    }
    for band, (lo, hi) in edges.items():
        assert dataio.classify_fgi(lo) == band
        assert dataio.classify_fgi(hi) == band
    grid = np.linspace(0.0, 100.0, 10_001)
    seen = set()
    for score in grid:
        band = dataio.classify_fgi(float(score))
        assert band in dataio.FGI_BANDS
        seen.add(band)
    assert seen == set(dataio.FGI_BANDS)
    report("fgi-formula", "endpoints exact, 4-band partition verified on 10001 points")


# ---------------------------------------------------------------------------
# 7. interval coverage
# ---------------------------------------------------------------------------

def test_interval_coverage():
    rng = Rng(777)
    sigma = 2.5
    coverages = []
    for trial in range(3):
        residuals = sigma * rng.normal(size=1000)
        yhat = 40.0 + rng.uniform(-5, 5, (1000,))
        band = stats.prediction_interval(residuals, yhat, 0.95)
        realized = yhat + sigma * rng.normal(size=1000)
        coverage = float(np.mean((realized >= band.lower) & (realized <= band.upper)))
        assert abs(coverage - 0.95) <= 0.03, f"coverage {coverage:.3f} off nominal"
        coverages.append(coverage)
    report("interval-coverage",
           "coverages " + ", ".join(f"{c:.3f}" for c in coverages))


# ---------------------------------------------------------------------------
# 8. end-to-end determinism
# ---------------------------------------------------------------------------

def test_run_determinism_byte_identical_manifests(tmp_path):
    frame = synthesize_series(31, 140, SynthParams(
        drift=0.0, volatility=0.004, price_cycle=0.03, cycle_period=40.0))
    csv_path = tmp_path / "series.csv"
    write_series_csv(frame, csv_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "data": {"path": str(csv_path), "scenario": "bitcoin"},
        "window": 5, "seed": 12, "split_ratio": 0.8,
        "models": {
            "rbfn": {"centers": 8},
            "grnn": {"sigma_grid": [0.03, 0.1, 0.3]},
            "bilstm": {"hidden_size": 6, "epochs": 12, "lr": 0.01},
            "bigru": {"hidden_size": 6, "epochs": 12, "lr": 0.01},
            "hybrid": {"d_model": 8, "heads": 2, "layers": 1, "d_ffn": 16,
                       "d_gru": 8, "epochs": 12, "lr": 0.01},
        },
    }))
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert cli_main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
    manifest_a = (out_a / "manifest.json").read_bytes()
    manifest_b = (out_b / "manifest.json").read_bytes()
    assert manifest_a == manifest_b, "manifest digests differ between identical runs"
    digests = json.loads(manifest_a)["files"]
    for name in digests:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report("determinism", f"{len(digests)} artifacts byte-identical across reruns")
