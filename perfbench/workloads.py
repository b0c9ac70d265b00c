"""The benchmark's workloads.

Each workload is one fixed experiment (its series and its model seed) plus a
predict phase whose request order comes from the benchmark's --seed. The
experiment stays fixed because test RMSE in price units moves by 10-30%
across data or initialisation seeds, far more than any usable quality bound;
run and predict times do not depend on those seeds, only on the shapes.

readme     The README experiment exactly as written (synth seed 7, 600 rows,
           window 10, model seed 99): 300 full-batch epochs per neural kind
           at N~470, T=10, d=16.
minibatch  The README model sizes on 2,000 rows with window 30, 3 epochs at
           batch_size 16: ~300 small Adam steps per neural kind, so per-call
           overhead in the loss/grad functions, adam_step and the mini-batch
           loop dominates instead of GEMM size.
wide       4,000 rows, window 30 (90 flat features), rbfn with 64 centers and
           the neural kinds untrained (epochs 0): no backward pass and no
           Adam step; the work is k-means, GRNN's O(N^2) kernel, large-batch
           forward inference, CSV ingest and ~10 MB bundles. Requests get as
           much time as runs, since they carry most of what wide measures.

minibatch and wide use zero drift, so over their longer series the test rows
stay inside the training price range instead of trending out of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

KINDS = ("rbfn", "grnn", "bilstm", "bigru", "hybrid")
NEURAL = ("bilstm", "bigru", "hybrid")
README_MODELS = {
    "bilstm": {"hidden_size": 16, "epochs": 300, "lr": 0.01},
    "bigru": {"hidden_size": 16, "epochs": 300, "lr": 0.01},
    "hybrid": {"d_model": 16, "heads": 2, "layers": 1, "d_ffn": 32,
               "d_gru": 16, "epochs": 300, "lr": 0.005},
}
SYNTH_SEED = 7
MODEL_SEED = 99


@dataclass
class Workload:
    name: str
    rows: int
    window: int
    models: dict
    predict_rows: int   # each predict request covers the last this many rows
    trained: tuple      # kinds fitted to data, whose test RMSE guards quality
    drift: str | None = None  # synth --drift; None keeps the generator default
    predict_ratio: float = 0.5  # seconds of predict requests per second of run

    def synth_args(self, out: str) -> list[str]:
        drift = [] if self.drift is None else ["--drift", self.drift]
        return ["synth", "--seed", str(SYNTH_SEED), "--n", str(self.rows), "--out", out,
                "--price-cycle", "0.04", "--volatility", "0.002", *drift]

    def config(self, data_path: str, epoch_cap: int | None = None) -> dict:
        models = {kind: dict(section) for kind, section in self.models.items()}
        if epoch_cap is not None:
            for section in models.values():
                if "epochs" in section:
                    section["epochs"] = min(section["epochs"], epoch_cap)
        return {"data": {"path": data_path, "scenario": "bitcoin"},
                "window": self.window, "seed": MODEL_SEED, "models": models}


def request_rounds(seed: int):
    """Endless round-robin over the five bundles: each round visits every
    kind once, in an order drawn from the seed."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(KINDS, len(KINDS))


def build(name: str) -> Workload:
    if name == "readme":
        return Workload(name, rows=600, window=10, models=README_MODELS,
                        predict_rows=120, trained=KINDS)
    if name == "minibatch":
        models = {kind: dict(section, epochs=3, batch_size=16)
                  for kind, section in README_MODELS.items()}
        return Workload(name, rows=2000, window=30, models=models,
                        predict_rows=250, trained=KINDS, drift="0")
    if name == "wide":
        models = {"rbfn": {"centers": 64}, **{kind: {"epochs": 0} for kind in NEURAL}}
        return Workload(name, rows=4000, window=30, models=models,
                        predict_rows=500, trained=("rbfn", "grnn"), drift="0",
                        predict_ratio=1.0)
    raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")


NAMES = ("readme", "minibatch", "wide")
