"""A training run's reused activation buffers must never change a result:
every loss/grad call through one `Buffers` equals, bit for bit, the same
call allocating fresh arrays, whatever batch sizes came before it."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptocast import hybrid, recurrent
from cryptocast.ops import Buffers
from cryptocast.rng import Rng

K = 2


def birnn(kind):
    m = recurrent.init_birnn(kind, K, 3, seed=5)
    return m, recurrent.birnn_loss_and_grads


def hybrid_model():
    cfg = hybrid.HybridConfig(window=4, input_size=K, d_model=4, heads=2,
                              layers=2, d_ffn=6, d_gru=3)
    return hybrid.init_hybrid(cfg, seed=6), hybrid.hybrid_loss_and_grads


MODELS = {"bilstm": lambda: birnn("lstm"), "bigru": lambda: birnn("gru"),
          "hybrid": hybrid_model}


def batch_sizes(n_samples, batch, epochs):
    """Mini-batch sizes of `epochs` passes, the last batch of each smaller
    when `batch` does not divide `n_samples`, then one single-window call."""
    sizes = [min(batch, n_samples - start) for start in range(0, n_samples, batch)]
    return sizes * epochs + [1]


@pytest.mark.parametrize("kind", list(MODELS))
@given(T=st.sampled_from([1, 2, 5]), n_samples=st.integers(1, 9),
       batch=st.integers(1, 9), seed=st.integers(0, 1000))
@example(T=1, n_samples=7, batch=3, seed=0)
@settings(max_examples=25, deadline=None)
def test_buffered_calls_equal_fresh_calls(kind, T, n_samples, batch, seed):
    m, loss_and_grads = MODELS[kind]()
    rng = Rng(seed)
    buffers = Buffers()
    for n in batch_sizes(n_samples, batch, epochs=2):
        X = rng.uniform(-1, 1, (n, T, K))
        y = rng.uniform(-1, 1, (n,))
        loss, grads = loss_and_grads(m, X, y, buffers=buffers)
        fresh_loss, fresh_grads = loss_and_grads(m, X, y)
        assert loss == fresh_loss
        assert grads.keys() == fresh_grads.keys()
        for name, g in grads.items():
            assert np.array_equal(g, fresh_grads[name]), (name, n)
