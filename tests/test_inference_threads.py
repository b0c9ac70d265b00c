"""Inference runs a pass's blocks on one thread per CPU (`ops.run_blocks`):
the predictions do not depend on the number of CPUs, every thread is gone
when a pass returns, a failed block's exception reaches the caller, and
every thread computes under the caller's numpy error state."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from cryptocast import cli, hybrid, ops, recurrent
from cryptocast.rng import Rng

# the benchmark's `wide` shapes: T = 30, three features, default model sizes,
# 470 windows per request, so two blocks of ops.FORWARD_CHUNK
N, T, K = 470, 30, 3
WIDE_HYBRID = {"d_model": 32, "heads": 4, "layers": 2, "d_ffn": 64, "d_gru": 32}
MODELS = {
    "bilstm": lambda: (recurrent.init_birnn("lstm", K, 32, seed=3), recurrent.birnn_forward_batch),
    "bigru": lambda: (recurrent.init_birnn("gru", K, 32, seed=4), recurrent.birnn_forward_batch),
    "hybrid": lambda: (hybrid.init_hybrid(WIDE_HYBRID, K, seed=5), hybrid.hybrid_forward_batch),
}


@pytest.fixture()
def thread_starts(monkeypatch):
    """The number of threads started since the fixture was set up."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


@pytest.mark.parametrize("kind", list(MODELS))
def test_predictions_do_not_depend_on_the_cpu_count(kind, cpus, thread_starts):
    model, forward = MODELS[kind]()
    X = Rng(6).uniform(0.0, 1.0, (N, T, K))
    cpus(0)
    alone = forward(model, X)
    assert thread_starts == []
    cpus(0, 1)
    before = threading.active_count()
    shared = forward(model, X)
    assert thread_starts, "two CPUs started no thread"
    assert threading.active_count() == before
    assert np.array_equal(shared, alone)


@pytest.mark.parametrize("kind", list(MODELS))
def test_a_request_of_one_block_starts_no_thread(kind, cpus, thread_starts):
    # the hybrid's one read-out block holds four encoder sub-blocks here
    model, forward = MODELS[kind]()
    cpus(0, 1)
    forward(model, Rng(7).uniform(0.0, 1.0, (ops.FORWARD_CHUNK, T, K)))
    assert thread_starts == []


def test_every_span_runs_once_and_writes_its_own_part():
    # more threads than this host's cores, switching as often as they can:
    # a span claimed twice or never breaks the sums
    out = np.zeros(3000)
    workers = set()

    def work(span, worker):
        workers.add(worker)
        out[span] += np.arange(span.start, span.stop)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        before = threading.active_count()
        ops.run_blocks(work, ops.blocks(len(out), 3), 4)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert np.array_equal(out, np.arange(len(out)))
    assert workers <= {0, 1, 2, 3}


def test_an_exception_in_a_worker_thread_reaches_the_caller():
    # each span waits for the other, so the two run on two threads at once
    both = threading.Barrier(2, timeout=30)

    def work(span, worker):
        both.wait()
        if threading.current_thread() is not threading.main_thread():
            raise ValueError(f"block {span.start} failed")

    before = threading.active_count()
    with pytest.raises(ValueError, match="failed") as raised:
        ops.run_blocks(work, [slice(0, 1), slice(1, 2)], 2)
    assert threading.active_count() == before
    assert raised.value.__traceback__ is not None


def test_the_earliest_failed_span_is_raised():
    def work(span, worker):
        if span.start == 0:  # fails after span 1 has failed
            time.sleep(0.05)
        raise ValueError(f"span {span.start}")

    with pytest.raises(ValueError, match="span 0"):
        ops.run_blocks(work, [slice(i, i + 1) for i in range(4)], 2)


def test_no_span_is_claimed_once_one_failed():
    done = []

    def work(span, worker):
        if span.start == 1:
            raise ValueError("span 1")
        time.sleep(0.05)
        done.append(span.start)

    with pytest.raises(ValueError, match="span 1"):
        ops.run_blocks(work, [slice(i, i + 1) for i in range(40)], 2)
    assert done == [0]


def test_a_run_after_a_threaded_predict_forks_with_one_thread(small_config_file, small_csv,
                                                               tmp_path, cpus, monkeypatch,
                                                               thread_starts):
    # from Python 3.12 a fork beside a live thread warns, which the test
    # configuration turns into an error; count the threads at each fork too
    cpus(0, 1)
    assert cli.main(["run", "--config", small_config_file, "--out", str(tmp_path / "first"),
                     "--save-models"]) == 0
    thread_starts.clear()
    # the fixture CSV has 295 windows of 5 rows: two blocks
    assert cli.main(["predict", "--bundle", str(tmp_path / "first" / "model_bilstm.json"),
                     "--data", small_csv, "--out", str(tmp_path / "p.csv")]) == 0
    assert thread_starts, "the predict ran on one thread"
    fork, threads_at_fork = os.fork, []

    def counted_fork():
        task_dir = "/proc/self/task"
        threads_at_fork.append(len(os.listdir(task_dir)) if os.path.isdir(task_dir)
                               else threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    assert cli.main(["run", "--config", small_config_file, "--out", str(tmp_path / "second")]) == 0
    assert threads_at_fork == [1]


class Overflow(Exception):
    pass


def raise_overflow(kind, flag):
    raise Overflow(kind)


@pytest.mark.parametrize("state, raises", [
    ({"over": "raise"}, FloatingPointError),
    ({"over": "call", "call": raise_overflow}, Overflow),
], ids=["raise", "call"])
def test_every_thread_runs_under_the_callers_error_state(cpus, state, raises):
    # numpy keeps its error state per thread: a started thread that began
    # with numpy's default would only warn, and go on with an inf
    both = threading.Barrier(2, timeout=30)
    raised = set()

    def work(span, worker):
        both.wait()  # spans run two at a time, one on each thread
        try:
            np.float64(1e308) * 10
        except raises:
            raised.add(span.start)

    cpus(0, 1)
    with np.errstate(**state):
        ops.run_blocks(work, [slice(i, i + 1) for i in range(4)], ops.threads_for(4))
    assert raised == {0, 1, 2, 3}


@pytest.mark.parametrize("ids", [(0,), (0, 1)], ids=["one-cpu", "two-cpus"])
def test_an_overflowing_pass_raises_under_raise_on_any_cpu_count(cpus, ids):
    # a default-size hybrid over two read-out blocks: the started thread's
    # overflow must raise as the calling thread's does
    model, forward = MODELS["hybrid"]()
    X = Rng(8).uniform(0.0, 1.0, (300, T, K))
    X[0, 0, 0] = 1e300
    cpus(*ids)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        forward(model, X)
