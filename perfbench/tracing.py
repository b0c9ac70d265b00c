"""In-memory span tracer that wraps cryptocast's public functions from outside.

Nothing under ``src/`` is edited: each wrapper replaces a name in the module
that looks it up at call time (``from x import f`` copies bind a second name,
so the importing module is the one patched). Every span has a name, a start,
an end, a parent (the innermost open span) and a root (the outermost one,
i.e. the CLI call it belongs to). Hot functions are aggregated by (name,
parent, root) only; the rest are also kept as full span records.
Self time is span time minus the time covered by its child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self._stack: list[list] = []   # open spans: [name, child_seconds]
        self.agg: dict[tuple, list] = {}  # (name, parent, root) -> [calls, total_s, child_s]
        self.spans: list[tuple] = []   # (name, parent, start, end) of non-hot spans
        self.counts: dict[tuple, int] = {}  # (key, root) -> exact count

    def _root(self, name):
        return self._stack[0][0] if self._stack else name

    def _close(self, name, frame, t0, t1, hot):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += dur
        key = (name, parent, self._root(name))
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += frame[1]
        if not hot:
            self.spans.append((name, parent, t0, t1))

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, t0, perf_counter(), hot=False)

    def count(self, key: str, n: int) -> None:
        slot = (key, self._root(key))
        self.counts[slot] = self.counts.get(slot, 0) + int(n)

    def wrap(self, fn, name, hot=False, counter=None):
        """Wrap `fn`; `name` is a string or a function of the call's args;
        `counter(tracer, args, result)` records exact counts."""
        stack = self._stack

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            frame = [span_name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_name, frame, t0, perf_counter(), hot)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    # -- queries over the aggregate -------------------------------------

    def _select(self, prefix, root, parent=None):
        return [r for (n, p, top), r in self.agg.items()
                if _matches(n, prefix) and _matches(top, root)
                and (parent is None or p == parent)]

    def calls(self, prefix: str, root: str) -> int:
        """Calls of every span named `prefix` or `prefix.*` whose root span is
        named `root` or `root.*`."""
        return sum(r[0] for r in self._select(prefix, root))

    def total(self, prefix: str, root: str) -> float:
        return sum(r[1] for r in self._select(prefix, root))

    def self_time(self, prefix: str, root: str) -> float:
        return sum(r[1] - r[2] for r in self._select(prefix, root))

    def children_total(self, parent: str) -> float:
        """Seconds covered by the direct children of spans named `parent`."""
        return sum(r[1] for (_, p, _), r in self.agg.items() if p == parent)

    def counted(self, key: str, root: str) -> int:
        return sum(n for (k, top), n in self.counts.items() if k == key and _matches(top, root))

    def to_json_dict(self) -> dict:
        return {
            "aggregate": [
                {"name": n, "parent": p, "root": top, "calls": r[0], "total_s": r[1],
                 "self_s": r[1] - r[2]}
                for (n, p, top), r in sorted(self.agg.items(), key=lambda kv: -kv[1][1])
            ],
            "spans": [{"name": n, "parent": p, "start": s, "end": e}
                      for n, p, s, e in self.spans],
            "counts": [{"key": k, "root": top, "count": n}
                       for (k, top), n in self.counts.items()],
        }


def _matches(name, prefix: str) -> bool:
    return name is not None and (name == prefix or name.startswith(prefix + "."))


def _grnn_bytes(tracer, args, result):
    model, queries = args[0], args[1]
    tracer.count("kernels.grnn_bytes_computed",
                 queries.shape[0] * model.stored_inputs.shape[0] * 8)


def _rows(key):
    return lambda tracer, args, result: tracer.count(key, len(result))


def _samples(tracer, args, result):
    tracer.count("pipeline.train_samples", args[1].shape[0])


def patch_table(cc):
    """(module, attribute, span name, hot, counter) for every traced call site."""
    cli, pipeline, data = cc.cli, cc.pipeline, cc.data
    recurrent, hybrid, optim = cc.recurrent, cc.hybrid, cc.optim
    kernels, stats = cc.kernels, cc.stats
    return [
        (cli, "emit_artifacts", "pipeline.emit", False, None),
        (cli, "save_bundle", "bundle.save", False, None),
        (cli, "load_bundle", "bundle.load", False, None),
        (pipeline, "prepare_data", "pipeline.prepare", False, None),
        (pipeline, "train_model", lambda a: "pipeline.train." + a[0], False, None),
        (pipeline, "predict_windows", lambda a: "pipeline.predict." + a[0], False, None),
        (pipeline, "prediction_interval", "pipeline.evaluate", False, None),
        (pipeline, "compute_metrics", "pipeline.evaluate", False, None),
        (pipeline, "compare_models", "pipeline.compare", False, None),
        (pipeline, "rbfn_fit", "kernels.rbfn_fit", False, None),
        (pipeline, "grnn_fit", "kernels.grnn_fit", False, None),
        (pipeline, "rbfn_predict_batch", "kernels.rbfn_predict", False, None),
        (pipeline, "grnn_predict_batch", "kernels.grnn_predict", False, _grnn_bytes),
        (pipeline, "birnn_forward_batch", lambda a: "recurrent.forward." + a[0].cell_kind,
         False, None),
        (pipeline, "hybrid_forward_batch", "hybrid.forward", False, None),
        (kernels, "kmeans", "kernels.kmeans", False, None),
        (data, "load_series", "data.load_series", False, _rows("data.rows_parsed")),
        (data, "make_windows", "data.make_windows", False, _rows("data.windows_built")),
        (recurrent, "sigmoid", "ops.sigmoid", True, None),
        (recurrent, "birnn_loss_and_grads",
         lambda a: "recurrent.loss_grad." + a[0].cell_kind, True, _samples),
        (recurrent, "run_adam_training", "optim.loop", False, None),
        (hybrid, "layer_norm_with_cache", "ops.layer_norm", True, None),
        (hybrid, "layer_norm_backward", "ops.layer_norm", True, None),
        (hybrid, "softmax_rows", "ops.softmax", True, None),
        (hybrid, "softmax_backward", "ops.softmax", True, None),
        (hybrid, "hybrid_loss_and_grads", "hybrid.loss_grad", True, _samples),
        (hybrid, "run_adam_training", "optim.loop", False, None),
        (optim, "adam_step", "optim.adam_step", True, None),
        (stats, "friedman_test", "stats.compare", True, None),
        (stats, "wilcoxon_signed_rank", "stats.compare", True, None),
    ]


@contextmanager
def installed(tracer: Tracer, cc):
    """Swap the wrappers in for the duration of the block, then restore."""
    originals = []
    try:
        for module, attr, name, hot, counter in patch_table(cc):
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, name, hot, counter))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
