"""The README's "Library use" example runs as written, so the API it shows
cannot drift from the package's."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs():
    namespace = {}
    exec(compile(library_use_block(), "README.md, Library use", "exec"), namespace)
    forecast, test_windows, trace = (namespace[k] for k in ("forecast", "test_windows", "trace"))
    assert forecast.shape == (len(test_windows),) and np.all(np.isfinite(forecast))
    assert len(trace) == namespace["hyper"]["epochs"] == 200
    assert trace[-1] < trace[0]
