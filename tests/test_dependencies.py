"""The runtime is numpy-only: importing the CLI loads nothing else."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_cli_import_loads_only_numpy_and_the_stdlib():
    # modules present before the import come from interpreter start-up (site
    # hooks, .pth files), so only the ones the import adds are checked
    code = ("import json, sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import cryptocast.cli; print(json.dumps(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                         check=True)
    added = json.loads(out.stdout)
    assert "cryptocast.cli" in added
    assert not any(name == "scipy" or name.startswith("scipy.") for name in added)
    top_level = {name.partition(".")[0] for name in added}
    assert top_level - set(sys.stdlib_module_names) == {"numpy", "cryptocast"}
