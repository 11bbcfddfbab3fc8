"""What a fresh interpreter loads: scipy only once a GELU or sigmoid runs;
and which package modules import which."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Prints, after each step, the scipy modules loaded so far.
PROBE = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
import promptrefine
seen["import"] = scipy_modules()
from promptrefine import cli
assert cli.main(["gen-data", "--out", sys.argv[1], "--classes", "3", "--n-max", "8",
                 "--tokens", "2", "--feat-dim", "3", "--test-per-class", "2"]) == 0
seen["gen-data"] = scipy_modules()
from promptrefine import autodiff as ad
getattr(ad, sys.argv[2])(ad.constant(np.linspace(-2.0, 2.0, 5)))
seen[sys.argv[2]] = "scipy.special" in sys.modules
print(json.dumps(seen))
"""


@pytest.mark.parametrize("op", ["gelu", "sigmoid"])
def test_scipy_loads_on_the_first_gelu_or_sigmoid(tmp_path, op):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "data"), op],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": [], "gen-data": [], op: True}


def imported_names(path) -> set:
    """Every dotted name a module's import statements mention, relative
    imports without their leading dots."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{a.name}".lstrip(".") for a in node.names)
    return names


def test_data_does_not_import_model():
    """The data layer builds datasets and embeddings without the model."""
    names = imported_names(ROOT / "src" / "promptrefine" / "data.py")
    assert "autodiff" in names
    assert not [n for n in names if "model" in n.split(".")]
