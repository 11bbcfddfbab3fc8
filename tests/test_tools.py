"""The scripts under tools/ that compare hash lines between versions."""

import importlib.util
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_environments_and_arith_digest(monkeypatch):
    # checkpoint_hashes puts src/ and bench/ on sys.path; undo that afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    kernel_hashes = load_tool("kernel_hashes")
    checkpoint_hashes = load_tool("checkpoint_hashes")

    # If the environment handling broke, every block would come from one kernel.
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    monkeypatch.setenv("PYTHONPATH", "inherited")
    env = kernel_hashes.child_env("Haswell")
    assert env["OPENBLAS_CORETYPE"] == "Haswell"
    assert "OPENBLAS_CORETYPE" not in os.environ
    assert env["PYTHONPATH"].split(os.pathsep) == [str(ROOT / "src"), "inherited"]

    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")
    env = kernel_hashes.child_env("default")
    assert "OPENBLAS_CORETYPE" not in env
    assert os.environ["OPENBLAS_CORETYPE"] == "Prescott"

    digest = checkpoint_hashes.arith_digest()
    assert re.fullmatch("[0-9a-f]{64}", digest)
    assert checkpoint_hashes.arith_digest() == digest
