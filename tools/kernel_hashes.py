"""The byte-identity check, once per OpenBLAS kernel.

OpenBLAS picks its matmul kernel by CPU, and the kernels round
differently, so the byte-identity promise holds per kernel.  This tool
runs ``tools/checkpoint_hashes.py`` and
``tests/test_autodiff.py::TestBitwiseOracles`` once under each of
``KERNELS``.  Each run is its own child process, and only that child's
environment sets ``OPENBLAS_CORETYPE`` (``default`` leaves it unset, so
OpenBLAS picks by CPU).  The forced kernels are x86-64 ones.

Run from anywhere; it takes no flags:

    python3 tools/kernel_hashes.py

It prints one block per kernel: the ten lines of ``checkpoint_hashes.py``
and the oracles' pass count.  Compare the blocks of two versions of the
code on one machine.  It exits 1 if any child fails or is killed, as on a
resume that differs, a failed gradcheck or a failed oracle.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("default", "Haswell", "SandyBridge", "Prescott")
HASHES = [sys.executable, str(ROOT / "tools" / "checkpoint_hashes.py")]
ORACLES = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "tests/test_autodiff.py::TestBitwiseOracles"]


def child_env(kernel: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if kernel != "default":
        env["OPENBLAS_CORETYPE"] = kernel
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                       env.get("PYTHONPATH"))))
    return env


def main() -> int:
    failures = []
    for kernel in KERNELS:
        env = child_env(kernel)
        print(f"== kernel {kernel}", flush=True)
        hashes = subprocess.run(HASHES, cwd=ROOT, env=env)
        oracles = subprocess.run(ORACLES, cwd=ROOT, env=env, capture_output=True, text=True)
        lines = oracles.stdout.strip().splitlines() or ["no output"]
        print(f"TestBitwiseOracles {re.sub(r' in [0-9.]+s.*', '', lines[-1])}", flush=True)
        if oracles.returncode:
            print(oracles.stdout + oracles.stderr, file=sys.stderr, flush=True)
        for name, rc in (("checkpoint_hashes", hashes.returncode),
                         ("TestBitwiseOracles", oracles.returncode)):
            if rc:
                how = f"killed by signal {-rc}" if rc < 0 else f"exited {rc}"
                failures.append(f"{kernel}: {name} {how}")
    for f in failures:
        print(f"FAILED {f}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
