"""Byte-identity check of training: six runs, their final checkpoints'
sha256 prefixes, and whether a resume reproduces each one.

Each run trains the prompt model on bench-A data (``bench/workloads.py``:
``BENCH_A_GEN``, ``BENCH_A_DIMS``, ``BENCH_A_TRAIN``; generator seed 3) for
3 epochs at seed 3 with a random embedding (m = 8, seed 3), once per loss
(asl, bce, focal) on the standard and on the literal path.  Each run is
then resumed from its ``checkpoint_epoch_000.cprc`` in a fresh directory,
and the resumed final checkpoint is compared byte for byte with the
uninterrupted one.

Run from the repository root:

    python3 tools/checkpoint_hashes.py

It prints one line per run and exits 1 if any resume differs.  The
prefixes are a fingerprint of the training arithmetic on this platform:
compare them between two versions of the code on one machine.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from promptrefine.data import GeneratorConfig, generate_synthetic_lt  # noqa: E402
from promptrefine.model import ModelDims  # noqa: E402
from promptrefine.training import TrainConfig, train_on_datasets  # noqa: E402
from workloads import BENCH_A_DIMS, BENCH_A_GEN, BENCH_A_TRAIN  # noqa: E402

SEED = 3
EPOCHS = 3
LOSSES = ("asl", "bce", "focal")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main() -> int:
    train_ds, test_ds = generate_synthetic_lt(GeneratorConfig(seed=SEED, **BENCH_A_GEN))
    all_resumed = True
    with tempfile.TemporaryDirectory() as tmp:
        for literal in (False, True):
            path = "literal" if literal else "standard"
            for loss in LOSSES:
                cfg = TrainConfig(
                    dims=ModelDims(**BENCH_A_DIMS), loss={"name": loss},
                    embedding={"mode": "random", "path": None, "m": 8, "seed": SEED},
                    epochs=EPOCHS, seed=SEED, literal_equations=literal, **BENCH_A_TRAIN)
                run = Path(tmp) / f"{path}_{loss}"
                full = train_on_datasets(cfg, train_ds, test_ds, run / "full")
                resumed = train_on_datasets(
                    cfg, train_ds, test_ds, run / "resumed",
                    resume_from=run / "full" / "checkpoint_epoch_000.cprc")
                digest = sha256(full.final_checkpoint)
                same = digest == sha256(resumed.final_checkpoint)
                all_resumed &= same
                print(f"{path:8s} {loss:5s} {digest[:16]}  "
                      f"resume from epoch 0: {'identical' if same else 'DIFFERS'}",
                      flush=True)
    return 0 if all_resumed else 1


if __name__ == "__main__":
    sys.exit(main())
