"""Byte-identity check of training, the dual-path gradient split, the
gradient check and the baseline: the lines a change that claims the same
behaviour must leave as they were.

Arithmetic: a sha256 prefix over a fixed probe of the kernels the other
lines depend on — a bench-A shaped feed-forward product ``x @ w``, its
weight-gradient product ``x.T @ g``, and scipy's ``erf`` and ``expit``.
OpenBLAS picks its matmul kernel by CPU, and the kernels round
differently, so two machines that print other ``arith`` digests print
other training, dual-path and baseline prefixes for the same code.

Training: each of six runs trains the prompt model on bench-A data
(``bench/workloads.py``: ``BENCH_A_GEN``, ``BENCH_A_DIMS``,
``BENCH_A_TRAIN``; generator seed 3) for 3 epochs at seed 3 with a random
embedding (m = 8, seed 3), once per loss (asl, bce, focal) on the standard
and on the literal path.  Each run is then resumed from its
``checkpoint_epoch_000.cprc`` in a fresh directory, and the resumed final
checkpoint is compared byte for byte with the uninterrupted one.

Dual path: ``model.dual_path_grads`` on the first 4 bench-A training
samples, for each loss on each path (24 calls; bench-A dims, model and
embedding seed 3), hashed over every returned array.

Gradient check: the output line of ``promptrefine gradcheck`` on the
benchmark's gradcheck config (``workloads.setup("gradcheck", 3, ...)``).

Baseline: ``baseline.train_baseline`` on the same bench-A data for
``BASELINE_EPOCHS`` at seed 3 with ``BENCH_A_TRAIN``, once per loss,
hashed over the learned ``w`` and ``b``.

Run from the repository root:

    python3 tools/checkpoint_hashes.py

It prints the ``arith`` line, one line per training run, then the
dual-path, gradcheck and baseline lines, and exits 1 if any resume
differs or the gradcheck fails.  The prefixes are a fingerprint of the
arithmetic on this platform: compare them between two versions of the
code on one machine, or on two machines whose ``arith`` lines agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy import special

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from promptrefine import cli  # noqa: E402
from promptrefine.baseline import train_baseline  # noqa: E402
from promptrefine.data import (GeneratorConfig, embedding_provider,  # noqa: E402
                               generate_synthetic_lt)
from promptrefine.losses import get_loss  # noqa: E402
from promptrefine.model import ModelDims, dual_path_grads, init_model  # noqa: E402
from promptrefine.training import TrainConfig, train_on_datasets  # noqa: E402
from workloads import (BASELINE_EPOCHS, BENCH_A_DIMS, BENCH_A_GEN,  # noqa: E402
                       BENCH_A_TRAIN, setup)

SEED = 3
EPOCHS = 3
LOSSES = ("asl", "bce", "focal")
DUAL_PATH_SAMPLES = 4


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def arith_digest() -> str:
    """sha256 over x @ w, x.T @ g, erf(x) and expit(x) at bench-A shapes:
    a batch's (B, c, d) prompt rows into the (d, ffn) feed-forward weight."""
    rng = np.random.default_rng(SEED)
    dims = ModelDims(**BENCH_A_DIMS)
    x = rng.standard_normal((BENCH_A_TRAIN["batch_size"], dims.c, dims.d))
    w = rng.standard_normal((dims.d, dims.ffn))
    g = rng.standard_normal(x.shape[:-1] + (dims.ffn,))
    h = hashlib.sha256()
    for a in (x @ w, x.reshape(-1, dims.d).T @ g.reshape(-1, dims.ffn),
              special.erf(x), special.expit(x)):
        h.update(a.tobytes())
    return h.hexdigest()


def dual_path_digest(train_ds) -> str:
    """sha256 over (g_total, g_direct, g_via) of every dual-path call."""
    h = hashlib.sha256()
    dims = ModelDims(**BENCH_A_DIMS)
    embedding = embedding_provider("random", c=dims.c, m=8, seed=SEED)
    for literal in (False, True):
        params = init_model(dims, embedding, seed=SEED, literal_equations=literal)
        for loss in LOSSES:
            loss_fn = get_loss(loss)
            for x, y in zip(train_ds.features[:DUAL_PATH_SAMPLES],
                            train_ds.labels[:DUAL_PATH_SAMPLES]):
                for g in dual_path_grads(x, y, params, loss_fn):
                    h.update(g.tobytes())
    return h.hexdigest()


def baseline_digest(train_ds, test_ds) -> str:
    """sha256 over the trained baseline's w and b, for each loss."""
    h = hashlib.sha256()
    for loss in LOSSES:
        params, _ = train_baseline(train_ds, test_ds, loss_name=loss, epochs=BASELINE_EPOCHS,
                                   seed=SEED, **BENCH_A_TRAIN)
        h.update(params.w.data.tobytes())
        h.update(params.b.data.tobytes())
    return h.hexdigest()


def gradcheck(tmp) -> tuple[int, str]:
    """Exit code and stdout of the CLI gradcheck on the benchmark's config."""
    inputs = Path(tmp) / "gradcheck"
    setup("gradcheck", SEED, inputs)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["gradcheck", "--config", str(inputs / "config.json")])
    return rc, out.getvalue().strip()


def main() -> int:
    print(f"arith {arith_digest()[:16]}", flush=True)
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
        print(f"dual_path_grads {dual_path_digest(train_ds)[:16]}  "
              f"({2 * len(LOSSES) * DUAL_PATH_SAMPLES} calls)", flush=True)
        rc, line = gradcheck(tmp)
        print(f"gradcheck {line}", flush=True)
    print(f"baseline {baseline_digest(train_ds, test_ds)[:16]}", flush=True)
    return 0 if all_resumed and rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
