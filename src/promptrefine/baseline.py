"""Mean-pooled linear baseline.

The reference point for the prompt model: average the v feature tokens
into one d0-vector, apply a linear layer, squash with a sigmoid.  Pooling
first means evidence for a rare class that lives in a couple of tokens is
diluted by whatever else is in the sample before the classifier ever sees
it; the prompt model's attention can pick those tokens out per class.
Trained with the same optimizer, loss, and epoch budget as the main model
so comparisons isolate the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import LongTailDataset, split_groups
from .losses import get_loss
from .metrics import EvalReport, map_report
from .schema import spec_of
from .training import Adam, TrainConfig, check_test_split, run_epoch

__all__ = ["BaselineParams", "init_baseline", "baseline_forward_batch",
           "score_baseline", "train_baseline"]


@dataclass
class BaselineParams:
    w: Tensor   # (d0, c)
    b: Tensor   # (c,)

    def learnable(self) -> dict:
        return {"w": self.w, "b": self.b}


def init_baseline(d0: int, c: int, seed: int) -> BaselineParams:
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d0)
    return BaselineParams(
        w=ad.parameter(rng.uniform(-bound, bound, size=(d0, c))),
        b=ad.parameter(np.zeros(c)),
    )


def baseline_forward_batch(features, params: BaselineParams) -> Tensor:
    """Sigmoid scores (B, c) for a (B, v, d0) feature array, pooled by
    the mean over its v tokens."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3:
        raise ad.ShapeError(f"features must be (B, v, d0), got {features.shape}")
    pooled = features.mean(axis=1)
    logits = ad.add_rowvec(ad.matmul(ad.constant(pooled), params.w), params.b)
    return ad.sigmoid(logits)


def score_baseline(params: BaselineParams, dataset: LongTailDataset) -> np.ndarray:
    """Probability matrix (n, c), scored under ``no_grad``."""
    with ad.no_grad():
        return baseline_forward_batch(dataset.features, params).data


_TRAIN = spec_of(TrainConfig)


def train_baseline(train_ds: LongTailDataset, test_ds: LongTailDataset,
                   loss_name: str = "asl", loss_cfg: dict | None = None,
                   epochs: int = _TRAIN["epochs"].default,
                   batch_size: int = _TRAIN["batch_size"].default,
                   learning_rate: float = _TRAIN["learning_rate"].default,
                   weight_decay: float = _TRAIN["weight_decay"].default,
                   seed: int = _TRAIN["seed"].default) -> tuple[BaselineParams, EvalReport]:
    """Identical training protocol to the prompt model: Adam, the same loss
    family, the same epoch loop, and ``TrainConfig``'s defaults.  Returns
    the trained parameters and the final test report grouped by the
    training-set counts."""
    check_test_split(train_ds, test_ds)
    params = init_baseline(train_ds.features.shape[2], train_ds.c, seed)
    adam = Adam(params.learnable(), learning_rate, weight_decay)
    loss_fn = get_loss(loss_name, loss_cfg)
    groups = split_groups(train_ds.class_counts)

    for epoch in range(epochs):
        run_epoch(train_ds, seed, epoch, batch_size,
                  lambda batch: baseline_forward_batch(batch, params), loss_fn, adam)

    report = map_report(score_baseline(params, test_ds),
                        test_ds.labels_matrix(), groups)
    return params, report
