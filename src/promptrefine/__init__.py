"""Prompt-refined feature learning for long-tailed multi-label classification.

A small numpy-backed stack: a reverse-mode autodiff engine
(:mod:`promptrefine.autodiff`), a prompt-based classifier that initializes
per-class query prompts from semantic embeddings and refines them against
visual features through a transformer interaction
(:mod:`promptrefine.model`), the asymmetric loss with focal and BCE as
presets (:mod:`promptrefine.losses`), non-interpolated mAP evaluation
grouped by class frequency (:mod:`promptrefine.metrics`), the dataset
as two arrays (features and multi-hot labels) with a synthetic
long-tailed generator and binary file formats
(:mod:`promptrefine.data`), an Adam trainer with bitwise-reproducible
checkpoints (:mod:`promptrefine.training`), and one typed checker for
configs and checkpoint metadata (:mod:`promptrefine.schema`).  ``promptrefine.baseline``
holds the mean-pooled linear reference model, trained by the same epoch
loop, and ``promptrefine.cli`` the command line (``gen-data`` / ``train``
/ ``eval`` / ``gradcheck``).
"""

from . import autodiff
from .baseline import init_baseline, train_baseline
from .data import (
    GeneratorConfig,
    LongTailDataset,
    class_mean_embeddings,
    embedding_provider,
    generate_synthetic_lt,
    load_embeddings,
    load_features,
    save_embeddings,
    save_features,
    split_groups,
)
from .losses import ASLConfig, asl, bce, focal, get_loss
from .metrics import EvalReport, average_precision, map_report
from .model import ModelDims, ModelParams, forward_batch, init_model
from .training import (
    Adam,
    TrainConfig,
    TrainResult,
    evaluate,
    load_checkpoint,
    run_gradcheck,
    save_checkpoint,
    train,
    train_on_datasets,
)

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "init_baseline",
    "train_baseline",
    "GeneratorConfig",
    "LongTailDataset",
    "class_mean_embeddings",
    "embedding_provider",
    "generate_synthetic_lt",
    "load_embeddings",
    "load_features",
    "save_embeddings",
    "save_features",
    "split_groups",
    "ASLConfig",
    "asl",
    "bce",
    "focal",
    "get_loss",
    "EvalReport",
    "average_precision",
    "map_report",
    "ModelDims",
    "ModelParams",
    "forward_batch",
    "init_model",
    "Adam",
    "TrainConfig",
    "TrainResult",
    "evaluate",
    "load_checkpoint",
    "run_gradcheck",
    "save_checkpoint",
    "train",
    "train_on_datasets",
    "__version__",
]
