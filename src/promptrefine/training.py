"""Training loop, Adam optimizer, and checkpoint persistence.

Everything here is bitwise deterministic: ``run_epoch`` keys the shuffle
by (seed, epoch) (so a resumed run visits the exact batches the
uninterrupted run would), parameters and Adam moments are stored as
raw float64, and the checkpoint metadata is canonical JSON.  Running the
same config twice, or interrupting and resuming, reproduces the metric
history and the final checkpoint byte for byte.

A checkpoint ("CPRC") is a schema over ``data``'s one container: every
model tensor (the frozen embedding included) plus the Adam first/second
moments under "adam.m.<name>" / "adam.v.<name>", each a ``<f8`` array,
in sorted name order.  The container's metadata echoes the training
config, epoch, metric history, Adam scalars, class names,
head/medium/tail groups, the training class counts, and ``data_sha256``,
a fingerprint of the training features and labels that ``resume_from``
must match; ``CHECKPOINT_META`` is its spec.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from .data import (
    FileFormatError,
    LongTailDataset,
    embedding_provider,
    load_features,
    read_container,
    split_groups,
    write_container,
)
from .losses import LOSS, get_loss
from .metrics import GROUP_ORDER, EvalReport, map_report
from .model import (
    ModelDims,
    ModelParams,
    SemanticEmbedding,
    forward_batch,
    init_model,
    param_shapes,
)
from .schema import (
    Field,
    boolean,
    build,
    check_fields,
    integer,
    key,
    list_of,
    nested,
    non_negative,
    number,
    one_of,
    optional,
    positive,
    rule,
    section,
    string,
    tagged,
)

__all__ = [
    "TrainConfig",
    "Adam",
    "CheckpointMismatchError",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "rebuild_model",
    "TrainResult",
    "run_epoch",
    "check_test_split",
    "train_on_datasets",
    "train",
    "evaluate",
    "score_dataset",
    "GradcheckReport",
    "run_gradcheck",
]

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"CPRC"
CHECKPOINT_SCHEMA = {"*": ("<f8", None)}
EVAL_CHUNK = 256
GRADCHECK_MAX_ENTRIES = 20_000
GRADCHECK_BATCH = 2
GRADCHECK_SETTLE_STEPS = 400
GRADCHECK_SETTLE_LOSS = 0.2
GRADCHECK_TILT = 1e-5


class CheckpointMismatchError(ValueError):
    """Checkpoint contents disagree with what the caller expects."""


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

# The config's embedding section, its keys picked by mode.  A random
# embedding reads no file; a file embedding with no ``m`` takes the file's
# width.
EMBEDDING = tagged("mode", {
    "random": {"path": Field(rule("null", lambda x: x is None), None),
               "m": Field(integer(1), 16),
               "seed": Field(integer(0), 0)},
    "file": {"path": Field(string),
             "m": Field(optional(integer(1)), None),
             "seed": Field(integer(0), 0)},
})


@dataclass
class TrainConfig:
    """The training config.  Each field is a key of the config JSON, with
    its type, bounds and one default given here; ``loss`` is checked by
    ``losses.LOSS`` and ``embedding`` by ``EMBEDDING``, and both are stored
    with their defaults filled in.  Unknown keys are refused at every
    level, and each refusal is a ValueError naming the key path (see
    ``schema``)."""

    dims: ModelDims = key(nested(ModelDims))
    loss: dict = key(LOSS, {"name": "asl"})
    embedding: dict = key(EMBEDDING, {"mode": "random"})
    epochs: int = key(integer(1), 30)
    batch_size: int = key(integer(1), 32)
    learning_rate: float = key(positive, 5e-5)
    weight_decay: float = key(non_negative, 1e-4)
    seed: int = key(integer(0), 0)
    literal_equations: bool = key(boolean, False)

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return build(cls, d)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with decoupled-nothing, classic formulation: weight decay is
    added to the gradient (g <- g + wd * theta), moments are bias-corrected.
    Tensors that do not require grad are skipped entirely.  The moment
    decays and eps are the constants ``SCALARS``; a checkpoint stores them
    and a resume refuses other values."""

    SCALARS = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}

    def __init__(self, params: dict, learning_rate: float, weight_decay: float = 0.0):
        self.params = {name: p for name, p in params.items() if p.requires_grad}
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2, eps = self.SCALARS["beta1"], self.SCALARS["beta2"], self.SCALARS["eps"]
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad_or_zeros()
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    config: TrainConfig
    epoch: int
    history: list
    tensors: dict            # name -> float64 array (model + adam moments)
    adam: dict               # t, beta1, beta2, eps
    class_names: list
    groups: list
    class_counts: list
    data_sha256: str         # fingerprint of the training data, see _data_sha256


def _data_sha256(ds: LongTailDataset) -> str:
    """sha256 of the features (float64) and labels (uint8) bytes, in sample order."""
    h = hashlib.sha256(ds.features.tobytes())
    h.update(ds.labels.tobytes())
    return h.hexdigest()


def save_checkpoint(path, params: ModelParams, adam: Adam, cfg: TrainConfig,
                    epoch: int, history: list, groups: list,
                    class_counts, data_sha256: str) -> None:
    tensors = {name: p.data for name, p in params.all_tensors().items()}
    for name in adam.m:
        tensors[f"adam.m.{name}"] = adam.m[name]
        tensors[f"adam.v.{name}"] = adam.v[name]

    meta = {
        "config": cfg.to_dict(),
        "epoch": epoch,
        "history": history,
        "adam": {"t": adam.t, **Adam.SCALARS},
        "class_names": list(params.embedding.class_names),
        "groups": list(groups),
        "class_counts": [int(n) for n in class_counts],
        "data_sha256": data_sha256,
    }
    write_container(path, CHECKPOINT_MAGIC,
                    {name: np.asarray(tensors[name], dtype="<f8") for name in sorted(tensors)},
                    meta)


# The checkpoint's metadata.  The config echo is checked like a config
# file, under the path "config".
CHECKPOINT_META = section({
    "config": Field(nested(TrainConfig)),
    "epoch": Field(integer(0)),
    "history": Field(list_of(section({
        "epoch": Field(integer(0)),
        "train_loss": Field(number()),
        **{f"map_{g}": Field(optional(number())) for g in ("total", *GROUP_ORDER)},
    }))),
    "adam": Field(section({"t": Field(integer(0)), "beta1": Field(number()),
                           "beta2": Field(number()), "eps": Field(number())})),
    "class_names": Field(list_of(string)),
    "groups": Field(list_of(one_of(*GROUP_ORDER))),
    "class_counts": Field(list_of(integer(0))),
    "data_sha256": Field(rule("a 64-character hex digest", lambda s: type(s) is str
                              and len(s) == 64 and set(s) <= set("0123456789abcdef"))),
})


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed file raises ``FileFormatError``.
    The tensors are read-only views of the file's bytes."""
    tensors, meta = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA)
    try:
        meta = CHECKPOINT_META(meta, "")
        for key in ("groups", "class_counts"):
            if len(meta[key]) != len(meta["class_names"]):
                raise ValueError(f"{key} must have {len(meta['class_names'])} entries, "
                                 f"one per class name, got {meta[key]!r}")
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed checkpoint: {exc}") from exc
    return Checkpoint(tensors=tensors, **meta)


def rebuild_model(ckpt: Checkpoint) -> ModelParams:
    """Reconstruct runnable model parameters from a loaded checkpoint.  It
    must hold exactly the tensors ``save_checkpoint`` writes: ``embedding.W``,
    each ``model.param_shapes`` tensor at its shape, and that tensor's
    ``adam.m.``/``adam.v.`` moments at the same shape.  A missing, extra
    or misshapen tensor is a ``CheckpointMismatchError`` naming it."""
    cfg = ckpt.config
    if "embedding.W" not in ckpt.tensors:
        raise CheckpointMismatchError("checkpoint is missing embedding.W")
    embedding = SemanticEmbedding(W=ad.constant(ckpt.tensors["embedding.W"]),
                                  class_names=list(ckpt.class_names))
    table = param_shapes(cfg.dims, embedding)
    expected = {"embedding.W": ckpt.tensors["embedding.W"].shape}
    for name, (shape, _) in table.items():
        expected.update({name: shape, f"adam.m.{name}": shape, f"adam.v.{name}": shape})
    for name, shape in expected.items():
        if name not in ckpt.tensors:
            raise CheckpointMismatchError(f"checkpoint is missing tensor {name}")
        if ckpt.tensors[name].shape != shape:
            raise CheckpointMismatchError(
                f"tensor {name} has shape {ckpt.tensors[name].shape}, model expects {shape}")
    unknown = sorted(ckpt.tensors.keys() - expected.keys())
    if unknown:
        raise CheckpointMismatchError(f"checkpoint has unknown tensors {unknown}")
    tensors = {name: ad.parameter(ckpt.tensors[name].copy()) for name in table}
    return ModelParams(cfg.dims, embedding, tensors, cfg.literal_equations)


def _restore_adam(adam: Adam, ckpt: Checkpoint) -> None:
    """Load the step count and moments of a checkpoint that ``rebuild_model``
    has checked, after checking its Adam scalars."""
    for key, value in Adam.SCALARS.items():
        if ckpt.adam[key] != value:
            raise CheckpointMismatchError(
                f"checkpoint has adam.{key} = {ckpt.adam[key]!r}, Adam uses {value!r}")
    adam.t = ckpt.adam["t"]
    for name in adam.params:
        adam.m[name] = ckpt.tensors[f"adam.m.{name}"].copy()
        adam.v[name] = ckpt.tensors[f"adam.v.{name}"].copy()


# ---------------------------------------------------------------------------
# scoring / evaluation
# ---------------------------------------------------------------------------

def score_dataset(params: ModelParams, dataset: LongTailDataset,
                  chunk: int = EVAL_CHUNK) -> np.ndarray:
    """Probability matrix (n, c), scored under ``no_grad`` so no graph is
    kept.  Chunking is a memory bound only: any chunk size gives bitwise
    identical rows."""
    with ad.no_grad():
        rows = [forward_batch(dataset.features[start:start + chunk], params).data
                for start in range(0, len(dataset), chunk)]
    return np.concatenate(rows, axis=0)


def evaluate(checkpoint_path, data_path) -> EvalReport:
    """Score a feature file with a trained checkpoint and report mAP using
    the head/medium/tail grouping stored at training time."""
    ckpt = load_checkpoint(checkpoint_path)
    params = rebuild_model(ckpt)
    dataset = load_features(data_path)
    if dataset.class_names != ckpt.class_names:
        raise CheckpointMismatchError(
            f"{data_path}: class names differ from the checkpoint's")
    scores = score_dataset(params, dataset)
    return map_report(scores, dataset.labels_matrix(), ckpt.groups)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: ModelParams
    history: list
    final_report: EvalReport
    final_checkpoint: str


def run_epoch(train_ds: LongTailDataset, seed: int, epoch: int, batch_size: int,
              score, loss_fn, adam: Adam) -> float:
    """One pass over ``train_ds`` in the order keyed by (seed, epoch), one
    Adam step per batch; returns the mean training loss.  A batch is a
    fancy index into the dataset's arrays; ``score`` maps its (B, v, d0)
    features to the (B, c) score tensor."""
    order = np.random.default_rng([seed, epoch]).permutation(len(train_ds))
    total_loss = 0.0
    for b, start in enumerate(range(0, len(order), batch_size)):
        idx = order[start:start + batch_size]
        adam.zero_grad()
        loss = loss_fn(score(train_ds.features[idx]), train_ds.labels[idx])
        if not np.isfinite(loss.data).all():
            raise NonFiniteError(f"non-finite loss at epoch {epoch} batch {b}")
        ad.backward(loss)
        adam.step()
        total_loss += float(loss.data) * len(idx)
    return total_loss / len(order)


def check_test_split(train_ds: LongTailDataset, test_ds: LongTailDataset) -> None:
    """Refuse a test split that the model trained on ``train_ds`` cannot
    score: another class count, other class names, or another (v, d0)."""
    if test_ds.c != train_ds.c:
        raise ValueError(f"test split has {test_ds.c} classes, training split has {train_ds.c}")
    if test_ds.class_names != train_ds.class_names:
        raise ValueError("test split class names differ from the training split's")
    if test_ds.features.shape[1:] != train_ds.features.shape[1:]:
        raise ValueError(f"test split features are (v, d0) = {test_ds.features.shape[1:]}, "
                         f"training split's are {train_ds.features.shape[1:]}")


def train_on_datasets(cfg: TrainConfig, train_ds: LongTailDataset,
                      test_ds: LongTailDataset, out_dir,
                      resume_from=None) -> TrainResult:
    """Run the full training loop, evaluating on the test split and writing
    one checkpoint per epoch plus ``checkpoint_final.cprc``."""
    check_test_split(train_ds, test_ds)
    if cfg.dims.c != train_ds.c:
        raise ValueError(f"config has {cfg.dims.c} classes, data has {train_ds.c}")
    v, d0 = train_ds.features.shape[1:]
    if (v, d0) != (cfg.dims.v, cfg.dims.d0):
        raise ValueError(f"data features are {(v, d0)}, config dims expect "
                         f"{(cfg.dims.v, cfg.dims.d0)}")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    loss_fn = get_loss(cfg.loss["name"], cfg.loss)
    groups = split_groups(train_ds.class_counts)
    class_counts = train_ds.class_counts
    data_sha256 = _data_sha256(train_ds)

    embedding = embedding_provider(**cfg.embedding, c=train_ds.c,
                                   class_names=train_ds.class_names)
    params = init_model(cfg.dims, embedding, seed=cfg.seed,
                        literal_equations=cfg.literal_equations)
    adam = Adam(params.learnable(), cfg.learning_rate, cfg.weight_decay)

    history: list = []
    start_epoch = 0
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        if ckpt.config.to_dict() != cfg.to_dict():
            raise CheckpointMismatchError(
                f"{resume_from}: checkpoint was trained with a different config")
        if ckpt.data_sha256 != data_sha256:
            raise CheckpointMismatchError(
                f"{resume_from}: checkpoint was trained on different training data")
        params = rebuild_model(ckpt)
        adam = Adam(params.learnable(), cfg.learning_rate, cfg.weight_decay)
        _restore_adam(adam, ckpt)
        history = list(ckpt.history)
        start_epoch = ckpt.epoch + 1

    test_labels = test_ds.labels_matrix()
    report = None
    for epoch in range(start_epoch, cfg.epochs):
        train_loss = run_epoch(train_ds, cfg.seed, epoch, cfg.batch_size,
                               lambda batch: forward_batch(batch, params),
                               loss_fn, adam)
        report = map_report(score_dataset(params, test_ds), test_labels, groups)
        history.append({
            "epoch": epoch,
            "train_loss": train_loss,
            "map_total": report.map_total,
            "map_head": report.map_head,
            "map_medium": report.map_medium,
            "map_tail": report.map_tail,
        })
        log.info("epoch %d: loss %.5f, mAP %.4f", epoch,
                 history[-1]["train_loss"], report.map_total or float("nan"))
        save_checkpoint(out_dir / f"checkpoint_epoch_{epoch:03d}.cprc",
                        params, adam, cfg, epoch, history, groups, class_counts,
                        data_sha256)

    if report is None:   # resume_from already covered every epoch
        report = map_report(score_dataset(params, test_ds), test_labels, groups)
    final_path = out_dir / "checkpoint_final.cprc"
    save_checkpoint(final_path, params, adam, cfg, cfg.epochs - 1, history,
                    groups, class_counts, data_sha256)
    return TrainResult(params=params, history=history, final_report=report,
                       final_checkpoint=str(final_path))


def train(cfg: TrainConfig, data_dir, out_dir, resume_from=None) -> TrainResult:
    """File-based entry: expects ``train.cprf`` and ``test.cprf`` in data_dir."""
    data_dir = Path(data_dir)
    train_ds = load_features(data_dir / "train.cprf")
    test_ds = load_features(data_dir / "test.cprf")
    return train_on_datasets(cfg, train_ds, test_ds, out_dir, resume_from=resume_from)


# ---------------------------------------------------------------------------
# gradient checking entry
# ---------------------------------------------------------------------------

@dataclass
class GradcheckReport:
    max_rel_error: float
    worst_param: str
    n_entries: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def run_gradcheck(cfg: TrainConfig, eps: float = 1e-5,
                  tolerance: float = 1e-4) -> GradcheckReport:
    """Finite-difference check of the full model + configured loss.

    Builds the model from the config, draws a synthetic batch of
    ``GRADCHECK_BATCH`` samples, and compares every parameter entry's
    backward gradient against central differences.  Refuses configurations
    with more than ``GRADCHECK_MAX_ENTRIES`` scalar parameters — finite
    differences cost two forward passes per entry.

    Conditioning the probe matters.  Central differences at step ``eps``
    carry two error terms: subtraction noise of order
    ``machine_eps * |objective| / eps`` (dominates when the objective is
    large) and truncation of order ``eps**2`` times the third derivative
    (dominates at a deep minimum).  Neither can resolve an absolute
    difference much below ~1e-12, yet a relative tolerance with a 1e-8
    floor demands exactly that whenever some entry's true gradient happens
    to cancel to ~1e-9 — a probe-point accident, not a backward bug.  Two
    measures keep the check inside the instrument's resolution:

    * up to ``GRADCHECK_SETTLE_STEPS`` optimizer steps bring the probe
      batch's loss below ``GRADCHECK_SETTLE_LOSS``, shrinking the noise
      term;
    * the probed objective is the loss plus a fixed linear tilt
      ``sum_i t_i * theta_i`` with deterministic per-entry magnitudes in
      ``[GRADCHECK_TILT, 2 * GRADCHECK_TILT]``, each signed to match the
      analytic gradient so the two add in magnitude — every reference
      derivative is bounded away from zero by construction.  The tilt is
      exactly linear, so it adds no truncation error, and any
      backward-pass defect still shifts analytic-vs-numeric by its full
      size.
    """
    dims = cfg.dims
    rng = np.random.default_rng(cfg.seed)
    embedding = embedding_provider(**cfg.embedding, c=dims.c)
    params = init_model(dims, embedding, seed=cfg.seed,
                        literal_equations=cfg.literal_equations)

    learnable = params.learnable()
    n_entries = sum(p.data.size for p in learnable.values())
    if n_entries > GRADCHECK_MAX_ENTRIES:
        raise ValueError(
            f"model has {n_entries} parameters; gradcheck is capped at "
            f"{GRADCHECK_MAX_ENTRIES} (shrink dims for checking)")

    features = rng.standard_normal((GRADCHECK_BATCH, dims.v, dims.d0))
    labels = (rng.uniform(size=(GRADCHECK_BATCH, dims.c)) < 0.4).astype(np.uint8)
    for i in range(GRADCHECK_BATCH):
        if labels[i].sum() == 0:
            labels[i, int(rng.integers(dims.c))] = 1
    loss_fn = get_loss(cfg.loss["name"], cfg.loss)

    def bare() -> Tensor:
        return loss_fn(forward_batch(features, params), labels)

    adam = Adam(learnable, learning_rate=1e-2)
    for _ in range(GRADCHECK_SETTLE_STEPS):
        adam.zero_grad()
        loss = bare()
        if float(loss.data) < GRADCHECK_SETTLE_LOSS:
            break
        ad.backward(loss)
        adam.step()

    # Orient each tilt along the analytic gradient's sign so the two add in
    # magnitude on every entry; a fixed-sign tilt can incidentally cancel
    # against a loss-gradient entry of comparable size, which is exactly
    # the degeneracy the tilt exists to remove.
    adam.zero_grad()
    ad.backward(bare())
    tilt_rng = np.random.default_rng([cfg.seed, 7919])
    tilts = [np.where(p.grad_or_zeros() >= 0.0, 1.0, -1.0)
             * tilt_rng.uniform(GRADCHECK_TILT, 2.0 * GRADCHECK_TILT, size=p.data.shape)
             for p in learnable.values()]

    def f() -> Tensor:
        return ad.add(bare(), ad.inner_sum(learnable.values(), tilts))

    result = ad.grad_check(f, learnable, eps=eps)
    return GradcheckReport(max_rel_error=result.max_rel_error,
                           worst_param=result.worst_param,
                           n_entries=result.n_entries, tolerance=tolerance)
