"""Training loop, Adam optimizer, and checkpoint persistence.

Everything here is bitwise deterministic: ``run_epoch`` keys the shuffle
by (seed, epoch) (so a resumed run visits the exact batches the
uninterrupted run would), parameters and Adam moments are raw float64
(``Adam``'s three vectors), and the checkpoint metadata is canonical JSON.
Running the same config twice, or interrupting and resuming, reproduces the
metric history and the final checkpoint byte for byte on one machine: one CPU
kernel and one numpy/OpenBLAS build.  OpenBLAS picks its matmul kernels
by CPU, and other kernels (SkylakeX, Haswell, SandyBridge) round differently.

A checkpoint ("CPRC") is a schema over ``data``'s one container: every
model tensor (the frozen embedding included) plus the Adam first/second
moments under "adam.m.<name>" / "adam.v.<name>", each a ``<f8`` array,
in sorted name order.  The container's metadata echoes the training
config, epoch, metric history, Adam scalars, the training data's class
names, head/medium/tail groups, the training class counts, and
``data_sha256``, a fingerprint of the training features and labels;
``Checkpoint`` is its one declaration and its spec.  ``resume_from``
must match the fingerprint and the class names, as ``evaluate``'s
feature file must match the class names.  ``checkpoint_tensors`` names
its tensors and ``restore`` inverts it, so ``evaluate`` and a resumed run
build their model (the stored ``embedding.W`` as a constant tensor) and
Adam state from the checkpoint alone and refuse the same tensor sets and
Adam scalars; a resume reads no embedding file.
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
from .metrics import GROUP_ORDER, MAP_KEYS, EvalReport, map_report
from .model import (
    ModelDims,
    ModelParams,
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
    spec_of,
    string,
    tagged,
)

__all__ = [
    "TrainConfig",
    "Adam",
    "CheckpointMismatchError",
    "Checkpoint",
    "checkpoint_tensors",
    "save_checkpoint",
    "load_checkpoint",
    "restore",
    "TrainResult",
    "run_epoch",
    "check_test_split",
    "train_on_datasets",
    "train",
    "evaluate",
    "score_dataset",
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
GRADCHECK_FLOOR = 1e-5


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
    """Classic Adam: weight decay is added to the gradient (g <- g + wd * theta)
    and the moments are bias-corrected.  The optimizer owns the storage: the
    learnable entries, in ``params`` order, are one float64 vector ``theta``,
    each tensor's ``.data`` becomes a view into it at ``slices[name]``, and
    ``m[name]``/``v[name]`` are views into ``m_flat``/``v_flat`` there.  A
    second ``Adam`` over the same tensors takes that storage over, so a run
    builds one.  Frozen tensors are skipped, neither moved nor copied.  ``step``
    updates the three vectors whole; a non-finite gradient stops it before it
    changes any state.  The moment decays and eps are the constants
    ``SCALARS``; a checkpoint stores them and a resume refuses others."""

    SCALARS = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}

    def __init__(self, params: dict, learning_rate: float, weight_decay: float = 0.0):
        self.params = {name: p for name, p in params.items() if p.requires_grad}
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.t = 0
        self.theta = np.concatenate([p.data for p in self.params.values()], axis=None)
        self.m_flat, self.v_flat = np.zeros_like(self.theta), np.zeros_like(self.theta)
        self.slices, self.m, self.v, stop = {}, {}, {}, 0
        for name, p in self.params.items():
            s = self.slices[name] = slice(stop, stop := stop + p.data.size)
            p.data, self.m[name], self.v[name] = [a[s].reshape(p.shape) for a in
                                                  (self.theta, self.m_flat, self.v_flat)]

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        g = np.concatenate([p.grad_or_zeros() for p in self.params.values()], axis=None)
        if not (finite := np.isfinite(g)).all():
            bad = [name for name, s in self.slices.items() if not finite[s].all()]
            raise NonFiniteError(f"gradients are not finite: {bad}")
        self.t += 1
        b1, b2, eps = self.SCALARS["beta1"], self.SCALARS["beta2"], self.SCALARS["eps"]
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        if self.weight_decay:
            g = g + self.weight_decay * self.theta
        self.m_flat[:] = b1 * self.m_flat + (1.0 - b1) * g
        self.v_flat[:] = b2 * self.v_flat + (1.0 - b2) * g * g
        m_hat = self.m_flat / bc1
        v_hat = self.v_flat / bc2
        self.theta -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """``tensors`` (see ``checkpoint_tensors``) and one metadata key per other
    field, checked on construction as on load.  The config echo is checked
    like a config file; ``groups`` and ``class_counts`` follow ``class_names``."""

    config: TrainConfig = key(nested(TrainConfig))
    epoch: int = key(integer(0))
    history: list = key(list_of(section({
        "epoch": Field(integer(0)),
        "train_loss": Field(number()),
        **{name: Field(optional(number())) for name in MAP_KEYS},
    })))
    adam: dict = key(section({"t": Field(integer(0)), "beta1": Field(number()),
                              "beta2": Field(number()), "eps": Field(number())}))
    class_names: list = key(list_of(string))
    groups: list = key(list_of(one_of(*GROUP_ORDER)))
    class_counts: list = key(list_of(integer(0)))
    data_sha256: str = key(rule("a 64-character hex digest", lambda s: type(s) is str
                                and len(s) == 64 and set(s) <= set("0123456789abcdef")))
    tensors: dict

    def __post_init__(self):
        check_fields(self)
        for name in ("groups", "class_counts"):
            if len(getattr(self, name)) != len(self.class_names):
                raise ValueError(f"{name} must have {len(self.class_names)} entries, "
                                 f"one per class name, got {getattr(self, name)!r}")


def checkpoint_tensors(params: ModelParams, adam: Adam) -> dict:
    """The tensors a checkpoint of ``params`` and ``adam`` holds: every model
    tensor, the frozen embedding included, and each learnable tensor's moments,
    as views of the live arrays, most of them into ``adam``'s vectors."""
    tensors = {name: p.data for name, p in params.all_tensors().items()}
    for name in adam.m:
        tensors.update({f"adam.m.{name}": adam.m[name], f"adam.v.{name}": adam.v[name]})
    return tensors


def _data_sha256(ds: LongTailDataset) -> str:
    """sha256 of the features (float64) and labels (uint8) bytes, in sample order."""
    h = hashlib.sha256(ds.features.tobytes())
    h.update(ds.labels.tobytes())
    return h.hexdigest()


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write the tensors in sorted name order and the key fields as metadata,
    checking the fields again first: a checkpoint changed since it was built
    is refused before any file is written."""
    ckpt.__post_init__()
    meta = {name: getattr(ckpt, name) for name in spec_of(Checkpoint)}
    write_container(path, CHECKPOINT_MAGIC, {name: np.asarray(ckpt.tensors[name], dtype="<f8")
                                             for name in sorted(ckpt.tensors)},
                    {**meta, "config": ckpt.config.to_dict()})


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed file raises ``FileFormatError``.
    Each tensor is a read-only array over its own aligned copy of the
    file's bytes."""
    tensors, meta = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA)
    try:
        return build(Checkpoint, meta, tensors=tensors)
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed checkpoint: {exc}") from exc


def restore(ckpt: Checkpoint) -> tuple[ModelParams, Adam]:
    """The model and optimizer a loaded checkpoint holds: the inverse of
    ``checkpoint_tensors``.  The checkpoint must hold exactly the tensors that
    function names for a model of ``ckpt.config`` around its ``embedding.W``,
    each at its shape, a name per class, and ``Adam.SCALARS``; anything else is
    a ``CheckpointMismatchError`` naming it.  ``embedding.W`` stays the
    checkpoint's own read-only array; the rest is copied into ``Adam``'s vectors."""
    cfg = ckpt.config
    if "embedding.W" not in ckpt.tensors:
        raise CheckpointMismatchError("checkpoint is missing embedding.W")
    if len(ckpt.class_names) != cfg.dims.c:
        raise CheckpointMismatchError(f"{len(ckpt.class_names)} class names, dims.c = {cfg.dims.c}")
    embedding = ad.constant(ckpt.tensors["embedding.W"])
    params = ModelParams(cfg.dims, embedding,
                         {name: ad.parameter(np.zeros(shape)) for name, (shape, _)
                          in param_shapes(cfg.dims, embedding.shape[-1]).items()},
                         cfg.literal_equations)
    adam = Adam(params.learnable(), cfg.learning_rate, cfg.weight_decay)
    expected = checkpoint_tensors(params, adam)
    for name, a in expected.items():
        if name not in ckpt.tensors:
            raise CheckpointMismatchError(f"checkpoint is missing tensor {name}")
        if ckpt.tensors[name].shape != a.shape:
            raise CheckpointMismatchError(
                f"tensor {name} has shape {ckpt.tensors[name].shape}, model expects {a.shape}")
    unknown = sorted(ckpt.tensors.keys() - expected.keys())
    if unknown:
        raise CheckpointMismatchError(f"checkpoint has unknown tensors {unknown}")
    for key, value in Adam.SCALARS.items():
        if ckpt.adam[key] != value:
            raise CheckpointMismatchError(
                f"checkpoint has adam.{key} = {ckpt.adam[key]!r}, Adam uses {value!r}")
    for name, a in expected.items():
        if name != "embedding.W":
            a[...] = ckpt.tensors[name]
    adam.t = ckpt.adam["t"]
    return params, adam


# ---------------------------------------------------------------------------
# scoring / evaluation
# ---------------------------------------------------------------------------

def score_dataset(params: ModelParams, dataset: LongTailDataset) -> np.ndarray:
    """Probability matrix (n, c), scored under ``no_grad`` so no graph is
    kept, ``EVAL_CHUNK`` samples per forward.  Chunking is a memory bound
    only: any chunk size gives bitwise identical rows."""
    with ad.no_grad():
        rows = [forward_batch(dataset.features[start:start + EVAL_CHUNK], params).data
                for start in range(0, len(dataset), EVAL_CHUNK)]
    return np.concatenate(rows, axis=0)


def evaluate(checkpoint_path, data_path) -> EvalReport:
    """Score a feature file with a trained checkpoint and report mAP using
    the head/medium/tail grouping stored at training time."""
    ckpt = load_checkpoint(checkpoint_path)
    params, _ = restore(ckpt)
    dataset = load_features(data_path)
    if dataset.class_names != ckpt.class_names:
        raise CheckpointMismatchError(
            f"{data_path}: class names differ from the checkpoint's")
    return map_report(score_dataset(params, dataset), dataset.labels, ckpt.groups)


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
    features to the (B, c) score tensor.  A non-finite score, loss or
    gradient raises ``NonFiniteError`` naming the epoch and the batch."""
    order = np.random.default_rng([seed, epoch]).permutation(len(train_ds))
    total_loss = 0.0
    for b, start in enumerate(range(0, len(order), batch_size)):
        idx = order[start:start + batch_size]
        adam.zero_grad()
        try:
            loss = loss_fn(score(train_ds.features[idx]), train_ds.labels[idx])
            if not np.isfinite(loss.data).all():
                raise NonFiniteError("non-finite loss")
            ad.backward(loss)
            adam.step()
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} at epoch {epoch} batch {b}") from exc
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
    data_sha256 = _data_sha256(train_ds)

    if resume_from is None:
        embedding = embedding_provider(**cfg.embedding, c=train_ds.c,
                                       class_names=train_ds.class_names)
        params = init_model(cfg.dims, embedding, seed=cfg.seed,
                            literal_equations=cfg.literal_equations)
        adam = Adam(params.learnable(), cfg.learning_rate, cfg.weight_decay)
        history, start_epoch = [], 0
    else:
        ckpt = load_checkpoint(resume_from)
        if ckpt.config.to_dict() != cfg.to_dict():
            raise CheckpointMismatchError(
                f"{resume_from}: checkpoint was trained with a different config")
        if ckpt.data_sha256 != data_sha256:
            raise CheckpointMismatchError(
                f"{resume_from}: checkpoint was trained on different training data")
        if ckpt.class_names != train_ds.class_names:
            raise CheckpointMismatchError(
                f"{resume_from}: class names differ from the training data's")
        params, adam = restore(ckpt)
        history, start_epoch = list(ckpt.history), ckpt.epoch + 1

    def checkpoint(epoch: int) -> Checkpoint:
        return Checkpoint(
            config=cfg, epoch=epoch, history=history, adam={"t": adam.t, **Adam.SCALARS},
            class_names=train_ds.class_names, groups=groups,
            class_counts=train_ds.class_counts.tolist(), data_sha256=data_sha256,
            tensors=checkpoint_tensors(params, adam))

    report = None
    for epoch in range(start_epoch, cfg.epochs):
        train_loss = run_epoch(train_ds, cfg.seed, epoch, cfg.batch_size,
                               lambda batch: forward_batch(batch, params),
                               loss_fn, adam)
        report = map_report(score_dataset(params, test_ds), test_ds.labels, groups)
        history.append({"epoch": epoch, "train_loss": train_loss,
                        **{name: getattr(report, name) for name in MAP_KEYS}})
        log.info("epoch %d: loss %.5f, mAP %.4f", epoch,
                 history[-1]["train_loss"], report.map_total or float("nan"))
        save_checkpoint(out_dir / f"checkpoint_epoch_{epoch:03d}.cprc", checkpoint(epoch))

    if report is None:   # resume_from already covered every epoch
        report = map_report(score_dataset(params, test_ds), test_ds.labels, groups)
    final_path = out_dir / "checkpoint_final.cprc"
    save_checkpoint(final_path, checkpoint(cfg.epochs - 1))
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

def run_gradcheck(cfg: TrainConfig, eps: float = 1e-5) -> ad.GradCheckResult:
    """Finite-difference check of the full model + configured loss.

    Builds the model from the config, draws a synthetic batch of
    ``GRADCHECK_BATCH`` samples, and compares every parameter entry's
    backward gradient against central differences; the caller judges the
    result's ``max_rel_error`` against its own tolerance.  Refuses
    configurations with more than ``GRADCHECK_MAX_ENTRIES`` scalar
    parameters — finite differences cost two forward passes per entry.

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
    * each entry's error is divided by at least ``GRADCHECK_FLOOR``, so an
      entry whose gradient cancels to near zero is judged on an absolute
      difference the probes can resolve, while a backward defect on any
      entry of ordinary size still shows in full.
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

    return ad.grad_check(bare, learnable, eps=eps, floor=GRADCHECK_FLOOR)
