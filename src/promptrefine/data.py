"""Synthetic long-tailed multi-label data and the binary file formats.

The generator builds a dataset whose *realized* per-class positive counts
equal a deterministic long-tailed schedule exactly:

1. counts  n_i = max(1, round(n_max * i^-(e + ramp*(i-1)))), rank i = 1..c
   (ramp defaults to 0, i.e. a plain power law; a small positive ramp
   steepens the tail so head/medium/tail splits can be tuned precisely);
2. a latent unit-Gaussian prototype vector per class (d0-dim);
3. each class's positives are split into primary samples and a
   co-occurrence quota placed on other classes' samples, drawn without
   replacement with probability proportional to a seeded class-affinity
   matrix — so label correlations exist but never disturb the counts;
4. each sample's v feature tokens take the prototype of one of its
   positive classes plus Gaussian noise, i.e. class evidence is spatially
   localized within the sample;
5. the test split is balanced: exactly test_per_class samples per class,
   one positive class each.

Feature values are generated straight onto the float32 grid used by the
file format, so save -> load round-trips are bit-exact.

Files are little-endian.  Feature file: magic "CPRF", u32 version=1,
u32 n_samples, u32 v, u32 d0, u32 c, c null-terminated UTF-8 class names,
then per sample v*d0 float32 followed by c label bytes in {0,1}.
Embedding file: magic "CPRE", u32 version=1, u32 c, u32 m, names, then
c*m float32.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .model import SemanticEmbedding

__all__ = [
    "FileFormatError",
    "FileVersionError",
    "FileTruncatedError",
    "EmbeddingMismatchError",
    "GeneratorConfig",
    "Sample",
    "LongTailDataset",
    "count_schedule",
    "split_groups",
    "generate_synthetic_lt",
    "save_features",
    "load_features",
    "save_embeddings",
    "load_embeddings",
    "embedding_provider",
    "class_mean_embeddings",
]

FEATURE_MAGIC = b"CPRF"
EMBEDDING_MAGIC = b"CPRE"
FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """File is not what its magic/structure claims."""


class FileVersionError(FileFormatError):
    """Recognized file with an unsupported version number."""


class FileTruncatedError(FileFormatError):
    """File ends before its header-implied payload does."""


class EmbeddingMismatchError(ValueError):
    """Embedding file disagrees with the dataset on classes or names."""


# ---------------------------------------------------------------------------
# dataset model
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One instance: (v, d0) feature tokens and a (c,) multi-hot label."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be a vector, got shape {self.labels.shape}")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be binary")
        if self.labels.sum() == 0:
            raise ValueError("every sample needs at least one positive label")


@dataclass
class LongTailDataset:
    """Samples plus class names; counts and groups are derived."""

    samples: list
    class_names: list

    def __post_init__(self):
        c = len(self.class_names)
        for s in self.samples:
            if s.labels.shape != (c,):
                raise ValueError(
                    f"sample has {s.labels.shape[0]} label slots for {c} classes")
        for name in self.class_names:
            if not name or "\x00" in name:
                raise ValueError(f"bad class name {name!r}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def c(self) -> int:
        return len(self.class_names)

    @property
    def class_counts(self) -> np.ndarray:
        """Positives per class, recomputed from the labels."""
        counts = np.zeros(self.c, dtype=np.int64)
        for s in self.samples:
            counts += s.labels
        return counts

    @property
    def groups(self) -> list:
        return split_groups(self.class_counts)

    def labels_matrix(self) -> np.ndarray:
        return np.stack([s.labels for s in self.samples]).astype(np.int64)


def split_groups(class_counts, head_min: int = 100, tail_max: int = 20) -> list:
    """Tag each class head/medium/tail by its training-positive count:
    count > head_min -> head, count < tail_max -> tail, otherwise medium."""
    if not head_min > tail_max >= 1:
        raise ValueError(f"need head_min > tail_max >= 1, got {head_min}, {tail_max}")
    out = []
    for n in np.asarray(class_counts):
        if n > head_min:
            out.append("head")
        elif n < tail_max:
            out.append("tail")
        else:
            out.append("medium")
    return out


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

@dataclass
class GeneratorConfig:
    c: int = 20
    v: int = 8
    d0: int = 16
    n_max: int = 775
    pareto_exponent: float = 1.35
    pareto_ramp: float = 0.0
    co_occurrence_strength: float = 0.0
    noise_sigma: float = 0.5
    test_per_class: int = 30
    seed: int = 0

    def __post_init__(self):
        for name in ("c", "v", "d0", "n_max", "test_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.pareto_exponent <= 0:
            raise ValueError("pareto_exponent must be positive")
        if self.pareto_ramp < 0:
            raise ValueError("pareto_ramp must be >= 0")
        if not 0.0 <= self.co_occurrence_strength <= 1.0:
            raise ValueError("co_occurrence_strength must be in [0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def count_schedule(cfg: GeneratorConfig) -> np.ndarray:
    """Target (= realized) per-class positive counts, nonincreasing."""
    counts = np.array([
        max(1, round(cfg.n_max * i ** -(cfg.pareto_exponent + cfg.pareto_ramp * (i - 1))))
        for i in range(1, cfg.c + 1)
    ], dtype=np.int64)
    assert (np.diff(counts) <= 0).all()
    return counts


def _snap_to_storage_grid(x: np.ndarray) -> np.ndarray:
    """Round onto the float32 grid the file format stores, keeping the
    in-memory dtype float64 so round trips are bit-exact."""
    return x.astype("<f4").astype(np.float64)


def generate_synthetic_lt(cfg: GeneratorConfig) -> tuple[LongTailDataset, LongTailDataset]:
    """Build (train, test) splits; fully determined by cfg (incl. seed)."""
    rng = np.random.default_rng(cfg.seed)
    counts = count_schedule(cfg)
    prototypes = rng.standard_normal((cfg.c, cfg.d0))
    affinity = rng.uniform(0.0, 1.0, size=(cfg.c, cfg.c))
    np.fill_diagonal(affinity, 0.0)

    # split each class's count into primary samples and a co-label quota
    if cfg.co_occurrence_strength > 0:
        quota = np.minimum(np.rint(cfg.co_occurrence_strength * counts).astype(np.int64),
                           counts - 1)
        quota = np.maximum(quota, 0)
    else:
        quota = np.zeros(cfg.c, dtype=np.int64)
    primaries = counts - quota

    primary_class = np.repeat(np.arange(cfg.c), primaries)
    n_train = primary_class.size
    labels = np.zeros((n_train, cfg.c), dtype=np.uint8)
    labels[np.arange(n_train), primary_class] = 1

    for j in range(cfg.c):
        if quota[j] == 0:
            continue
        room = labels.sum(axis=1) < cfg.v
        eligible = np.flatnonzero((primary_class != j) & (labels[:, j] == 0) & room)
        if eligible.size < quota[j]:
            raise ValueError(
                f"cannot place {quota[j]} co-occurrences of class {j}: only "
                f"{eligible.size} samples have room (v={cfg.v} labels per sample)")
        w = affinity[primary_class[eligible], j] + 1e-12
        chosen = rng.choice(eligible, size=int(quota[j]), replace=False, p=w / w.sum())
        labels[chosen, j] = 1

    train_samples = []
    for i in range(n_train):
        positives = np.flatnonzero(labels[i])
        order = rng.permutation(positives)
        feats = np.empty((cfg.v, cfg.d0))
        for slot in range(cfg.v):
            proto = prototypes[order[slot % order.size]]
            feats[slot] = proto + cfg.noise_sigma * rng.standard_normal(cfg.d0)
        train_samples.append(Sample(_snap_to_storage_grid(feats), labels[i]))

    test_samples = []
    for j in range(cfg.c):
        one_hot = np.zeros(cfg.c, dtype=np.uint8)
        one_hot[j] = 1
        for _ in range(cfg.test_per_class):
            feats = prototypes[j] + cfg.noise_sigma * rng.standard_normal((cfg.v, cfg.d0))
            test_samples.append(Sample(_snap_to_storage_grid(feats), one_hot.copy()))

    names = [f"class_{i:03d}" for i in range(cfg.c)]
    return (LongTailDataset(train_samples, names),
            LongTailDataset(test_samples, list(names)))


# ---------------------------------------------------------------------------
# binary file I/O
# ---------------------------------------------------------------------------

class _Reader:
    """Cursor over bytes that raises FileTruncatedError on short reads."""

    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FileTruncatedError(
                f"{self.path}: needed {n} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def name(self) -> str:
        end = self.blob.find(b"\x00", self.pos)
        if end < 0:
            raise FileTruncatedError(f"{self.path}: unterminated name at offset {self.pos}")
        raw = self.blob[self.pos:end]
        self.pos = end + 1
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{self.path}: class name is not UTF-8") from exc

    def done(self) -> None:
        if self.pos != len(self.blob):
            raise FileFormatError(
                f"{self.path}: {len(self.blob) - self.pos} trailing bytes after payload")


def _check_header(r: _Reader, magic: bytes, version: int = FORMAT_VERSION) -> None:
    got = r.take(4)
    if got != magic:
        raise FileFormatError(f"{r.path}: bad magic {got!r}, expected {magic!r}")
    found = r.u32()
    if found != version:
        raise FileVersionError(f"{r.path}: unsupported version {found}")


def _write_atomic(path, blob: bytes) -> None:
    """Write ``blob`` to a temp file in the target's directory, then
    ``os.replace`` it onto ``path``: a reader sees the old file or the new
    one, never part of one, and a failed write leaves no temp file behind.
    There is no fsync, so this does not guard against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _encode_names(names) -> bytes:
    out = bytearray()
    for n in names:
        if not n or "\x00" in n:
            raise ValueError(f"class name {n!r} cannot be stored")
        out += n.encode("utf-8") + b"\x00"
    return bytes(out)


def save_features(dataset: LongTailDataset, path) -> None:
    v, d0 = dataset.samples[0].features.shape
    blob = bytearray()
    blob += FEATURE_MAGIC
    blob += struct.pack("<IIIII", FORMAT_VERSION, len(dataset.samples), v, d0, dataset.c)
    blob += _encode_names(dataset.class_names)
    for s in dataset.samples:
        if s.features.shape != (v, d0):
            raise ValueError(f"inconsistent feature shape {s.features.shape}")
        blob += s.features.astype("<f4").tobytes()
        blob += s.labels.astype(np.uint8).tobytes()
    _write_atomic(path, bytes(blob))


def load_features(path) -> LongTailDataset:
    r = _Reader(Path(path).read_bytes(), str(path))
    _check_header(r, FEATURE_MAGIC)
    n_samples, v, d0, c = r.u32(), r.u32(), r.u32(), r.u32()
    names = [r.name() for _ in range(c)]
    samples = []
    for _ in range(n_samples):
        feats = np.frombuffer(r.take(4 * v * d0), dtype="<f4").astype(np.float64)
        labels = np.frombuffer(r.take(c), dtype=np.uint8).copy()
        if not np.isin(labels, (0, 1)).all():
            raise FileFormatError(f"{r.path}: label byte outside {{0, 1}}")
        try:
            samples.append(Sample(feats.reshape(v, d0), labels))
        except ValueError as exc:
            raise FileFormatError(f"{r.path}: {exc}") from exc
    r.done()
    return LongTailDataset(samples, names)


def save_embeddings(class_names, W: np.ndarray, path) -> None:
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != len(class_names):
        raise ValueError(f"embedding matrix {W.shape} does not match {len(class_names)} names")
    blob = bytearray()
    blob += EMBEDDING_MAGIC
    blob += struct.pack("<III", FORMAT_VERSION, W.shape[0], W.shape[1])
    blob += _encode_names(class_names)
    blob += W.astype("<f4").tobytes()
    _write_atomic(path, bytes(blob))


def load_embeddings(path) -> tuple[list, np.ndarray]:
    r = _Reader(Path(path).read_bytes(), str(path))
    _check_header(r, EMBEDDING_MAGIC)
    c, m = r.u32(), r.u32()
    names = [r.name() for _ in range(c)]
    W = np.frombuffer(r.take(4 * c * m), dtype="<f4").astype(np.float64).reshape(c, m)
    r.done()
    return names, W


def embedding_provider(mode: str, path=None, c: int | None = None,
                       m: int | None = None, seed: int = 0,
                       class_names=None) -> SemanticEmbedding:
    """Build the frozen semantic embedding.

    mode "random": seeded standard-normal (c, m) matrix.
    mode "file": load a CPRE file; class count and (when given) names must
    match the dataset or EmbeddingMismatchError is raised.
    """
    if mode == "random":
        if class_names is not None:
            c = len(class_names)
        if c is None or m is None:
            raise ValueError("random embeddings need c and m (or class_names and m)")
        W = np.random.default_rng(seed).standard_normal((c, m))
        names = list(class_names) if class_names is not None \
            else [f"class_{i:03d}" for i in range(c)]
        return SemanticEmbedding(W=ad.constant(W), class_names=names)
    if mode == "file":
        if path is None:
            raise ValueError("file embeddings need a path")
        names, W = load_embeddings(path)
        if c is not None and len(names) != c:
            raise EmbeddingMismatchError(
                f"{path}: file has {len(names)} classes, dataset has {c}")
        if m is not None and W.shape[1] != m:
            raise EmbeddingMismatchError(
                f"{path}: file embedding width {W.shape[1]}, expected {m}")
        if class_names is not None and list(class_names) != names:
            raise EmbeddingMismatchError(f"{path}: class names differ from dataset")
        return SemanticEmbedding(W=ad.constant(W), class_names=names)
    raise ValueError(f"unknown embedding mode {mode!r}; expected 'random' or 'file'")


def class_mean_embeddings(dataset: LongTailDataset) -> np.ndarray:
    """Per-class mean of the mean token of each positive sample — a cheap
    'informative' embedding derived from the data alone (c, d0)."""
    c = dataset.c
    d0 = dataset.samples[0].features.shape[1]
    sums = np.zeros((c, d0))
    n = np.zeros(c)
    for s in dataset.samples:
        token_mean = s.features.mean(axis=0)
        for j in np.flatnonzero(s.labels):
            sums[j] += token_mean
            n[j] += 1
    if (n == 0).any():
        raise ValueError(f"classes without positives: {np.flatnonzero(n == 0).tolist()}")
    return sums / n[:, None]
