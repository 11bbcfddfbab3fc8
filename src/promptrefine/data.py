"""Synthetic long-tailed multi-label data and the binary file formats.

A dataset (``LongTailDataset``) is two arrays: ``features`` (n, v, d0)
float64 and ``labels`` (n, c) uint8, checked once when it is built.
A batch is a fancy index into both, ``features[idx]`` and ``labels[idx]``.

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

All three file formats — features (.cprf), embeddings (.cpre) and
checkpoints (.cprc) — are one container (``write_container`` /
``read_container``): magic | u32 version=2 | u32 header_len | canonical
JSON header ``{"arrays": [[name, dtype, shape], ...], "meta": {...}}`` |
each array's little-endian bytes in header order, dtype one of ``<f8``,
``<f4``, ``|u1``.  A format is a schema over it: features are
``features (n, v, d0) <f4`` and ``labels (n, c) |u1``, embeddings are
``W (c, m) <f4``, both with ``meta.class_names``; checkpoints are
described in ``training``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .model import SemanticEmbedding
from .schema import (Field, check_fields, integer, key, list_of, non_negative, number, positive,
                     section, string)

__all__ = [
    "FileFormatError",
    "FileVersionError",
    "FileTruncatedError",
    "EmbeddingMismatchError",
    "GeneratorConfig",
    "LongTailDataset",
    "count_schedule",
    "split_groups",
    "generate_synthetic_lt",
    "save_features",
    "load_features",
    "save_embeddings",
    "load_embeddings",
    "write_container",
    "read_container",
    "embedding_provider",
    "class_mean_embeddings",
]

FEATURE_MAGIC = b"CPRF"
EMBEDDING_MAGIC = b"CPRE"
FORMAT_VERSION = 2
DTYPES = ("<f8", "<f4", "|u1")
FEATURE_SCHEMA = {"features": ("<f4", 3), "labels": ("|u1", 2)}
EMBEDDING_SCHEMA = {"W": ("<f4", 2)}


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

class LongTailDataset:
    """Two arrays plus class names: ``features`` (n, v, d0) float64 and
    ``labels`` (n, c) uint8, sample i being row i of each.  Both are
    checked once, here: features 3-d and finite, labels binary with c
    columns and at least one positive per row, n >= 1, and the class names
    non-empty and free of NUL.  Counts and groups are derived."""

    def __init__(self, features, labels, class_names):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        class_names = list(class_names)
        if features.ndim != 3:
            raise ValueError(f"features must be (n, v, d0), got shape {features.shape}")
        if labels.ndim != 2 or labels.shape[1] != len(class_names):
            raise ValueError(f"labels must be (n, {len(class_names)}) for "
                             f"{len(class_names)} classes, got shape {labels.shape}")
        if len(features) == 0:
            raise ValueError("dataset has no samples")
        if len(labels) != len(features):
            raise ValueError(f"{len(features)} feature rows, {len(labels)} label rows")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values")
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be binary")
        if not labels.any(axis=1).all():
            raise ValueError("every sample needs at least one positive label")
        for name in class_names:
            if not name or "\x00" in name:
                raise ValueError(f"bad class name {name!r}")
        self.features = features
        self.labels = labels.astype(np.uint8, copy=False)
        self.class_names = class_names

    def __len__(self) -> int:
        return len(self.features)

    @property
    def c(self) -> int:
        return len(self.class_names)

    @property
    def class_counts(self) -> np.ndarray:
        """Positives per class, recomputed from the labels."""
        return self.labels.sum(axis=0, dtype=np.int64)

    @property
    def groups(self) -> list:
        return split_groups(self.class_counts)

    def labels_matrix(self) -> np.ndarray:
        return self.labels.astype(np.int64)


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
    """The generator's knobs, checked by the config's checker (``schema``)."""

    c: int = key(integer(1), 20)
    v: int = key(integer(1), 8)
    d0: int = key(integer(1), 16)
    n_max: int = key(integer(1), 775)
    pareto_exponent: float = key(positive, 1.35)
    pareto_ramp: float = key(non_negative, 0.0)
    co_occurrence_strength: float = key(number("in [0, 1]", lambda x: 0.0 <= x <= 1.0), 0.0)
    noise_sigma: float = key(non_negative, 0.5)
    test_per_class: int = key(integer(1), 30)
    seed: int = key(integer(0), 0)

    def __post_init__(self):
        check_fields(self)


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

    features = np.empty((n_train, cfg.v, cfg.d0))
    for i in range(n_train):
        order = rng.permutation(np.flatnonzero(labels[i]))
        slots = order[np.arange(cfg.v) % order.size]
        noise = rng.standard_normal((cfg.v, cfg.d0))
        features[i] = prototypes[slots] + cfg.noise_sigma * noise

    tpc = cfg.test_per_class
    test_features = np.empty((cfg.c * tpc, cfg.v, cfg.d0))
    for j in range(cfg.c):
        test_features[j * tpc:(j + 1) * tpc] = \
            prototypes[j] + cfg.noise_sigma * rng.standard_normal((tpc, cfg.v, cfg.d0))
    test_labels = np.repeat(np.eye(cfg.c, dtype=np.uint8), tpc, axis=0)

    names = [f"class_{i:03d}" for i in range(cfg.c)]
    return (LongTailDataset(_snap_to_storage_grid(features), labels, names),
            LongTailDataset(_snap_to_storage_grid(test_features), test_labels, names))


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

    def done(self) -> None:
        if self.pos != len(self.blob):
            raise FileFormatError(
                f"{self.path}: {len(self.blob) - self.pos} trailing bytes after payload")


def _check_header(r: _Reader, magic: bytes) -> int:
    """Check the magic and the version; return the JSON header's length."""
    got = r.take(4)
    if got != magic:
        raise FileFormatError(f"{r.path}: bad magic {got!r}, expected {magic!r}")
    version, header_len = struct.unpack("<II", r.take(8))
    if version != FORMAT_VERSION:
        raise FileVersionError(f"{r.path}: unsupported version {version}")
    return header_len


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


def write_container(path, magic: bytes, arrays: dict, meta: dict) -> None:
    """Atomically write ``arrays`` (name -> array, in dict order) and the
    JSON-serializable ``meta``.  Refuses a dtype outside ``DTYPES`` and a
    non-finite float in an array or in ``meta``, which ``read_container``
    would refuse."""
    entries = []
    for name, a in arrays.items():
        if a.dtype.str not in DTYPES:
            raise ValueError(f"array {name!r} has dtype {a.dtype.str}, expected one of {DTYPES}")
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            raise ValueError(f"array {name!r} has non-finite values")
        entries.append([name, a.dtype.str, list(a.shape)])
    header = json.dumps({"arrays": entries, "meta": meta}, sort_keys=True,
                        separators=(",", ":"), allow_nan=False).encode("utf-8")
    _write_atomic(path, b"".join([magic, struct.pack("<II", FORMAT_VERSION, len(header)),
                                  header, *(a.tobytes() for a in arrays.values())]))


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def read_container(path, magic: bytes, schema: dict) -> tuple[dict, dict]:
    """Read a file written by ``write_container``: ``(arrays, meta)``, the
    arrays read-only views of the file's bytes, in file order.  ``schema``
    maps each required name to ``(dtype, ndim)``; key ``"*"`` admits any
    other name and ndim None any rank.  A malformed file — bad magic,
    version, JSON (a NaN or Infinity token too) or schema, an inexact byte
    count, a non-finite float — raises ``FileFormatError`` or a subclass."""
    r = _Reader(Path(path).read_bytes(), str(path))
    raw = r.take(_check_header(r, magic))
    try:
        header = json.loads(raw.decode("utf-8"), parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as exc:   # UnicodeDecodeError, JSONDecodeError
        raise FileFormatError(f"{r.path}: header is not UTF-8 JSON: {exc}") from exc
    if not (isinstance(header, dict) and sorted(header) == ["arrays", "meta"]
            and isinstance(header["arrays"], list) and isinstance(header["meta"], dict)):
        raise FileFormatError(f"{r.path}: header must be an object with an 'arrays' "
                              "list and a 'meta' object")
    arrays = {}
    for entry in header["arrays"]:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and isinstance(entry[2], list)
                and all(type(n) is int and n >= 0 for n in entry[2])):
            raise FileFormatError(f"{r.path}: bad array entry {entry!r}, "
                                  "expected [name, dtype, [dims >= 0]]")
        name, dtype, shape = entry
        rule = schema.get(name, schema.get("*"))
        if rule is None or name in arrays:
            raise FileFormatError(f"{r.path}: unexpected or repeated array {name!r}")
        if dtype != rule[0] or rule[1] not in (None, len(shape)):
            raise FileFormatError(f"{r.path}: array {name!r} is {dtype!r} of rank "
                                  f"{len(shape)}, expected {rule[0]!r} of rank {rule[1]}")
        # Python ints: the byte count of an oversize shape never wraps, so it
        # fails take()'s bound check against the bytes left.
        raw = r.take(np.dtype(dtype).itemsize * math.prod(shape))
        try:
            a = np.frombuffer(raw, dtype=dtype).reshape(shape)
        except ValueError as exc:   # a zero-size shape with dims numpy cannot hold
            raise FileFormatError(f"{r.path}: array {name!r} has shape {shape}: {exc}") from exc
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            raise FileFormatError(f"{r.path}: array {name!r} has non-finite values")
        arrays[name] = a
    r.done()
    missing = sorted(set(schema) - set(arrays) - {"*"})
    if missing:
        raise FileFormatError(f"{r.path}: missing arrays {missing}")
    return arrays, header["meta"]


# The metadata of a feature or embedding file: its class names, nothing else.
CLASS_NAMES_META = section({"class_names": Field(list_of(string))})


def _class_names(path, meta: dict, c: int) -> list:
    try:
        names = CLASS_NAMES_META(meta, "meta")["class_names"]
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if len(names) != c:
        raise FileFormatError(f"{path}: meta.class_names must be {c} strings, got {names!r}")
    return names


def save_features(dataset: LongTailDataset, path) -> None:
    write_container(path, FEATURE_MAGIC, {"features": dataset.features.astype("<f4"),
                                          "labels": dataset.labels},
                    {"class_names": list(dataset.class_names)})


def load_features(path) -> LongTailDataset:
    arrays, meta = read_container(path, FEATURE_MAGIC, FEATURE_SCHEMA)
    features, labels = arrays["features"], arrays["labels"]
    names = _class_names(path, meta, labels.shape[1])
    try:
        return LongTailDataset(features.astype(np.float64), labels.copy(), names)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_embeddings(class_names, W: np.ndarray, path) -> None:
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != len(class_names):
        raise ValueError(f"embedding matrix {W.shape} does not match {len(class_names)} names")
    write_container(path, EMBEDDING_MAGIC, {"W": W.astype("<f4")},
                    {"class_names": list(class_names)})


def load_embeddings(path) -> tuple[list, np.ndarray]:
    arrays, meta = read_container(path, EMBEDDING_MAGIC, EMBEDDING_SCHEMA)
    W = arrays["W"]
    return _class_names(path, meta, W.shape[0]), W.astype(np.float64)


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
    'informative' embedding derived from the data alone (c, d0).  The
    sums add in sample order (``np.add.at`` over the positive (sample,
    class) pairs), so the result does not depend on a BLAS."""
    n = dataset.class_counts
    if (n == 0).any():
        raise ValueError(f"classes without positives: {np.flatnonzero(n == 0).tolist()}")
    rows, cols = np.nonzero(dataset.labels)
    sums = np.zeros((dataset.c, dataset.features.shape[2]))
    np.add.at(sums, cols, dataset.features.mean(axis=1)[rows])
    return sums / n[:, None]
