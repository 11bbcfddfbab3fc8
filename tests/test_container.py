"""Tests for the one binary container behind the feature, embedding and
checkpoint files, and a seeded fuzz test over the three loaders."""

import json
import re

import numpy as np
import pytest

from promptrefine.data import (
    EMBEDDING_MAGIC,
    EMBEDDING_SCHEMA,
    FEATURE_MAGIC,
    FEATURE_SCHEMA,
    FileFormatError,
    FileTruncatedError,
    FileVersionError,
    GeneratorConfig,
    embedding_provider,
    generate_synthetic_lt,
    load_embeddings,
    load_features,
    read_container,
    save_embeddings,
    save_features,
    write_container,
)
from promptrefine.model import ModelDims, init_model
from promptrefine.training import (CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA, Adam, Checkpoint,
                                   TrainConfig, checkpoint_tensors, load_checkpoint,
                                   save_checkpoint)

MAGIC = b"TEST"
SCHEMA = {"a": ("<f8", 2), "b": ("<f4", 1), "c": ("|u1", None)}


def _arrays():
    return {"a": np.arange(6.0).reshape(2, 3),
            "b": np.array([1.5, -2.0], dtype="<f4"),
            "c": np.arange(24, dtype=np.uint8).reshape(2, 3, 4)}


def split(blob: bytes):
    """(magic + version bytes, parsed JSON header, array bytes)."""
    n = int.from_bytes(blob[8:12], "little")
    return blob[:8], json.loads(blob[12:12 + n]), blob[12 + n:]


def join(prefix: bytes, header, payload: bytes) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return prefix + len(raw).to_bytes(4, "little") + raw + payload


def write_features(path):
    train, _ = generate_synthetic_lt(GeneratorConfig(
        c=4, v=3, d0=5, n_max=12, seed=0, co_occurrence_strength=0.3, test_per_class=2))
    save_features(train, path)


def write_embeddings(path):
    save_embeddings(["a", "b", "c"], np.arange(12.0).reshape(3, 4) / 7.0, path)


def write_checkpoint(path):
    cfg = TrainConfig(dims=ModelDims(d0=5, d=8, v=4, c=3, heads=2, ffn=12, tau=0.5),
                      embedding={"mode": "random", "path": None, "m": 7, "seed": 0},
                      epochs=1)
    emb = embedding_provider("random", c=3, m=7, seed=0)
    params = init_model(cfg.dims, emb, seed=0)
    adam = Adam(params.learnable(), cfg.learning_rate)
    save_checkpoint(path, Checkpoint(
        config=cfg, epoch=0, history=[], adam={"t": adam.t, **Adam.SCALARS},
        class_names=["class_000", "class_001", "class_002"], groups=["head", "medium", "tail"],
        class_counts=[150, 50, 3], data_sha256="0" * 64, tensors=checkpoint_tensors(params, adam)))


FORMATS = {"features": (write_features, load_features),
           "embeddings": (write_embeddings, load_embeddings),
           "checkpoint": (write_checkpoint, load_checkpoint)}


@pytest.fixture(params=sorted(FORMATS))
def valid_file(request, tmp_path):
    """(path, loader, valid bytes) for one of the three formats."""
    write, load = FORMATS[request.param]
    path = tmp_path / f"valid.{request.param}"
    write(path)
    return path, load, path.read_bytes()


class TestContainer:
    def test_round_trip_and_layout(self, tmp_path):
        p = tmp_path / "x.bin"
        write_container(p, MAGIC, _arrays(), {"k": [1, "two"]})
        arrays, meta = read_container(p, MAGIC, SCHEMA)
        assert meta == {"k": [1, "two"]}
        assert list(arrays) == ["a", "b", "c"]
        for name, a in _arrays().items():
            assert arrays[name].dtype == a.dtype and arrays[name].tobytes() == a.tobytes()
        prefix, header, payload = split(p.read_bytes())
        assert prefix == MAGIC + (2).to_bytes(4, "little")
        assert header["arrays"] == [["a", "<f8", [2, 3]], ["b", "<f4", [2]],
                                    ["c", "|u1", [2, 3, 4]]]
        assert payload == b"".join(a.tobytes() for a in _arrays().values())
        # Each array owns an aligned copy of its bytes, whatever offset the
        # header length leaves it at in the file.
        for write, magic, schema in ((write_features, FEATURE_MAGIC, FEATURE_SCHEMA),
                                     (write_embeddings, EMBEDDING_MAGIC, EMBEDDING_SCHEMA),
                                     (write_checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA)):
            write(p)
            arrays, _ = read_container(p, magic, schema)
            for name, a in arrays.items():
                assert a.flags.aligned and not a.flags.writeable, (write.__name__, name)

    def test_writer_refuses_other_dtypes_and_non_finite(self, tmp_path):
        p = tmp_path / "x.bin"
        with pytest.raises(ValueError, match="dtype <i8"):
            write_container(p, MAGIC, {"a": np.arange(3)}, {})
        with pytest.raises(ValueError, match="'a' has non-finite"):
            write_container(p, MAGIC, {"a": np.array([0.0, np.inf])}, {})
        assert not p.exists()

    def test_writer_refuses_non_finite_meta(self, tmp_path):
        p = tmp_path / "x.bin"
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="not JSON compliant"):
                write_container(p, MAGIC, _arrays(), {"k": [1.0, bad]})
        assert not p.exists()

    def test_embeddings_save_load_save_identical_bytes(self, tmp_path):
        write_embeddings(tmp_path / "a.cpre")
        save_embeddings(*load_embeddings(tmp_path / "a.cpre"), tmp_path / "b.cpre")
        assert (tmp_path / "a.cpre").read_bytes() == (tmp_path / "b.cpre").read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["arrays"][0].__setitem__(1, "<f4"), "'a' is '<f4' of rank 2, expected '<f8' of rank 2"),
        (lambda h: h["arrays"][0].__setitem__(1, "<i8"), "'a' is '<i8' of rank 2, expected '<f8' of rank 2"),
        (lambda h: h["arrays"][0].__setitem__(2, [6]), "'a' is '<f8' of rank 1, expected '<f8' of rank 2"),
        (lambda h: h["arrays"][1].__setitem__(0, "z"), "unexpected or repeated array 'z'"),
        (lambda h: h["arrays"][1].__setitem__(0, "a"), "unexpected or repeated array 'a'"),
        (lambda h: h["arrays"][0].__setitem__(2, [2, -3]), "bad array entry"),
        (lambda h: h["arrays"][0].__setitem__(2, [2, 3.0]), "bad array entry"),
        (lambda h: h["arrays"][0].pop(), "bad array entry"),
        (lambda h: h.pop("meta"), "'arrays' list and a 'meta' object"),
        (lambda h: h.__setitem__("extra", 1), "'arrays' list and a 'meta' object"),
    ], ids=["dtype", "dtype-outside-set", "rank", "unknown-name", "duplicate-name",
            "negative-dim", "float-dim", "short-entry", "no-meta", "extra-key"])
    def test_header_checked_against_schema(self, tmp_path, edit, message):
        p = tmp_path / "x.bin"
        write_container(p, MAGIC, _arrays(), {})
        prefix, header, payload = split(p.read_bytes())
        edit(header)
        p.write_bytes(join(prefix, header, payload))
        with pytest.raises(FileFormatError, match=re.escape(str(p))) as info:
            read_container(p, MAGIC, SCHEMA)
        assert message in str(info.value)

    def test_missing_array(self, tmp_path):
        p = tmp_path / "x.bin"
        write_container(p, MAGIC, {k: v for k, v in _arrays().items() if k != "b"}, {})
        with pytest.raises(FileFormatError, match=r"missing arrays \['b'\]"):
            read_container(p, MAGIC, SCHEMA)

    def test_header_not_json(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(MAGIC + (2).to_bytes(4, "little") + (6).to_bytes(4, "little") + b"{nope}")
        with pytest.raises(FileFormatError, match="header is not UTF-8 JSON"):
            read_container(p, MAGIC, SCHEMA)


class TestLoaders:
    def test_version_1_is_refused(self, valid_file):
        path, load, blob = valid_file
        path.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])
        with pytest.raises(FileVersionError, match="unsupported version 1"):
            load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payload_names_the_array(self, valid_file, bad):
        path, load, blob = valid_file
        prefix, header, payload = split(blob)
        name, dtype, _ = header["arrays"][0]
        value = np.array([bad], dtype=dtype).tobytes()
        path.write_bytes(join(prefix, header, value + payload[len(value):]))
        with pytest.raises(FileFormatError, match=f"array '{name}' has non-finite values"):
            load(path)

    def test_non_finite_meta_token_is_refused(self, valid_file):
        """A NaN or Infinity token anywhere in the header is refused, even
        under a meta key the format's loader does not read."""
        path, load, blob = valid_file
        prefix, header, payload = split(blob)
        meta = header["meta"]
        if "adam" in meta:
            meta["adam"]["beta1"] = float("nan")
            meta["config"]["learning_rate"] = float("inf")
        else:
            meta["scale"] = float("nan")
        path.write_bytes(join(prefix, header, payload))
        with pytest.raises(FileFormatError, match=re.escape(str(path))) as info:
            load(path)
        assert "NaN is not a JSON number" in str(info.value)

    def test_class_names_must_match_the_arrays(self, tmp_path):
        for write, load in (FORMATS["features"], FORMATS["embeddings"]):
            p = tmp_path / "x.bin"
            write(p)
            prefix, header, payload = split(p.read_bytes())
            header["meta"]["class_names"] = header["meta"]["class_names"][:-1]
            p.write_bytes(join(prefix, header, payload))
            with pytest.raises(FileFormatError, match="meta.class_names must be"):
                load(p)

    @pytest.mark.parametrize("fmt", ["features", "embeddings"])
    def test_unknown_meta_key_is_refused(self, tmp_path, fmt):
        write, load = FORMATS[fmt]
        p = tmp_path / "x.bin"
        write(p)
        prefix, header, payload = split(p.read_bytes())
        header["meta"]["scale"] = 1.0
        p.write_bytes(join(prefix, header, payload))
        with pytest.raises(FileFormatError, match=re.escape(str(p))) as info:
            load(p)
        assert "meta.scale" in str(info.value)

    def test_feature_and_label_rows_must_agree(self, tmp_path):
        p = tmp_path / "x.cprf"
        write_features(p)
        prefix, header, payload = split(p.read_bytes())
        (_, _, (n, v, d0)), (_, _, (_, c)) = header["arrays"]
        # one sample's feature bytes move to the labels, so the byte count stays exact
        assert v * d0 * 4 % c == 0
        header["arrays"][0][2][0] = n - 1
        header["arrays"][1][2][0] = n + v * d0 * 4 // c
        p.write_bytes(join(prefix, header, payload))
        with pytest.raises(FileFormatError, match=f"{n - 1} feature rows, "
                                                  f"{n + v * d0 * 4 // c} label rows"):
            load_features(p)


class TestLoaderFuzz:
    """Seeded damage to a valid file of each format: each loader either
    loads it or raises FileFormatError, never any other exception."""

    TRIALS = 300

    def test_truncation_is_refused(self, valid_file):
        path, load, blob = valid_file
        rng = np.random.default_rng(0)
        for cut in sorted(set(rng.integers(0, len(blob), size=60).tolist())):
            path.write_bytes(blob[:cut])
            with pytest.raises(FileFormatError):
                load(path)

    def test_bit_flips_raise_only_format_errors(self, valid_file):
        path, load, blob = valid_file
        rng = np.random.default_rng(1)
        header_end = 12 + int.from_bytes(blob[8:12], "little")
        for trial in range(self.TRIALS):
            # half the flips land in the magic, sizes and JSON header
            end = header_end if trial % 2 else len(blob)
            damaged = bytearray(blob)
            for _ in range(int(rng.integers(1, 4))):
                damaged[int(rng.integers(0, end))] ^= 1 << int(rng.integers(0, 8))
            path.write_bytes(bytes(damaged))
            try:
                load(path)
            except FileFormatError:
                pass

    @pytest.mark.parametrize("header_len", [lambda n: n, lambda n: 2**32 - 1],
                             ids=["file-length", "u32-max"])
    def test_oversize_header_len(self, valid_file, header_len):
        path, load, blob = valid_file
        path.write_bytes(blob[:8] + header_len(len(blob)).to_bytes(4, "little") + blob[12:])
        with pytest.raises(FileTruncatedError, match="needed"):
            load(path)

    @pytest.mark.parametrize("dims, message", [
        (lambda rank: [2**40] * rank, "needed"),
        (lambda rank: [0] + [2**64] * max(rank - 1, 1), "has shape"),
    ], ids=["huge", "zero-size-huge"])
    def test_oversize_shape(self, valid_file, dims, message):
        path, load, blob = valid_file
        prefix, header, payload = split(blob)
        entry = header["arrays"][0]
        entry[2] = dims(len(entry[2]))
        path.write_bytes(join(prefix, header, payload))
        with pytest.raises(FileFormatError, match=message):
            load(path)
