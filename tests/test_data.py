"""Tests for the synthetic long-tail generator and binary file I/O."""

import json
import re

import numpy as np
import pytest

from promptrefine.data import (
    EmbeddingMismatchError,
    FileFormatError,
    FileTruncatedError,
    FileVersionError,
    GeneratorConfig,
    LongTailDataset,
    class_mean_embeddings,
    count_schedule,
    embedding_provider,
    generate_synthetic_lt,
    load_embeddings,
    load_features,
    save_embeddings,
    save_features,
    split_groups,
)


def schedule_oracle(n_max, exponent, ramp, c):
    """Independent recount of the long-tail schedule, plain python."""
    out = []
    for i in range(1, c + 1):
        power = exponent + ramp * (i - 1)
        out.append(max(1, round(n_max * i ** -power)))
    return out


class TestCountSchedule:
    def test_matches_oracle_on_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cfg = GeneratorConfig(
                c=int(rng.integers(1, 40)),
                n_max=int(rng.integers(1, 2000)),
                pareto_exponent=float(rng.uniform(0.2, 3.0)),
                pareto_ramp=float(rng.uniform(0.0, 0.1)),
            )
            expected = schedule_oracle(cfg.n_max, cfg.pareto_exponent,
                                       cfg.pareto_ramp, cfg.c)
            assert count_schedule(cfg).tolist() == expected

    def test_plain_power_law_examples(self):
        cfg = GeneratorConfig(c=5, n_max=1000, pareto_exponent=1.0)
        assert count_schedule(cfg).tolist() == [1000, 500, 333, 250, 200]

    def test_floor_at_one(self):
        cfg = GeneratorConfig(c=10, n_max=5, pareto_exponent=2.0)
        counts = count_schedule(cfg)
        assert counts.min() == 1
        assert (np.diff(counts) <= 0).all()

    def test_tuned_benchmark_schedule(self):
        # The 20-class benchmark configuration: counts span [4, 775] and
        # split 6 head / 6 medium / 8 tail under the >100 / <20 boundaries.
        cfg = GeneratorConfig(c=20, n_max=775,
                              pareto_exponent=0.89, pareto_ramp=0.047)
        counts = count_schedule(cfg)
        assert counts.tolist() == [775, 405, 263, 186, 137, 103, 79, 61, 48, 38,
                                   30, 23, 19, 15, 12, 9, 7, 6, 5, 4]
        groups = split_groups(counts)
        assert groups.count("head") == 6
        assert groups.count("medium") == 6
        assert groups.count("tail") == 8
        assert counts[0] == 775 and counts[-1] == 4


class TestSplitGroups:
    def test_boundaries(self):
        assert split_groups([101]) == ["head"]
        assert split_groups([100]) == ["medium"]
        assert split_groups([20]) == ["medium"]
        assert split_groups([19]) == ["tail"]


class TestGenerator:
    def test_realized_counts_equal_schedule_exactly(self):
        cfg = GeneratorConfig(c=12, v=6, d0=8, n_max=120,
                              pareto_exponent=1.1, co_occurrence_strength=0.4,
                              noise_sigma=0.6, seed=3)
        train, _ = generate_synthetic_lt(cfg)
        assert train.class_counts.tolist() == count_schedule(cfg).tolist()

    def test_zero_cooccurrence_gives_single_label_rows(self):
        cfg = GeneratorConfig(c=6, v=4, d0=5, n_max=40, seed=1,
                              co_occurrence_strength=0.0)
        train, _ = generate_synthetic_lt(cfg)
        assert (train.labels.sum(axis=1) == 1).all()

    def test_cooccurrence_produces_multilabel_rows(self):
        cfg = GeneratorConfig(c=6, v=4, d0=5, n_max=60, seed=1,
                              co_occurrence_strength=0.5)
        train, _ = generate_synthetic_lt(cfg)
        row_sums = train.labels.sum(axis=1)
        assert (row_sums > 1).any()
        assert (row_sums <= cfg.v).all()
        assert train.class_counts.tolist() == count_schedule(cfg).tolist()

    def test_deterministic_given_seed(self):
        cfg = GeneratorConfig(c=5, v=4, d0=6, n_max=30, seed=11,
                              co_occurrence_strength=0.3, noise_sigma=0.4)
        a_train, a_test = generate_synthetic_lt(cfg)
        b_train, b_test = generate_synthetic_lt(cfg)
        for a, b in ((a_train, b_train), (a_test, b_test)):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seeds_differ(self):
        cfg_a = GeneratorConfig(c=5, v=4, d0=6, n_max=30, seed=0)
        cfg_b = GeneratorConfig(c=5, v=4, d0=6, n_max=30, seed=1)
        a, _ = generate_synthetic_lt(cfg_a)
        b, _ = generate_synthetic_lt(cfg_b)
        assert not np.array_equal(a.features, b.features)

    def test_balanced_test_split(self):
        cfg = GeneratorConfig(c=7, v=4, d0=5, n_max=50, seed=2, test_per_class=9)
        _, test = generate_synthetic_lt(cfg)
        assert len(test) == 7 * 9
        lm = test.labels
        assert (lm.sum(axis=1) == 1).all()
        assert lm.sum(axis=0).tolist() == [9] * 7

    def test_noise_zero_tokens_sit_on_prototypes(self):
        cfg = GeneratorConfig(c=4, v=3, d0=5, n_max=20, seed=5, noise_sigma=0.0)
        train, _ = generate_synthetic_lt(cfg)
        # every token of a single-label sample equals its class prototype
        protos = np.random.default_rng(cfg.seed).standard_normal((cfg.c, cfg.d0))
        protos32 = protos.astype("<f4").astype(np.float64)
        for features, labels in zip(train.features, train.labels):
            j = int(np.flatnonzero(labels)[0])
            np.testing.assert_array_equal(features, np.tile(protos32[j], (cfg.v, 1)))

    def test_impossible_cooccurrence_is_reported(self):
        # v=1 leaves no room for any second label
        cfg = GeneratorConfig(c=4, v=1, d0=3, n_max=50, seed=0,
                              co_occurrence_strength=0.9)
        with pytest.raises(ValueError, match="co-occurrence"):
            generate_synthetic_lt(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(c=0)
        with pytest.raises(ValueError):
            GeneratorConfig(pareto_exponent=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(co_occurrence_strength=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            GeneratorConfig(pareto_ramp=-0.01)


def dataset_args(n=3, v=2, d0=3, c=4):
    """Valid (features, labels, class_names) for LongTailDataset."""
    labels = np.zeros((n, c), dtype=np.uint8)
    labels[np.arange(n), np.arange(n) % c] = 1
    return np.zeros((n, v, d0)), labels, [f"k{j}" for j in range(c)]


def write_features_file(path, features, labels, class_names):
    """A CPRF container built byte by byte, not through save_features, so
    it can hold what the writer refuses (NaN, other ranks)."""
    arrays = {"features": np.asarray(features, dtype="<f4"),
              "labels": np.asarray(labels).astype("|u1")}
    header = json.dumps({"arrays": [[k, a.dtype.str, list(a.shape)] for k, a in arrays.items()],
                         "meta": {"class_names": class_names}}).encode("utf-8")
    path.write_bytes(b"CPRF" + (2).to_bytes(4, "little") + len(header).to_bytes(4, "little")
                     + header + b"".join(a.tobytes() for a in arrays.values()))


def _malformed_datasets():
    """(id, features, labels, class_names, message, load_features message).
    The container reader refuses some cases before the dataset sees them,
    with its own message."""
    features, labels, names = dataset_args()
    nan = features.copy()
    nan[1, 0, 2] = np.nan
    two = labels.copy()
    two[0, 1] = 2
    empty_row = labels.copy()
    empty_row[2] = 0
    return [
        ("empty-labels", features, empty_row, names, "at least one positive", None),
        ("nonbinary-labels", features, two, names, "labels must be binary", None),
        ("nonfinite-features", nan, labels, names, "features contain non-finite values",
         "array 'features' has non-finite values"),
        ("row-mismatch", features[:2], labels, names, "2 feature rows, 3 label rows", None),
        ("features-rank-2", features[0], labels, names, "features must be (n, v, d0)",
         "array 'features' is '<f4' of rank 2"),
        ("labels-rank-1", features, labels[0], names, "labels must be (n, 4)",
         "array 'labels' is '|u1' of rank 1"),
        ("label-width", features, labels[:, :3], names, "labels must be (n, 4)",
         "meta.class_names must be 3 strings"),
        ("no-samples", features[:0], labels[:0], names, "dataset has no samples", None),
        ("nul-class-name", features, labels, ["k0", "k\x001", "k2", "k3"],
         "bad class name", None),
    ]


MALFORMED = _malformed_datasets()


class TestDatasetValidation:
    def test_holds_two_arrays(self):
        features, labels, names = dataset_args()
        ds = LongTailDataset(features, labels.astype(np.int64), names)
        assert ds.features.dtype == np.float64 and ds.features.shape == (3, 2, 3)
        assert ds.labels.dtype == np.uint8 and ds.labels.tobytes() == labels.tobytes()
        assert len(ds) == 3 and ds.c == 4
        assert ds.class_counts.tolist() == [1, 1, 1, 0]

    def test_rejects_empty_labels(self):
        features, labels, names = dataset_args()
        labels[1] = 0
        with pytest.raises(ValueError, match="at least one positive"):
            LongTailDataset(features, labels, names)

    def test_rejects_nonbinary_labels(self):
        features, labels, names = dataset_args()
        for bad in (labels * 2, labels + 0.5, labels - 1):
            with pytest.raises(ValueError, match="binary"):
                LongTailDataset(features, bad, names)

    def test_rejects_nonfinite_features(self):
        features, labels, names = dataset_args()
        for bad in (np.nan, np.inf):
            features[0, 0, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                LongTailDataset(features, labels, names)

    @pytest.mark.parametrize("case", MALFORMED, ids=[c[0] for c in MALFORMED])
    def test_rejects_malformed_arrays(self, case):
        _, features, labels, names, message, _ = case
        with pytest.raises(ValueError, match=re.escape(message)):
            LongTailDataset(features, labels, names)

    @pytest.mark.parametrize("case", MALFORMED, ids=[c[0] for c in MALFORMED])
    def test_load_features_refuses_with_a_format_error(self, tmp_path, case):
        _, features, labels, names, message, file_message = case
        p = tmp_path / "bad.cprf"
        write_features_file(p, features, labels, names)
        with pytest.raises(FileFormatError, match=re.escape(str(p))) as info:
            load_features(p)
        assert (file_message or message) in str(info.value)


class TestFeatureFileRoundTrip:
    def _dataset(self, seed=0):
        cfg = GeneratorConfig(c=5, v=4, d0=6, n_max=25, seed=seed,
                              co_occurrence_strength=0.3, noise_sigma=0.7)
        train, _ = generate_synthetic_lt(cfg)
        return train

    def test_bit_exact_round_trip(self, tmp_path):
        ds = self._dataset()
        p = tmp_path / "train.cprf"
        save_features(ds, p)
        back = load_features(p)
        assert back.class_names == ds.class_names
        assert len(back) == len(ds)
        assert ds.features.tobytes() == back.features.tobytes()
        assert ds.labels.tobytes() == back.labels.tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        ds = self._dataset(seed=4)
        p1 = tmp_path / "a.cprf"
        p2 = tmp_path / "b.cprf"
        save_features(ds, p1)
        save_features(load_features(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.cprf"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FileFormatError, match="magic"):
            load_features(p)

    def test_bad_version(self, tmp_path):
        ds = self._dataset()
        p = tmp_path / "x.cprf"
        save_features(ds, p)
        blob = bytearray(p.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        p.write_bytes(bytes(blob))
        with pytest.raises(FileVersionError, match="99"):
            load_features(p)

    def test_truncated_payload(self, tmp_path):
        ds = self._dataset()
        p = tmp_path / "x.cprf"
        save_features(ds, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(FileTruncatedError):
            load_features(p)

    def test_trailing_garbage(self, tmp_path):
        ds = self._dataset()
        p = tmp_path / "x.cprf"
        save_features(ds, p)
        p.write_bytes(p.read_bytes() + b"\x01\x02")
        with pytest.raises(FileFormatError, match="trailing"):
            load_features(p)

    def test_bad_label_byte(self, tmp_path):
        ds = self._dataset()
        p = tmp_path / "x.cprf"
        save_features(ds, p)
        blob = bytearray(p.read_bytes())
        blob[-1] = 7  # last byte is a label byte
        p.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="label"):
            load_features(p)


class TestEmbeddingFile:
    def test_round_trip_values_and_names(self, tmp_path):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((6, 9)).astype("<f4").astype(np.float64)
        names = [f"thing_{i}" for i in range(6)]
        p = tmp_path / "emb.cpre"
        save_embeddings(names, W, p)
        names2, W2 = load_embeddings(p)
        assert names2 == names
        assert W2.tobytes() == W.tobytes()

    def test_truncated(self, tmp_path):
        p = tmp_path / "emb.cpre"
        save_embeddings(["a", "b"], np.zeros((2, 3)), p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(FileTruncatedError):
            load_embeddings(p)

    def test_shape_validation_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_embeddings(["a", "b", "c"], np.zeros((2, 3)), tmp_path / "e.cpre")


class TestEmbeddingProvider:
    def test_random_is_seeded_standard_normal(self):
        emb = embedding_provider("random", c=100, m=1000, seed=42)
        W = emb.data
        assert W.shape == (100, 1000)
        assert abs(W.mean()) < 0.05
        assert abs(W.var() - 1.0) < 0.05
        again = embedding_provider("random", c=100, m=1000, seed=42)
        assert (again.data == W).all()

    def test_random_is_frozen(self):
        emb = embedding_provider("random", c=4, m=5, seed=0)
        assert emb.requires_grad is False

    def test_file_mode_checks_counts_and_names(self, tmp_path):
        names = ["a", "b", "c"]
        p = tmp_path / "e.cpre"
        save_embeddings(names, np.ones((3, 4)), p)
        emb = embedding_provider("file", path=p, c=3, m=4, class_names=names)
        assert emb.shape == (3, 4) and (emb.data == 1.0).all()
        with pytest.raises(EmbeddingMismatchError, match="classes"):
            embedding_provider("file", path=p, c=5)
        with pytest.raises(EmbeddingMismatchError, match="width"):
            embedding_provider("file", path=p, m=9)
        with pytest.raises(EmbeddingMismatchError, match="names"):
            embedding_provider("file", path=p, class_names=["x", "y", "z"])

    def test_class_count_must_match_the_names_in_both_modes(self, tmp_path):
        names = ["a", "b", "c"]
        p = tmp_path / "e.cpre"
        save_embeddings(names, np.ones((3, 4)), p)
        for mode, path in (("random", None), ("file", p)):
            with pytest.raises(EmbeddingMismatchError, match="c = 5 but 3 class names"):
                embedding_provider(mode, path=path, c=5, m=4, class_names=names)
        assert embedding_provider("random", m=4, class_names=names).shape == (3, 4)

    @pytest.mark.parametrize("mode, given, message", [
        ("random", {"c": 3}, "random embeddings need c and m"),
        ("file", {}, "file embeddings need a path"),
    ], ids=["random-without-m", "file-without-path"])
    def test_refuses_a_mode_without_its_inputs(self, mode, given, message):
        with pytest.raises(ValueError, match=message):
            embedding_provider(mode, **given)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            embedding_provider("glove")


class TestClassMeanEmbeddings:
    def test_single_label_means_recover_per_class_token_means(self):
        cfg = GeneratorConfig(c=4, v=3, d0=5, n_max=30, seed=8,
                              co_occurrence_strength=0.0, noise_sigma=0.3)
        train, _ = generate_synthetic_lt(cfg)
        E = class_mean_embeddings(train)
        # oracle: group samples by their single positive class by hand
        sums = np.zeros((4, 5))
        n = np.zeros(4)
        for features, labels in zip(train.features, train.labels):
            j = int(np.flatnonzero(labels)[0])
            sums[j] += features.mean(axis=0)
            n[j] += 1
        np.testing.assert_allclose(E, sums / n[:, None], rtol=0, atol=0)

    def test_multilabel_sums_match_a_per_sample_loop_bitwise(self):
        cfg = GeneratorConfig(c=6, v=4, d0=5, n_max=60, seed=2,
                              co_occurrence_strength=0.5, noise_sigma=0.3)
        train, _ = generate_synthetic_lt(cfg)
        assert (train.labels.sum(axis=1) > 1).any()
        sums = np.zeros((6, 5))
        n = np.zeros(6)
        for features, labels in zip(train.features, train.labels):
            for j in np.flatnonzero(labels):
                sums[j] += features.mean(axis=0)
                n[j] += 1
        assert class_mean_embeddings(train).tobytes() == (sums / n[:, None]).tobytes()

    def test_refuses_a_class_without_positives_and_names_it(self):
        labels = np.array([[1, 0, 0], [1, 0, 1]])
        dataset = LongTailDataset(np.zeros((2, 2, 3)), labels, ["a", "b", "c"])
        with pytest.raises(ValueError, match=r"classes without positives: \[1\]"):
            class_mean_embeddings(dataset)

    def test_shape(self):
        cfg = GeneratorConfig(c=6, v=4, d0=7, n_max=20, seed=1)
        train, _ = generate_synthetic_lt(cfg)
        assert class_mean_embeddings(train).shape == (6, 7)
