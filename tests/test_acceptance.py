"""Acceptance suite: the end-to-end guarantees this package makes.

Every test finishes by printing one line

    ACCEPTANCE PASS: <what was verified>   (or ACCEPTANCE FAIL: ...)

so a tee'd run documents each guarantee.  The training-based tests share
two module-scoped benchmark caches:

* bench A (baseline comparison): 20 classes whose prototypes are crowded
  into 8 dimensions, co-occurrence 0.5, trained to convergence (45
  epochs).  Pooled token means of several prototypes are not linearly
  separable there, while per-token evidence still is — the regime the
  prompt model is built for.
* bench B (loss and embedding comparisons): 16-dim prototypes, a short
  8-epoch budget where the comparative signals (asymmetric loss vs BCE,
  informative vs random embeddings) are strong and far from ceiling.

Seeds 1, 2, 3 were fixed before the benchmarks were tuned and are never
adjusted per seed.
"""

import time

import numpy as np
import pytest

from promptrefine import autodiff as ad
from promptrefine.autodiff import grad_check
from promptrefine.baseline import train_baseline
from promptrefine.data import (
    GeneratorConfig,
    class_mean_embeddings,
    count_schedule,
    embedding_provider,
    generate_synthetic_lt,
    load_features,
    save_embeddings,
    save_features,
    split_groups,
)
from promptrefine.losses import ASLConfig, asl, bce, focal, get_loss
from promptrefine.metrics import average_precision, map_report
from promptrefine.model import ModelDims, dual_path_grads, forward_batch, init_model
from promptrefine.training import (
    Adam,
    TrainConfig,
    load_checkpoint,
    run_gradcheck,
    score_dataset,
    train_on_datasets,
)

SEEDS = (1, 2, 3)

BENCH_A = dict(
    gen=dict(c=20, v=8, d0=8, n_max=775, pareto_exponent=0.89,
             pareto_ramp=0.047, co_occurrence_strength=0.5, noise_sigma=0.4,
             test_per_class=30),
    dims=dict(d0=8, d=32, v=8, c=20, heads=4, ffn=64, tau=0.5),
    train=dict(epochs=45, batch_size=32, learning_rate=3e-3, weight_decay=1e-4),
    m=8,
)
BENCH_B = dict(
    gen=dict(c=20, v=8, d0=16, n_max=775, pareto_exponent=0.89,
             pareto_ramp=0.047, co_occurrence_strength=0.45, noise_sigma=0.6,
             test_per_class=30),
    dims=dict(d0=16, d=32, v=8, c=20, heads=4, ffn=64, tau=0.5),
    train=dict(epochs=8, batch_size=32, learning_rate=2e-3, weight_decay=1e-4),
    m=16,
)


def check(name: str, ok: bool, detail: str = "") -> None:
    tail = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, f"{name}{tail}"


def train_cfg(bench, seed, loss="asl", emb_mode="random", emb_path=None):
    loss_cfg = ({"name": "asl", "gamma_pos": 0.0, "gamma_neg": 4.0, "mu": 0.05}
                if loss == "asl" else {"name": loss})
    return TrainConfig(
        dims=ModelDims(**bench["dims"]), loss=loss_cfg,
        embedding={"mode": emb_mode, "path": emb_path, "m": bench["m"],
                   "seed": seed},
        seed=seed, **bench["train"])


@pytest.fixture(scope="module")
def bench_a(tmp_path_factory):
    """Prompt model vs pooled-linear baseline, three seeds, timed."""
    root = tmp_path_factory.mktemp("bench_a")
    out = {}
    t0 = time.monotonic()
    for seed in SEEDS:
        train_ds, test_ds = generate_synthetic_lt(
            GeneratorConfig(seed=seed, **BENCH_A["gen"]))
        result = train_on_datasets(train_cfg(BENCH_A, seed), train_ds, test_ds,
                                   root / f"model_{seed}")
        _, base_report = train_baseline(train_ds, test_ds, loss_name="asl",
                                        seed=seed, **BENCH_A["train"])
        out[seed] = {"model": result.final_report, "baseline": base_report}
    out["elapsed"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="module")
def bench_b(tmp_path_factory):
    """ASL vs BCE and informative vs random embeddings, three seeds."""
    root = tmp_path_factory.mktemp("bench_b")
    out = {}
    for seed in SEEDS:
        train_ds, test_ds = generate_synthetic_lt(
            GeneratorConfig(seed=seed, **BENCH_B["gen"]))
        dims = ModelDims(**BENCH_B["dims"])
        emb = embedding_provider("random", c=dims.c, m=BENCH_B["m"], seed=seed,
                                 class_names=train_ds.class_names)
        untrained = map_report(
            score_dataset(init_model(dims, emb, seed=seed), test_ds),
            test_ds.labels, split_groups(train_ds.class_counts))

        r_asl = train_on_datasets(train_cfg(BENCH_B, seed, "asl"),
                                  train_ds, test_ds, root / f"asl_{seed}")
        r_bce = train_on_datasets(train_cfg(BENCH_B, seed, "bce"),
                                  train_ds, test_ds, root / f"bce_{seed}")
        emb_path = root / f"informative_{seed}.cpre"
        save_embeddings(train_ds.class_names, class_mean_embeddings(train_ds),
                        emb_path)
        r_inf = train_on_datasets(
            train_cfg(BENCH_B, seed, "asl", "file", str(emb_path)),
            train_ds, test_ds, root / f"inf_{seed}")
        out[seed] = {"untrained": untrained, "asl": r_asl.final_report,
                     "bce": r_bce.final_report,
                     "informative": r_inf.final_report}
    return out


class TestGradientCorrectness:
    def test_full_model_gradients_match_finite_differences(self):
        """Every learnable parameter of the full model, against central
        differences, for all three losses on both interaction paths."""
        t0 = time.monotonic()
        worst = 0.0
        combos = []
        for loss in ("asl", "bce", "focal"):
            for literal in (False, True):
                cfg = TrainConfig(
                    dims=ModelDims(d0=8, d=16, v=6, c=4, heads=2, ffn=32,
                                   tau=0.5),
                    loss={"name": loss},
                    embedding={"mode": "random", "path": None, "m": 6,
                               "seed": 0},
                    epochs=1, batch_size=2, learning_rate=1e-3,
                    seed=7, literal_equations=literal)
                report = run_gradcheck(cfg, eps=1e-5)
                combos.append((loss, literal, report.max_rel_error))
                worst = max(worst, report.max_rel_error)
                assert report.max_rel_error < 1e-4, (
                    f"{loss} literal={literal}: {report.max_rel_error:.2e} "
                    f"at {report.worst_param}")
        elapsed = time.monotonic() - t0
        check("full-model gradients match finite differences",
              worst < 1e-4 and elapsed < 60,
              f"worst rel err {worst:.2e} over {len(combos)} loss/path combos "
              f"in {elapsed:.1f}s")


class TestDualPathDecomposition:
    def test_prompt_gradient_splits_into_both_routes(self):
        """The initial prompts' gradient decomposes exactly into the
        classifier route plus the interaction route, across 20 random
        architectures; after a training step both routes are live."""
        rng = np.random.default_rng(123)
        losses = [lambda s, y: asl(s, y, ASLConfig()), bce,
                  lambda s, y: focal(s, y, 2.0)]
        worst = 0.0
        for trial in range(20):
            heads = int(rng.integers(1, 4))
            d = int(heads * rng.integers(2, 7))
            c = int(rng.integers(2, 7))
            v = int(rng.integers(1, 6))
            d0 = int(rng.integers(2, 8))
            m = int(rng.integers(2, 8))
            dims = ModelDims(d0=d0, d=d, v=v, c=c, heads=heads,
                             ffn=int(rng.integers(2, 12)), tau=0.5)
            emb = embedding_provider("random", c=c, m=m, seed=trial)
            params = init_model(dims, emb, seed=trial,
                                literal_equations=bool(rng.integers(2)))
            features = rng.standard_normal((v, d0))
            labels = (rng.random(c) < 0.5).astype(float)
            if labels.sum() == 0:
                labels[int(rng.integers(c))] = 1.0
            loss_fn = losses[trial % 3]
            g_total, g_direct, g_via = dual_path_grads(features, labels,
                                                       params, loss_fn)
            worst = max(worst, float(np.abs(g_total - (g_direct + g_via)).max()))

        # one gradient step, then both routes must carry signal
        dims = ModelDims(d0=5, d=8, v=4, c=4, heads=2, ffn=10, tau=0.5)
        emb = embedding_provider("random", c=4, m=5, seed=0)
        params = init_model(dims, emb, seed=0)
        adam = Adam(params.learnable(), learning_rate=1e-3, weight_decay=1e-4)
        batch = [rng.standard_normal((4, 5)) for _ in range(4)]
        labels = np.eye(4)
        adam.zero_grad()
        loss = asl(forward_batch(batch, params), labels)
        ad.backward(loss)
        adam.step()
        _, g_direct, g_via = dual_path_grads(
            batch[0], labels[0], params, lambda s, y: asl(s, y, ASLConfig()))
        norms_ok = np.linalg.norm(g_direct) > 0 and np.linalg.norm(g_via) > 0

        check("prompt gradient splits exactly into direct + interaction routes",
              worst <= 1e-10 and norms_ok,
              f"max decomposition error {worst:.2e} over 20 architectures; "
              f"route norms after a step: {np.linalg.norm(g_direct):.2e} / "
              f"{np.linalg.norm(g_via):.2e}")


class TestLossFamily:
    def test_losses_degenerate_to_bce_and_match_worked_scalars(self):
        """asl(0, 0, 0) and focal(0) both collapse to plain BCE on 1000
        random batches; two frozen worked examples agree to 6 significant
        digits."""
        rng = np.random.default_rng(99)
        degen = ASLConfig(gamma_pos=0.0, gamma_neg=0.0, mu=0.0)
        worst = 0.0
        for _ in range(1000):
            rows = int(rng.integers(1, 4))
            c = int(rng.integers(1, 6))
            s = ad.constant(rng.uniform(0.02, 0.98, size=(rows, c)))
            y = (rng.random((rows, c)) < 0.5).astype(float)
            ref = float(bce(s, y).data)
            worst = max(worst, abs(float(asl(s, y, degen).data) - ref),
                        abs(float(focal(s, y, 0.0).data) - ref))

        asl_val = float(asl(ad.constant(np.array([[0.2]])), np.array([[0.0]]),
                            ASLConfig(gamma_pos=0.0, gamma_neg=4.0,
                                      mu=0.05)).data)
        focal_val = float(focal(ad.constant(np.array([[0.9]])), np.array([[1.0]]),
                                2.0).data)
        scalars_ok = (abs(asl_val - 8.22752e-05) / 8.22752e-05 < 5e-6
                      and abs(focal_val - 1.05361e-03) / 1.05361e-03 < 5e-6)

        check("losses degenerate to BCE and match worked scalars",
              worst <= 1e-12 and scalars_ok,
              f"max degeneration gap {worst:.2e} over 1000 draws; "
              f"asl={asl_val:.6e}, focal={focal_val:.6e}")


class TestAveragePrecisionExactness:
    def test_matches_brute_force_oracle_exactly(self):
        """1000 random problems with heavy score ties: the ranking metric
        equals an O(n^2) recount bit for bit, and the worked example holds."""

        def brute_force(scores, labels):
            scores = np.asarray(scores, dtype=np.float64)
            labels = np.asarray(labels)
            order = np.argsort(-scores, kind="stable")
            total, hits = 0.0, 0
            for rank, idx in enumerate(order, start=1):
                if labels[idx] == 1:
                    hits += 1
                    total += hits / rank
            return total / int(labels.sum())

        rng = np.random.default_rng(2024)
        mismatches = 0
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            # tiny score grid forces many exact duplicates
            scores = rng.integers(0, 5, size=n) / 4.0
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            if average_precision(scores, labels) != brute_force(scores, labels):
                mismatches += 1

        worked = average_precision([0.9, 0.8, 0.1], [1, 0, 1])
        worked_ok = abs(worked - 0.83333) < 5e-6

        check("average precision equals the brute-force oracle exactly",
              mismatches == 0 and worked_ok,
              f"0 of 1000 tie-heavy instances disagree; worked example "
              f"{worked:.5f}")


class TestPermutationEquivariance:
    def test_scores_and_map_are_class_permutation_equivariant(self):
        """Relabeling the classes (permuting embedding rows, labels, and
        groups together) permutes the scores and leaves every mAP field
        unchanged — there is no positional preference among classes."""
        rng = np.random.default_rng(31)
        worst_scores = 0.0
        worst_map = 0.0
        for literal in (False, True):
            c, v, d0, m = 6, 4, 5, 7
            dims = ModelDims(d0=d0, d=12, v=v, c=c, heads=2, ffn=9, tau=0.5)
            W = rng.standard_normal((c, m))
            perm = rng.permutation(c)

            emb, emb_p = ad.constant(W), ad.constant(W[perm])
            params = init_model(dims, emb, seed=5, literal_equations=literal)
            params_p = init_model(dims, emb_p, seed=5, literal_equations=literal)

            batch = [rng.standard_normal((v, d0)) for _ in range(40)]
            scores = forward_batch(batch, params).data
            scores_p = forward_batch(batch, params_p).data
            worst_scores = max(worst_scores,
                               float(np.abs(scores_p - scores[:, perm]).max()))

            labels = (rng.random((40, c)) < 0.4).astype(int)
            for row in labels:
                if row.sum() == 0:
                    row[int(rng.integers(c))] = 1
            counts = np.array([150, 120, 60, 40, 10, 5])
            groups = split_groups(counts)
            rep = map_report(scores, labels, groups)
            rep_p = map_report(scores_p, labels[:, perm],
                               [groups[i] for i in perm])
            for field in ("map_total", "map_head", "map_medium", "map_tail"):
                a, b = getattr(rep, field), getattr(rep_p, field)
                worst_map = max(worst_map, abs(a - b))

        check("scores and mAP are class-permutation equivariant",
              worst_scores <= 1e-10 and worst_map <= 1e-10,
              f"max score gap {worst_scores:.2e}, max mAP field gap "
              f"{worst_map:.2e} across both interaction paths")


class TestLongTailSchedule:
    def test_group_boundaries_and_generated_schedule(self):
        """Count 101 is head, 100 and 20 are medium, 19 is tail; the
        20-class benchmark schedule spans [4, 775] with 6/6/8 groups and
        the generated dataset realizes it exactly."""
        boundaries_ok = (split_groups([101, 100, 20, 19])
                         == ["head", "medium", "medium", "tail"])

        gen = GeneratorConfig(seed=1, **BENCH_A["gen"])
        counts = count_schedule(gen)
        groups = split_groups(counts)
        schedule_ok = (counts[0] == 775 and counts[-1] == 4
                       and groups.count("head") == 6
                       and groups.count("medium") == 6
                       and groups.count("tail") == 8)

        train_ds, _ = generate_synthetic_lt(gen)
        realized_ok = train_ds.class_counts.tolist() == counts.tolist()

        check("group boundaries and long-tail schedule",
              boundaries_ok and schedule_ok and realized_ok,
              f"counts {counts[0]}..{counts[-1]}, groups 6/6/8, realized "
              f"counts equal the schedule")


class TestBaselineComparison:
    def test_prompt_model_beats_pooled_baseline_on_tail(self, bench_a):
        """With crowded prototypes the pooled-linear baseline hits an
        expressivity ceiling; the prompt model clears it by >= 5 points of
        tail mAP on every seed, inside a 10-minute CPU budget."""
        gaps = {seed: bench_a[seed]["model"].map_tail
                - bench_a[seed]["baseline"].map_tail for seed in SEEDS}
        ok = all(g >= 0.05 for g in gaps.values())
        elapsed = bench_a["elapsed"]
        check("prompt model beats the pooled-linear baseline on tail mAP",
              ok and elapsed < 600,
              "gaps " + ", ".join(f"seed {s}: {g * 100:+.1f}pts"
                                  for s, g in gaps.items())
              + f"; {elapsed:.0f}s for all seeds")


class TestAsymmetricLossAdvantage:
    def test_asymmetric_loss_protects_tail_versus_bce(self, bench_b):
        """Under the short shared budget, the asymmetric loss reaches at
        least BCE's tail mAP on at least 2 of 3 seeds."""
        wins = {seed: bench_b[seed]["asl"].map_tail
                >= bench_b[seed]["bce"].map_tail for seed in SEEDS}
        detail = ", ".join(
            f"seed {s}: asl {bench_b[s]['asl'].map_tail:.3f} vs "
            f"bce {bench_b[s]['bce'].map_tail:.3f}" for s in SEEDS)
        check("asymmetric loss protects tail mAP versus BCE",
              sum(wins.values()) >= 2, detail)


class TestDeterminismAndResume:
    def test_runs_are_deterministic_and_resumable(self, tmp_path):
        """Identical configs give identical histories and byte-identical
        checkpoints; an interrupted run resumed from epoch 2 reproduces
        the uninterrupted 4-epoch trajectory bit for bit; the data files
        round-trip bitwise."""
        gen = GeneratorConfig(c=6, v=4, d0=5, n_max=30, seed=9,
                              pareto_exponent=1.0, co_occurrence_strength=0.2,
                              noise_sigma=0.5, test_per_class=5)
        train_ds, test_ds = generate_synthetic_lt(gen)

        save_features(train_ds, tmp_path / "train.cprf")
        reloaded = load_features(tmp_path / "train.cprf")
        files_ok = (train_ds.features.tobytes() == reloaded.features.tobytes()
                    and train_ds.labels.tobytes() == reloaded.labels.tobytes())

        cfg = TrainConfig(
            dims=ModelDims(d0=5, d=8, v=4, c=6, heads=2, ffn=12, tau=0.5),
            embedding={"mode": "random", "path": None, "m": 7, "seed": 0},
            epochs=4, batch_size=8, learning_rate=1e-3, weight_decay=1e-4,
            seed=3)
        r1 = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "a")
        r2 = train_on_datasets(cfg, train_ds, test_ds, tmp_path / "b")
        histories_equal = r1.history == r2.history
        ckpt_equal = (open(r1.final_checkpoint, "rb").read()
                      == open(r2.final_checkpoint, "rb").read())

        # mAP fields are None for empty count groups on this tiny dataset;
        # histories_equal above already requires None == None.
        max_hist_gap = max(
            (abs(h1[k] - h2[k])
             for h1, h2 in zip(r1.history, r2.history)
             for k in ("train_loss", "map_total", "map_head", "map_medium",
                       "map_tail")
             if h1[k] is not None and h2[k] is not None),
            default=0.0)

        resumed = train_on_datasets(
            cfg, train_ds, test_ds, tmp_path / "c",
            resume_from=tmp_path / "a" / "checkpoint_epoch_001.cprc")
        resume_ok = (resumed.history == r1.history
                     and open(resumed.final_checkpoint, "rb").read()
                     == open(r1.final_checkpoint, "rb").read())

        roundtrip = load_checkpoint(r1.final_checkpoint)
        from promptrefine.training import restore
        rebuilt, _ = restore(roundtrip)
        params_ok = all(
            rebuilt.all_tensors()[n].data.tobytes() == p.data.tobytes()
            for n, p in r1.params.all_tensors().items())

        check("training is deterministic and resumable",
              files_ok and histories_equal and ckpt_equal
              and max_hist_gap <= 1e-12 and resume_ok and params_ok,
              f"history gap {max_hist_gap:.1e}; final checkpoints and resumed "
              f"run byte-identical; data and checkpoint round trips bitwise")


class TestEmbeddingSources:
    def test_informative_embeddings_help_and_both_beat_untrained(self, bench_b):
        """Training lifts mAP far above the untrained model for either
        embedding source, and data-derived class-mean embeddings reach at
        least random-embedding mAP on at least 2 of 3 seeds."""
        beat_untrained = all(
            bench_b[s]["asl"].map_total > bench_b[s]["untrained"].map_total
            and bench_b[s]["informative"].map_total
            > bench_b[s]["untrained"].map_total
            for s in SEEDS)
        wins = {s: bench_b[s]["informative"].map_total
                >= bench_b[s]["asl"].map_total for s in SEEDS}
        detail = ", ".join(
            f"seed {s}: informative {bench_b[s]['informative'].map_total:.3f} "
            f"vs random {bench_b[s]['asl'].map_total:.3f} "
            f"(untrained {bench_b[s]['untrained'].map_total:.3f})"
            for s in SEEDS)
        check("informative embeddings help and both beat untrained",
              beat_untrained and sum(wins.values()) >= 2, detail)
