"""Generating, inspecting, and round-tripping long-tailed datasets.

Run with:  python3 demos/02_synthetic_longtail_data.py

Covers: the power-law count schedule, head/medium/tail grouping,
co-occurrence injection, and the bit-exact binary file round trip.
"""

import tempfile
from pathlib import Path

import numpy as np

from promptrefine.data import (
    FileTruncatedError,
    GeneratorConfig,
    count_schedule,
    generate_synthetic_lt,
    load_features,
    save_features,
    split_groups,
)

print("=" * 70)
print("1. The count schedule is a pure function of the config")
print("=" * 70)

cfg = GeneratorConfig(c=20, v=8, d0=16, n_max=775, pareto_exponent=0.89,
                      pareto_ramp=0.047, co_occurrence_strength=0.45,
                      noise_sigma=0.6, test_per_class=30, seed=1)
schedule = count_schedule(cfg)
groups = split_groups(schedule)
print("class :", "  ".join(f"{i:4d}" for i in range(cfg.c)))
print("count :", "  ".join(f"{n:4d}" for n in schedule))
print("group :", "  ".join(f"{g[:4]:>4s}" for g in groups))
sizes = {g: groups.count(g) for g in ("head", "medium", "tail")}
print(f"split: {sizes['head']} head (>100), {sizes['medium']} medium (20..100), "
      f"{sizes['tail']} tail (<20)")

print()
print("=" * 70)
print("2. Generation realizes the schedule exactly")
print("=" * 70)

train_ds, test_ds = generate_synthetic_lt(cfg)
realized = train_ds.class_counts
print(f"train: {len(train_ds)} samples, test: {len(test_ds)} "
      f"({cfg.test_per_class} per class, single positive each)")
print(f"realized counts equal schedule: {list(realized) == list(schedule)}")

labels = train_ds.labels
co = labels.T.astype(int) @ labels.astype(int)
np.fill_diagonal(co, 0)
print(f"label co-occurrences injected: {co.sum() // 2} pairs "
      f"(strength {cfg.co_occurrence_strength})")

solo = generate_synthetic_lt(
    GeneratorConfig(c=20, v=8, d0=16, n_max=775, pareto_exponent=0.89,
                    pareto_ramp=0.047, co_occurrence_strength=0.0,
                    noise_sigma=0.6, test_per_class=30, seed=1))[0]
solo_labels = solo.labels
co0 = solo_labels.T.astype(int) @ solo_labels.astype(int)
np.fill_diagonal(co0, 0)
print(f"with strength 0.0 the same seed gives: {co0.sum() // 2} pairs")

print()
print("=" * 70)
print("3. The binary format round-trips bit for bit")
print("=" * 70)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "train.cprf"
    save_features(train_ds, path)
    size = path.stat().st_size
    back = load_features(path)
    same = (train_ds.features.tobytes() == back.features.tobytes()
            and train_ds.labels.tobytes() == back.labels.tobytes())
    print(f"wrote {size} bytes; features and labels identical after reload: {same}")

    # Truncation is detected, not silently padded.
    clipped = Path(tmp) / "clipped.cprf"
    clipped.write_bytes(path.read_bytes()[: size // 2])
    try:
        load_features(clipped)
    except FileTruncatedError as e:
        print(f"half the file -> FileTruncatedError: {e}")
