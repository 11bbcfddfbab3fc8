"""Non-interpolated average precision and grouped mAP reporting.

Ranking is by descending score with ties broken by ascending original
index (a stable sort on the negated scores).  AP sums precision@k at the
positive ranks and divides by the number of positives; classes without a
single positive cannot be scored and are reported as skipped rather than
silently counted as zero.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["GROUP_ORDER", "MAP_KEYS", "NoPositivesError", "average_precision", "map_report",
           "EvalReport"]

GROUP_ORDER = ("head", "medium", "tail")
# The reported mAPs: over every scored class, then one per group.
MAP_KEYS = ("map_total", *(f"map_{g}" for g in GROUP_ORDER))


class NoPositivesError(ValueError):
    """Raised when AP is requested for a label vector with no positives."""


def average_precision(scores, labels) -> float:
    """Non-interpolated AP of one class over a set of instances.

    precision@k is accumulated in rank order left to right, so the result
    is reproducible bit for bit across runs and platforms.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(
            f"scores and labels must be equal-length vectors, got {scores.shape} vs {labels.shape}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be binary")
    if not np.isfinite(scores).all():
        raise ValueError(f"{np.count_nonzero(~np.isfinite(scores))} of {scores.size} "
                         "scores are not finite")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise NoPositivesError("no positive instances; AP is undefined")
    order = np.argsort(-scores, kind="stable")
    k = np.flatnonzero(labels[order] == 1) + 1   # 1-based ranks of the positives
    # cumsum adds left to right: the same sums, in the same order, as a loop
    return float(np.cumsum(np.arange(1, n_pos + 1) / k)[-1] / n_pos)


@dataclass
class EvalReport:
    """Per-class AP plus group means over head / medium / tail classes.

    ``per_class_ap`` holds ``None`` at skipped (zero-positive) class
    positions; group means average the scored classes only, and a group
    containing no scored class reports ``None``.
    ``n_classes_per_group`` counts class assignments (head, medium, tail)
    regardless of skipping.
    """

    per_class_ap: list
    map_total: float | None
    map_head: float | None
    map_medium: float | None
    map_tail: float | None
    n_classes_per_group: list
    skipped_classes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _mean(vals: list) -> float | None:
    return sum(vals) / len(vals) if vals else None


def map_report(scores, labels, groups) -> EvalReport:
    """Score an (n, c) score matrix against binary labels, grouped.

    ``groups`` assigns each class to "head", "medium" or "tail" (by its
    training-set frequency); the report carries the mean AP per group so
    long-tail behaviour is visible separately from the overall mean.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape != labels.shape:
        raise ValueError(
            f"scores and labels must be equal-shape matrices, got {scores.shape} vs {labels.shape}")
    c = scores.shape[1]
    groups = list(groups)
    if len(groups) != c:
        raise ValueError(f"expected {c} group tags, got {len(groups)}")
    bad = set(groups) - set(GROUP_ORDER)
    if bad:
        raise ValueError(f"unknown group tags {sorted(bad)}; expected {GROUP_ORDER}")

    per_class: list = []
    skipped: list = []
    for j in range(c):
        if int(labels[:, j].sum()) == 0:
            skipped.append(j)
            per_class.append(None)
        else:
            per_class.append(average_precision(scores[:, j], labels[:, j]))

    scored = [ap for ap in per_class if ap is not None]
    by_group = {g: [per_class[j] for j in range(c)
                    if groups[j] == g and per_class[j] is not None]
                for g in GROUP_ORDER}
    return EvalReport(
        per_class_ap=per_class,
        map_total=_mean(scored),
        **{key: _mean(by_group[g]) for key, g in zip(MAP_KEYS[1:], GROUP_ORDER)},
        n_classes_per_group=[sum(1 for g in groups if g == tag) for tag in GROUP_ORDER],
        skipped_classes=skipped,
    )
