"""Average-precision tests against a brute-force O(n^2) oracle."""

import numpy as np
import pytest

from promptrefine.metrics import NoPositivesError, average_precision, map_report


def ap_oracle(scores, labels) -> float:
    """Brute force: explicit rank list, precision@k recounted from scratch
    at every positive rank.  Ties broken by ascending original index."""
    idx = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranked = [labels[i] for i in idx]
    n_pos = sum(1 for l in labels if l == 1)
    total = 0.0
    for k in range(1, len(ranked) + 1):
        if ranked[k - 1] == 1:
            hits = 0
            for j in range(k):
                if ranked[j] == 1:
                    hits += 1
            total += hits / k
    return total / n_pos


class TestAveragePrecision:
    def test_worked_example(self):
        """scores [0.9, 0.8, 0.1], labels [1, 0, 1]:
        positives sit at ranks 1 and 3, AP = (1/1 + 2/3) / 2 = 0.83333."""
        ap = average_precision([0.9, 0.8, 0.1], [1, 0, 1])
        assert ap == pytest.approx(0.83333, abs=5e-6)
        assert ap == ap_oracle([0.9, 0.8, 0.1], [1, 0, 1])

    def test_perfect_and_inverted_rankings(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        # all positives ranked last
        ap = average_precision([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert ap == pytest.approx((1 / 3 + 2 / 4) / 2)

    def test_matches_brute_force_oracle_exactly(self):
        """1000 random instances with n <= 50, duplicate scores included;
        the production value must equal the oracle bit for bit."""
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            # coarse grid ensures plenty of duplicate scores
            scores = rng.integers(0, 8, size=n) / 7.0
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1
            got = average_precision(scores, labels)
            want = ap_oracle(list(scores), list(labels))
            assert got == want

    def test_ties_break_by_ascending_original_index(self):
        # identical scores: ranking must equal the original order, so the
        # positive at index 0 lands at rank 1 and the one at index 3 at rank 4
        ap = average_precision([0.5, 0.5, 0.5, 0.5], [1, 0, 0, 1])
        assert ap == pytest.approx((1 / 1 + 2 / 4) / 2)

    def test_invariant_under_strictly_monotone_score_transform(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            scores = rng.integers(0, 10, size=n) / 9.0
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            a = average_precision(scores, labels)
            b = average_precision(3.0 * scores + 1.0, labels)
            assert a == b

    def test_zero_positives_raises_dedicated_signal(self):
        with pytest.raises(NoPositivesError):
            average_precision([0.1, 0.9], [0, 0])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            average_precision([0.1, 0.2], [1, 0, 1])
        with pytest.raises(ValueError, match="binary"):
            average_precision([0.1, 0.2], [1, 2])
        # a NaN would otherwise rank last, as if it were the lowest score
        for bad, count in (([np.nan, 0.2, 0.9], 1), ([np.inf, 0.2, -np.inf], 2)):
            with pytest.raises(ValueError, match=f"^{count} of 3 scores are not finite"):
                average_precision(bad, [1, 0, 1])


class TestMapReport:
    def _toy(self):
        rng = np.random.default_rng(7)
        scores = rng.random((30, 6))
        labels = (rng.random((30, 6)) < 0.3).astype(int)
        labels[:, 0] |= 1  # class 0 always positive
        groups = ["head", "head", "medium", "medium", "tail", "tail"]
        return scores, labels, groups

    def test_group_means_average_scored_classes(self):
        scores, labels, groups = self._toy()
        rep = map_report(scores, labels, groups)
        scored = [ap for ap in rep.per_class_ap if ap is not None]
        assert rep.map_total == pytest.approx(sum(scored) / len(scored))
        head_aps = [rep.per_class_ap[j] for j in (0, 1) if rep.per_class_ap[j] is not None]
        assert rep.map_head == pytest.approx(sum(head_aps) / len(head_aps))
        assert rep.n_classes_per_group == [2, 2, 2]

    def test_zero_positive_class_is_skipped_not_scored_zero(self):
        scores, labels, groups = self._toy()
        labels[:, 4] = 0
        rep = map_report(scores, labels, groups)
        assert rep.skipped_classes == [4]
        assert rep.per_class_ap[4] is None
        # the tail mean now covers only class 5
        assert rep.map_tail == pytest.approx(rep.per_class_ap[5])
        # group sizes still reflect the assignment
        assert rep.n_classes_per_group == [2, 2, 2]

    def test_refuses_scores_and_labels_of_different_shapes(self):
        scores, labels, groups = self._toy()
        with pytest.raises(ValueError, match=r"\(30, 6\) vs \(30, 5\)"):
            map_report(scores, labels[:, :5], groups)
        with pytest.raises(ValueError, match=r"\(29, 6\) vs \(30, 6\)"):
            map_report(scores[1:], labels, groups)

    def test_group_tag_validation(self):
        scores, labels, _ = self._toy()
        with pytest.raises(ValueError, match="unknown group"):
            map_report(scores, labels, ["head"] * 5 + ["huge"])
        with pytest.raises(ValueError):
            map_report(scores, labels, ["head"] * 5)
