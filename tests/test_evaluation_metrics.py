"""Tests for the ranking metrics (recall@M, MAP@M and companions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.metrics import (
    average_precision_at_m,
    catalog_coverage,
    hit_rate_at_m,
    ndcg_at_m,
    precision_at_m,
    recall_at_m,
)
from repro.exceptions import EvaluationError


class TestRecall:
    def test_perfect_recall(self):
        assert recall_at_m([1, 2, 3], {1, 2, 3}, m=3) == 1.0

    def test_partial_recall(self):
        assert recall_at_m([1, 9, 8], {1, 2}, m=3) == pytest.approx(0.5)

    def test_zero_recall(self):
        assert recall_at_m([5, 6], {1, 2}, m=2) == 0.0

    def test_cutoff_applied(self):
        # The relevant item sits at rank 3, beyond the cut-off m=2.
        assert recall_at_m([9, 8, 1], {1}, m=2) == 0.0

    def test_denominator_is_relevant_count_not_m(self):
        # 5 relevant items, list of 2 hits at m=2: recall = 2/5 (paper definition).
        assert recall_at_m([1, 2], {1, 2, 3, 4, 5}, m=2) == pytest.approx(0.4)

    def test_empty_relevant_raises(self):
        with pytest.raises(EvaluationError):
            recall_at_m([1], set(), m=1)

    def test_invalid_m(self):
        with pytest.raises(EvaluationError):
            recall_at_m([1], {1}, m=0)


class TestPrecision:
    def test_values(self):
        assert precision_at_m([1, 9], {1}, m=2) == pytest.approx(0.5)
        assert precision_at_m([1, 2], {1, 2}, m=2) == 1.0

    def test_short_list_counts_misses(self):
        # Only one item recommended but m=4: precision = 1/4.
        assert precision_at_m([1], {1}, m=4) == pytest.approx(0.25)

    def test_no_relevant_returns_zero(self):
        assert precision_at_m([1, 2], set(), m=2) == 0.0


class TestAveragePrecision:
    def test_paper_normaliser_min_relevant_m(self):
        # One relevant item ranked first, M = 3: AP = 1 / min(1, 3) = 1.
        assert average_precision_at_m([1, 8, 9], {1}, m=3) == pytest.approx(1.0)

    def test_rank_sensitivity(self):
        early = average_precision_at_m([1, 8, 9], {1}, m=3)
        late = average_precision_at_m([8, 9, 1], {1}, m=3)
        assert early > late

    def test_worked_example(self):
        # Relevant = {0, 2}; ranking = [0, 9, 2]; M = 3.
        # Prec(1) = 1, Prec(3) = 2/3; AP = (1 + 2/3) / min(2, 3) = 5/6.
        assert average_precision_at_m([0, 9, 2], {0, 2}, m=3) == pytest.approx(5 / 6)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ranked = rng.permutation(20)[:10].tolist()
            relevant = set(rng.permutation(20)[:5].tolist())
            assert 0.0 <= average_precision_at_m(ranked, relevant, m=10) <= 1.0

    def test_empty_relevant_raises(self):
        with pytest.raises(EvaluationError):
            average_precision_at_m([1], set(), m=1)

    def test_worked_example_int_items(self):
        assert average_precision_at_m([7, 3, 5], {7, 5}, m=3) == pytest.approx(5 / 6)


class TestHitRateAndNdcg:
    def test_hit_rate(self):
        assert hit_rate_at_m([1, 2], {2}, m=2) == 1.0
        assert hit_rate_at_m([1, 2], {3}, m=2) == 0.0
        assert hit_rate_at_m([1, 2, 3], {3}, m=2) == 0.0

    def test_ndcg_perfect_ranking_is_one(self):
        assert ndcg_at_m([1, 2, 3], {1, 2, 3}, m=3) == pytest.approx(1.0)

    def test_ndcg_prefers_early_hits(self):
        assert ndcg_at_m([1, 9, 8], {1}, m=3) > ndcg_at_m([9, 8, 1], {1}, m=3)

    def test_ndcg_in_unit_interval(self):
        assert 0.0 <= ndcg_at_m([9, 1, 8], {1, 5}, m=3) <= 1.0

    def test_ndcg_empty_relevant_raises(self):
        with pytest.raises(EvaluationError):
            ndcg_at_m([1], set(), m=1)


ALL_AT_M = [precision_at_m, recall_at_m, hit_rate_at_m, average_precision_at_m, ndcg_at_m]


class TestCutOff:
    @pytest.mark.parametrize("metric", ALL_AT_M, ids=lambda metric: metric.__name__)
    @pytest.mark.parametrize("m", [0, -1, 1.5, "3", float("nan"), None, True])
    def test_m_must_be_a_positive_int(self, metric, m):
        with pytest.raises(EvaluationError):
            metric([1, 2], {1}, m)

    @pytest.mark.parametrize("metric", ALL_AT_M, ids=lambda metric: metric.__name__)
    def test_numpy_m_passes(self, metric):
        assert metric([1, 2], {1}, np.int64(2)) == metric([1, 2], {1}, 2)


class TestCatalogCoverage:
    def test_full_and_partial_coverage(self):
        assert catalog_coverage([[0, 1], [2, 3]], n_items=4) == 1.0
        assert catalog_coverage([[0, 1], [1, 0]], n_items=4) == 0.5

    def test_invalid_catalog_size(self):
        with pytest.raises(EvaluationError):
            catalog_coverage([[0]], n_items=0)


class TestMetricRelationships:
    """Cross-metric invariants that hold for any ranking."""

    def test_recall_times_relevant_equals_precision_times_m(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n_items = 30
            ranked = rng.permutation(n_items)[:10].tolist()
            relevant = set(rng.permutation(n_items)[:6].tolist())
            m = 10
            hits_from_recall = recall_at_m(ranked, relevant, m) * len(relevant)
            hits_from_precision = precision_at_m(ranked, relevant, m) * m
            assert hits_from_recall == pytest.approx(hits_from_precision)

    def test_hit_rate_upper_bounds_recall_indicator(self):
        ranked = [4, 2, 7]
        relevant = {2, 9}
        assert hit_rate_at_m(ranked, relevant, 3) >= (recall_at_m(ranked, relevant, 3) > 0)
