"""Tests for the explanation engine, rendering helpers and reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bias import BiasedOCuLaR
from repro.core.explain import Explanation, explain_recommendation, explain_top_recommendations
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.core.recommend import batch_reports, recommend_with_explanations
from repro.core.render import render_coclusters, render_matrix, render_probability_matrix
from repro.data import make_movielens_like
from repro.exceptions import ConfigurationError, ConvergenceWarning, NotFittedError


class TestExplainRecommendation:
    def test_headline_explanation_structure(self, fitted_toy_model):
        explanation = explain_recommendation(fitted_toy_model, 6, 4)
        assert isinstance(explanation, Explanation)
        assert explanation.user == 6 and explanation.item == 4
        assert 0.0 < explanation.confidence < 1.0
        assert explanation.n_supporting_coclusters >= 1

    def test_evidence_items_are_actual_purchases(self, fitted_toy_model, toy_dataset):
        explanation = explain_recommendation(fitted_toy_model, 6, 4)
        purchased = set(toy_dataset.matrix.items_of_user(6).tolist())
        for entry in explanation.evidence:
            assert set(entry.evidence_items) <= purchased
            assert 4 not in entry.evidence_items

    def test_peer_users_bought_the_item(self, fitted_toy_model, toy_dataset):
        explanation = explain_recommendation(fitted_toy_model, 6, 4)
        buyers = set(toy_dataset.matrix.users_of_item(4).tolist())
        for entry in explanation.evidence:
            assert set(entry.peer_users) <= buyers
            assert 6 not in entry.peer_users

    def test_confidence_matches_model_probability(self, fitted_toy_model):
        explanation = explain_recommendation(fitted_toy_model, 6, 4)
        assert explanation.confidence == pytest.approx(fitted_toy_model.predict_proba(6, 4))

    @pytest.mark.parametrize("model_class", [OCuLaR, ROCuLaR, BiasedOCuLaR])
    def test_confidence_is_the_models_probability(self, model_class):
        # BiasedOCuLaR's probability carries its bias terms, which the
        # co-cluster factors behind the evidence leave out.
        matrix, _ = make_movielens_like(n_users=120, n_items=80, random_state=0)
        model = model_class(
            n_coclusters=6, max_iterations=10, tolerance=0.0, random_state=0
        )
        with pytest.warns(ConvergenceWarning):
            model.fit(matrix)
        assert explain_recommendation(model, 3, 3).confidence == model.predict_proba(3, 3)
        report = recommend_with_explanations(model, 3, n_items=4)
        assert report.confidences == [
            model.predict_proba(3, item) for item in report.items
        ]

    def test_limits_respected(self, fitted_toy_model):
        explanation = explain_recommendation(
            fitted_toy_model, 6, 4, max_peers=1, max_evidence_items=2
        )
        for entry in explanation.evidence:
            assert len(entry.peer_users) <= 1
            assert len(entry.evidence_items) <= 2

    def test_to_text_contains_key_elements(self, fitted_toy_model):
        text = explain_recommendation(fitted_toy_model, 6, 4).to_text()
        assert "item 4" in text
        assert "user 6" in text
        assert "confidence" in text
        assert "similar purchase history" in text

    def test_to_dict_roundtrip_fields(self, fitted_toy_model):
        record = explain_recommendation(fitted_toy_model, 6, 4).to_dict()
        assert record["user"] == 6 and record["item"] == 4
        assert isinstance(record["evidence"], list)
        for entry in record["evidence"]:
            assert {"cocluster", "contribution", "evidence_items", "peer_users"} <= set(entry)

    def test_price_estimate_from_deal_values(self, fitted_toy_model, toy_dataset):
        buyers = toy_dataset.matrix.users_of_item(4)
        deal_values = {(int(user), 4): 100.0 for user in buyers}
        explanation = explain_recommendation(fitted_toy_model, 6, 4, deal_values=deal_values)
        assert explanation.price_estimate == pytest.approx(100.0)
        assert "Estimated deal value" in explanation.to_text()

    def test_requires_fitted_model(self):
        with pytest.raises(NotFittedError):
            explain_recommendation(OCuLaR(), 0, 0)

    def test_explain_top_recommendations_rank_order(self, fitted_toy_model):
        explanations = explain_top_recommendations(fitted_toy_model, 6, n_items=3)
        assert len(explanations) == 3
        ranked = fitted_toy_model.recommend(6, n_items=3)
        assert [explanation.item for explanation in explanations] == [int(i) for i in ranked]

    def test_model_explain_shortcut(self, fitted_toy_model):
        direct = fitted_toy_model.explain(6, 4)
        assert isinstance(direct, Explanation)
        assert direct.item == 4

    def test_headline_explanation_cites_both_coclusters(self, paper_toy_model):
        # With the best-of-restarts fit the rationale has the paper's two bullets:
        # similar users via items 1-3 and similar users via items 5-9.
        explanation = paper_toy_model.explain(6, 4)
        assert explanation.n_supporting_coclusters >= 2


class TestLabelledExplanations:
    def test_uses_client_and_product_names(self, b2b_small):
        model = OCuLaR(n_coclusters=6, regularization=1.0, max_iterations=40, random_state=0)
        model.fit(b2b_small.matrix)
        user = int(np.argmax(b2b_small.matrix.user_degrees()))
        item = int(model.recommend(user, n_items=1)[0])
        explanation = explain_recommendation(
            model, user, item, deal_values=b2b_small.deal_values
        )
        assert explanation.user_label == b2b_small.client_names[user]
        assert explanation.item_label == b2b_small.product_names[item]
        text = explanation.to_text()
        assert b2b_small.client_names[user] in text


class TestReports:
    def test_recommendation_report_structure(self, fitted_toy_model):
        report = recommend_with_explanations(fitted_toy_model, 6, n_items=3)
        assert report.user == 6
        assert len(report.explanations) == 3
        assert report.items == [explanation.item for explanation in report.explanations]
        assert all(0 <= confidence < 1 for confidence in report.confidences)

    def test_report_text_and_records(self, fitted_toy_model):
        report = recommend_with_explanations(fitted_toy_model, 6, n_items=2)
        text = report.to_text()
        assert "Recommendations for" in text
        assert "1." in text and "2." in text
        records = report.to_records()
        assert len(records) == 2

    def test_batch_reports(self, fitted_toy_model):
        reports = batch_reports(fitted_toy_model, [0, 6], n_items=2)
        assert [report.user for report in reports] == [0, 6]

    def test_report_requires_fitted_model(self):
        with pytest.raises(NotFittedError):
            recommend_with_explanations(OCuLaR(), 0)


class TestRendering:
    def test_render_matrix_marks_positives(self, toy_dataset):
        text = render_matrix(toy_dataset.matrix)
        assert "#" in text and "." in text
        assert len(text.splitlines()) == 13  # header + 12 user rows

    def test_render_matrix_truncation_notice(self):
        from repro.data.interactions import InteractionMatrix

        big = InteractionMatrix(np.ones((50, 70)))
        assert "truncated" in render_matrix(big, max_users=10, max_items=10)

    def test_render_probability_matrix(self, fitted_toy_model, toy_dataset):
        text = render_probability_matrix(
            fitted_toy_model.factors_, toy_dataset.matrix, max_users=12, max_items=12
        )
        assert "%" in text
        assert "[" in text  # observed positives are bracketed

    def test_render_coclusters_names_members(self, fitted_toy_model, toy_dataset):
        text = render_coclusters(
            fitted_toy_model.coclusters(membership_threshold=0.5), toy_dataset.matrix
        )
        assert "Co-cluster" in text
        assert "users:" in text and "items:" in text

    def test_render_coclusters_rejects_bad_limit(self, fitted_toy_model):
        with pytest.raises(ConfigurationError):
            render_coclusters(fitted_toy_model.coclusters(), max_members=0)

    def test_render_coclusters_empty_input(self):
        assert "no non-empty" in render_coclusters([])
