"""Tests for the explanation engine, rendering helpers and reports."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.bias import BiasedOCuLaR
from repro.core.coclusters import extract_coclusters
from repro.core.explain import (
    MAX_EVIDENCE_ITEMS,
    MAX_PEERS,
    CoClusterEvidence,
    Explanation,
    batch_reports,
    explain_recommendation,
)
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.core.render import render_coclusters, render_matrix, render_probability_matrix
from repro.data import make_movielens_like
from repro.data.datasets import make_b2b
from repro.exceptions import ConfigurationError, ConvergenceWarning, NotFittedError
from repro.serving.engine import TopNEngine


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
        matrix = make_movielens_like(n_users=120, n_items=80, random_state=0)
        model = model_class(
            n_coclusters=6, max_iterations=10, tolerance=0.0, random_state=0
        )
        with pytest.warns(ConvergenceWarning):
            model.fit(matrix)
        assert explain_recommendation(model, 3, 3).confidence == model.predict_proba(3, 3)
        report = batch_reports(model, [3], n_items=4)[0]
        assert [card.confidence for card in report.explanations] == [
            model.predict_proba(3, card.item) for card in report.explanations
        ]

    def test_limits_respected(self, b2b_small):
        # One co-cluster spanning most of the catalogue, so both limits bind.
        model = OCuLaR(n_coclusters=1, regularization=1.0, max_iterations=40, random_state=0)
        model.fit(b2b_small.matrix)
        users = range(b2b_small.matrix.n_users)
        entries = [
            entry
            for report in batch_reports(model, users, n_items=5)
            for card in report.explanations
            for entry in card.evidence
        ]
        assert max(len(entry.peer_users) for entry in entries) == MAX_PEERS
        assert max(len(entry.evidence_items) for entry in entries) == MAX_EVIDENCE_ITEMS

    def test_evidence_follows_extracted_membership(self, fitted_movielens_model):
        # Evidence items and peers are members of the co-cluster as
        # extract_coclusters reports it, strongest first, filtered to the
        # user's purchases and the item's buyers.
        model = fitted_movielens_model
        matrix = model.train_matrix
        coclusters = extract_coclusters(model.factors_)
        checked = 0
        for report in batch_reports(model, range(0, matrix.n_users, 5), n_items=5):
            purchased = set(matrix.items_of_user(report.user).tolist())
            for card in report.explanations:
                buyers = set(matrix.users_of_item(card.item).tolist())
                for entry in card.evidence:
                    cocluster = coclusters[entry.cocluster_index]
                    items = [i for i in cocluster.items.tolist() if i in purchased]
                    peers = [
                        u for u in cocluster.users.tolist() if u in buyers and u != report.user
                    ]
                    assert entry.evidence_items == items[:MAX_EVIDENCE_ITEMS]
                    assert entry.peer_users == peers[:MAX_PEERS]
                    checked += len(entry.evidence_items) + len(entry.peer_users)
        assert checked > 0

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

    def test_batch_reports_rank_order(self, fitted_toy_model):
        explanations = batch_reports(fitted_toy_model, [6], n_items=3)[0].explanations
        assert len(explanations) == 3
        ranked = TopNEngine.from_model(fitted_toy_model).topn([6], n_items=3)[0]
        assert [explanation.item for explanation in explanations] == ranked.tolist()

    def test_model_explain_shortcut(self, fitted_toy_model):
        direct = fitted_toy_model.explain(6, 4)
        assert isinstance(direct, Explanation)
        assert direct.item == 4

    def test_headline_explanation_cites_both_coclusters(self, paper_toy_model):
        # With the best-of-restarts fit the rationale has the paper's two bullets:
        # similar users via items 1-3 and similar users via items 5-9.
        explanation = paper_toy_model.explain(6, 4)
        assert explanation.n_supporting_coclusters >= 2


class TestCardWording:
    """A card states only what happened: peers who bought, deals that exist."""

    @staticmethod
    def _card(peers, price=None):
        return Explanation(
            user=0,
            item=4,
            user_label="Acme",
            item_label="Widget",
            confidence=0.5,
            evidence=[
                CoClusterEvidence(
                    cocluster_index=2,
                    contribution=0.4,
                    evidence_items=[1],
                    peer_users=list(peers),
                    evidence_item_labels=["Bolt"],
                    peer_user_labels=[f"Client {peer}" for peer in peers],
                )
            ],
            price_estimate=price,
        )

    def test_entry_without_peers_claims_no_peer_purchase(self):
        text = self._card([]).to_text()
        assert "No other member of co-cluster 2 has bought Widget" in text
        assert "also bought" not in text and "no named peers" not in text

    def test_entry_with_peers_names_them(self):
        text = self._card([7, 9]).to_text()
        assert (
            "Clients with similar purchase history (e.g., Client 7, Client 9) "
            "also bought Widget (co-cluster 2, contribution 0.40)."
        ) in text

    @pytest.mark.parametrize("peers", [[], [7]])
    def test_price_line_names_its_source(self, peers):
        # The estimate averages the peers' deals for the item when they have
        # any, else every deal for it: both are historical deals for the item.
        text = self._card(peers, price=1234.0).to_text()
        assert "Estimated deal value from historical deals for Widget: $1,234." in text
        assert "related clients" not in text


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
        report = batch_reports(fitted_toy_model, [6], n_items=3)[0]
        assert report.user == 6
        assert len(report.explanations) == 3
        assert all(0 <= card.confidence < 1 for card in report.explanations)

    def test_report_text(self, fitted_toy_model):
        report = batch_reports(fitted_toy_model, [6], n_items=2)[0]
        text = report.to_text()
        assert "Recommendations for" in text
        assert "1." in text and "2." in text

    def test_batch_reports(self, fitted_toy_model):
        reports = batch_reports(fitted_toy_model, [0, 6], n_items=2)
        assert [report.user for report in reports] == [0, 6]

    def test_report_requires_fitted_model(self):
        with pytest.raises(NotFittedError):
            batch_reports(OCuLaR(), [0])


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


def _digest(texts) -> str:
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()


def _card_digests(reports) -> tuple:
    cards = [card for report in reports for card in report.explanations]
    return (
        len(cards),
        _digest(report.to_text() for report in reports),
        _digest(card.to_text() for card in cards),
        _digest(json.dumps(card.to_dict(), sort_keys=True) for card in cards),
    )


# sha256 over every rendering of the explanation layer, recorded before its
# membership rule and report builder were consolidated: the rewrite must
# reproduce every card's text and dictionary (floats included) bit for bit.
# The b2b text digests were re-recorded once, when a card without peers
# stopped citing a peer purchase and the price line named its source (the
# deal history of the item); every dictionary digest is the original.  The
# three explain-grid digests (a MovieLens stand-in) were re-recorded once,
# when the stand-in generators moved to the sparse sampler: that changed the
# corpus, not the code the digests guard.
_PINNED_EXPLANATIONS = {
    "b2b": (
        2000,
        "516dd75c6e2a3f6166ebb9febd77792dcd8724f4e808984e5ca9f866d135201e",
        "5ac853e177f88c38d824ed8011d66b18a4571afb0b60c2bbce4a6d1cff6c8a70",
        "3008b31861a36e442503897f262a7f7b7cf122a068b07670bbac33c214de4bcf",
    ),
    "toy": (
        59,
        "2c4b41357e19aa0b6cba71fea69cf75bb0d70301e60e5eabc59e18303144cb6c",
        "5b2892139e890421934ef38b129587de8c29caa3fa2e98cb10906cd3fb69051a",
        "bbf2672e26b932209ef640ea81412b6536d94f5b96586e2ad00fd1a683dc0ddc",
    ),
    OCuLaR: "f8e948a07ce7121c22b689ac4fecd71213fece5563e7f1fec5942078e2723b81",
    ROCuLaR: "51f47a4ebd931f6dd2fe7b88e334aecf33b65148cd9b3fe75d20e4dc3a6624cb",
    BiasedOCuLaR: "a1bf1537f7eeb6ea8720b759f900749d6651f87150d942fb75195389ac798871",
}


class TestExplanationDigests:
    def test_b2b_cards_are_bit_identical(self):
        # Figure 10's model settings, every client of the default corpus.
        dataset = make_b2b(random_state=0)
        model = OCuLaR(
            n_coclusters=12, regularization=2.0, max_iterations=80, random_state=0
        ).fit(dataset.matrix)
        reports = batch_reports(
            model, range(dataset.matrix.n_users), n_items=5, deal_values=dataset.deal_values
        )
        assert _card_digests(reports) == _PINNED_EXPLANATIONS["b2b"]

    def test_toy_cards_are_bit_identical(self, fitted_toy_model, toy_dataset):
        reports = batch_reports(fitted_toy_model, range(toy_dataset.matrix.n_users), n_items=5)
        assert _card_digests(reports) == _PINNED_EXPLANATIONS["toy"]

    @pytest.mark.parametrize(
        "model_class", [OCuLaR, ROCuLaR, BiasedOCuLaR], ids=lambda cls: cls.__name__
    )
    def test_explain_grid_is_bit_identical(self, model_class):
        matrix = make_movielens_like(n_users=120, n_items=80, random_state=0)
        model = model_class(n_coclusters=6, max_iterations=10, tolerance=0.0, random_state=0)
        model.fit(matrix)
        records = (
            json.dumps(model.explain(user, item).to_dict(), sort_keys=True)
            for user in range(0, matrix.n_users, 11)
            for item in range(0, matrix.n_items, 7)
        )
        assert _digest(records) == _PINNED_EXPLANATIONS[model_class]
