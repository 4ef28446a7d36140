"""Tests for the unified request/response API: validation, the option
grouping key, the JSON codecs (strict requests, lenient responses), and the
runtime's single ``recommend(request)`` dispatcher."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.api import (
    DEFAULT_TENANT,
    MAX_FOLD_IN_SWEEPS,
    RecommendRequest,
    RecommendResponse,
)
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.exceptions import ConfigurationError
from repro.runtime import RecommenderRuntime
from repro.serving.results import TopNResult


# --------------------------------------------------------------------------- #
# RecommendRequest
# --------------------------------------------------------------------------- #
class TestRecommendRequest:
    def test_exactly_one_payload_required(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            RecommendRequest()
        with pytest.raises(ConfigurationError, match="exactly one"):
            RecommendRequest(users=(1,), interactions=((2,),))

    def test_users_normalised_to_int_tuple(self):
        request = RecommendRequest(users=[np.int32(3), 1.0, "2"])
        assert request.users == (3, 1, 2)
        assert request.kind == "topn"
        assert request.rows == (3, 1, 2)
        assert request.n_rows == 3

    def test_fold_in_budget_is_capped(self):
        # tolerance=0 never stops a fold-in early, so n_sweeps alone bounds
        # how long one request holds the thread that serves it.
        assert MAX_FOLD_IN_SWEEPS == 100
        capped = RecommendRequest(interactions=((1, 2),), n_sweeps=MAX_FOLD_IN_SWEEPS)
        assert capped.n_sweeps == MAX_FOLD_IN_SWEEPS
        with pytest.raises(ConfigurationError, match="n_sweeps"):
            RecommendRequest(interactions=((1, 2),), n_sweeps=MAX_FOLD_IN_SWEEPS + 1)
        with pytest.raises(ConfigurationError, match="n_sweeps"):
            RecommendRequest.from_dict(
                {"interactions": [[1, 2, 3]], "n_sweeps": 10**9, "tolerance": 0.0}
            )

    def test_interactions_normalised_per_row(self):
        request = RecommendRequest(interactions=[[1, 2], (np.int64(5),), []])
        assert request.interactions == ((1, 2), (5,), ())
        assert request.kind == "folded"
        assert request.n_rows == 3

    def test_empty_users_allowed(self):
        assert RecommendRequest(users=()).n_rows == 0

    def test_bad_payloads_rejected(self):
        with pytest.raises(ConfigurationError):
            RecommendRequest(users=["three"])
        with pytest.raises(ConfigurationError):
            RecommendRequest(interactions=[3])  # rows must be sequences
        with pytest.raises(ConfigurationError):
            RecommendRequest(users=(1,), n_items=0)
        with pytest.raises(ConfigurationError):
            RecommendRequest(users=(1,), n_sweeps=0)
        with pytest.raises(ConfigurationError):
            RecommendRequest(users=(1,), tolerance=-1.0)
        with pytest.raises(ConfigurationError):
            RecommendRequest(users=(1,), tenant="")
        # Malformed ids are refused, not reinterpreted: "17" is not users
        # (1, 7), 1.7 is not user 1, and 1e999 is a typed error like the rest.
        for users in ("17", b"17", [1.7], [np.float32(2.5)], [1e999], [float("nan")]):
            with pytest.raises(ConfigurationError, match="sequence of integers"):
                RecommendRequest(users=users)
        for interactions in ("17", ["17"], [[1.7]], [[float("-inf")]]):
            with pytest.raises(ConfigurationError):
                RecommendRequest(interactions=interactions)
        for tolerance in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="tolerance"):
                RecommendRequest(users=(1,), tolerance=tolerance)

    def test_request_is_hashable_and_frozen(self):
        request = RecommendRequest(users=(1, 2))
        assert hash(request) == hash(RecommendRequest(users=(1, 2)))
        with pytest.raises(AttributeError):
            request.n_items = 5

    def test_options_merge_key_excludes_tenant_and_payload(self):
        a = RecommendRequest(users=(1,), n_items=7, tenant="acme")
        b = RecommendRequest(users=(2, 3), n_items=7, tenant="globex")
        assert a.options == b.options
        assert a.options != RecommendRequest(users=(1,), n_items=8).options
        assert a.options != RecommendRequest(users=(1,), n_items=7, with_scores=True).options

    def test_folded_options_include_solver_budget(self):
        a = RecommendRequest(interactions=((1,),), n_sweeps=10)
        b = RecommendRequest(interactions=((2,),), n_sweeps=20)
        assert a.options != b.options
        assert a.options != RecommendRequest(users=(1,)).options

    def test_merged_with_rows(self):
        a = RecommendRequest(users=(1,), n_items=7, tenant="acme")
        merged = a.merged_with_rows([1, 5, 9])
        assert merged.users == (1, 5, 9)
        assert merged.options == a.options
        assert merged.tenant == "acme"
        folded = RecommendRequest(interactions=((1, 2),), n_sweeps=5)
        assert folded.merged_with_rows([(1, 2), (3,)]).interactions == ((1, 2), (3,))


class TestRequestCodec:
    def test_json_roundtrip_topn(self):
        request = RecommendRequest(users=(4, 2), n_items=3, exclude_seen=False, tenant="acme")
        assert RecommendRequest.from_json(request.to_json()) == request

    def test_json_roundtrip_folded(self):
        request = RecommendRequest(
            interactions=((1, 2), ()), n_sweeps=7, tolerance=1e-6, with_scores=True
        )
        assert RecommendRequest.from_json(request.to_json()) == request

    def test_to_dict_omits_defaults(self):
        payload = RecommendRequest(users=(1,)).to_dict()
        assert "tenant" not in payload and "with_scores" not in payload
        assert "n_sweeps" not in payload  # top-N requests carry no solver budget

    def test_unknown_field_is_a_typed_error(self):
        with pytest.raises(ConfigurationError, match="nitems"):
            RecommendRequest.from_dict({"users": [1], "nitems": 5})

    def test_non_object_frames_rejected(self):
        with pytest.raises(ConfigurationError):
            RecommendRequest.from_dict([1, 2])
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            RecommendRequest.from_json("{oops")


# --------------------------------------------------------------------------- #
# RecommendResponse
# --------------------------------------------------------------------------- #
class TestRecommendResponse:
    def test_json_roundtrip(self):
        padded = TopNResult.from_rows(
            [np.array([3, 1, 2]), np.array([5])],
            scores=[np.array([0.9, 0.5, 0.1]), np.array([0.7])],
        )
        float32 = TopNResult(
            np.array([[4, 2], [6, -1]], dtype=np.int32),
            np.array([2, 1], dtype=np.int32),
            np.array([[0.8, 0.3], [0.6, -np.inf]], dtype=np.float32),
        )
        for rankings in (padded, float32, TopNResult.empty(width=4, with_scores=True)):
            response = RecommendResponse(
                rankings=rankings,
                generation=4,
                queue_ms=1.5,
                serve_ms=2.5,
                batch_id=9,
                batch_requests=3,
                batch_users=12,
            )
            decoded = RecommendResponse.from_json(response.to_json())
            assert decoded.rankings == response.rankings
            # The decoded block is float64; float32 scores widen exactly.
            assert len(decoded.scores) == len(response.scores)
            for got, sent in zip(decoded.scores, response.scores):
                assert got.dtype == np.float64
                assert np.array_equal(got, sent.astype(np.float64))
            assert decoded.to_json() == response.to_json()
            assert decoded.generation == 4
            assert decoded.batch_id == 9
            assert decoded.queue_ms == pytest.approx(1.5)
        # Score rows must line up with the ranking rows entry for entry.
        for scores in ([[0.9, 0.5], [0.7]], [[0.9, 0.5, 0.1]], [[0.9, 0.5, 0.1], [0.7, 0.2]]):
            frame = {"rankings": [[3, 1, 2], [5]], "generation": 1, "scores": scores}
            with pytest.raises(ConfigurationError, match="malformed response frame"):
                RecommendResponse.from_dict(frame)
        # A response holds one ranking shape, never a list of row arrays.
        with pytest.raises(ConfigurationError, match="TopNResult"):
            RecommendResponse(rankings=[np.array([3, 1])], generation=1)

    def test_lenient_decode_ignores_gateway_envelope(self):
        frame = {"id": 7, "ok": True, "rankings": [[1, 2]], "generation": 3}
        decoded = RecommendResponse.from_dict(frame)
        assert decoded.generation == 3
        assert decoded.scores is None
        assert np.array_equal(decoded.rankings[0], [1, 2])

    @pytest.mark.parametrize(
        "frame",
        [
            {"rankings": [[1.7, 2.2]]},  # fractional ids are not ids
            {"rankings": [[2**40]]},  # would wrap in the int32 block
            {"rankings": [[-(2**31) - 1]]},
            {"rankings": [["a"]]},
            {"rankings": 5},
            {"rankings": [[1, 2]], "scores": 5},
            {"rankings": [[1, 2]], "scores": [[0.5, "a"]]},
            {"rankings": [[1, 2]], "generation": "x"},
            {"rankings": [[1, 2]], "batch_users": 1.5},
            {"rankings": [[1, 2]], "queue_ms": "slow"},
            {"rankings": [[1, 2]], "serve_ms": [1.0]},
        ],
        ids=[
            "fractional-id", "id-past-int32", "id-below-int32", "string-id",
            "scalar-rankings", "scalar-scores", "string-score", "string-generation",
            "fractional-counter", "string-queue-ms", "list-serve-ms",
        ],
    )
    def test_malformed_frame_is_a_typed_error(self, frame):
        with pytest.raises(ConfigurationError, match="malformed response frame"):
            RecommendResponse.from_dict(frame)

    def test_decoder_takes_the_request_integer_rule(self):
        frame = {"rankings": [[1.0, "2", 3]], "generation": "4", "batch_requests": 2.0}
        decoded = RecommendResponse.from_dict(frame)
        assert decoded.rankings == [[1, 2, 3]]
        assert (decoded.generation, decoded.batch_requests) == (4, 2)

    def test_wire_frames_are_compact_json(self):
        text = RecommendRequest(users=(1,)).to_json()
        assert "\n" not in text and " " not in text
        json.loads(text)


# --------------------------------------------------------------------------- #
# The runtime dispatcher
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def runtime():
    matrix = make_netflix_like(n_users=100, n_items=40, random_state=0)
    model = OCuLaR(
        n_coclusters=5, regularization=5.0, max_iterations=3, tolerance=0.0, random_state=0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with RecommenderRuntime(executor="serial") as rt:
            rt.fit(model, matrix)
            rt.publish()
            yield rt


class TestRuntimeDispatcher:
    def test_topn_request_matches_engine(self, runtime):
        request = RecommendRequest(users=(0, 3, 7), n_items=5)
        response = runtime.recommend(request)
        expected = runtime.engine.topn([0, 3, 7], n_items=5)
        assert all(np.array_equal(a, b) for a, b in zip(response.rankings, expected))
        assert response.generation == runtime.generation
        assert response.scores is None
        assert response.batch_requests == 1
        assert response.batch_users == 3
        assert response.serve_ms >= 0.0

    def test_with_scores_matches_engine(self, runtime):
        request = RecommendRequest(users=(1, 4), n_items=6, with_scores=True)
        response = runtime.recommend(request)
        ranked = runtime.engine.topn([1, 4], n_items=6, with_scores=True)
        scores = ranked.score_rows()
        assert all(np.array_equal(a, b) for a, b in zip(response.rankings, ranked))
        assert all(np.allclose(a, b) for a, b in zip(response.scores, scores))

    def test_folded_request_dispatches(self, runtime):
        request = RecommendRequest(interactions=((1, 2, 3), (5,)), n_items=5)
        response = runtime.recommend(request)
        assert len(response.rankings) == 2
        assert all(len(row) == 5 for row in response.rankings)

    def test_session_pins_generation(self, runtime):
        request = RecommendRequest(users=(2,), n_items=3)
        with runtime.serving_session() as session:
            response = session.recommend(request)
        assert response.generation == session.generation

    def test_rejects_non_request(self, runtime):
        with pytest.raises(ConfigurationError, match="RecommendRequest"):
            runtime.recommend([0, 1, 2])

    @pytest.mark.parametrize("users", [(100,), (3, 100), (-1,), (-1, 100), (2**40,)])
    def test_user_outside_the_corpus_is_a_configuration_error(self, runtime, users):
        # One typed error with one wording on both sides of the corpus.
        with pytest.raises(ConfigurationError, match=r"must lie in \[0, 100\)"):
            runtime.recommend(RecommendRequest(users=users))

    def test_default_tenant_constant(self):
        assert RecommendRequest(users=(1,)).tenant == DEFAULT_TENANT
