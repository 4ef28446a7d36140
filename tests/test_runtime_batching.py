"""Tests for the micro-batching request front-end: coalescing correctness
(batched rankings exactly equal the unbatched per-request path), the latency
bound and size cap, drain-on-close semantics and the batching stats snapshot."""

from __future__ import annotations

import threading
import time
import warnings

import numpy as np
import pytest

from repro.api import RecommendRequest
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.runtime import BatchingFrontEnd, BatchingStats, RecommenderRuntime
from repro.runtime.batching import _arrival_rate
from repro.serving.batch import merge_request_lists, scatter_results

#: Generous wall-clock bound for any future in this suite: far above every
#: configured max_delay_ms, far below the CI job timeout, so a deadlocked
#: dispatcher fails the test instead of hanging the run.
RESULT_TIMEOUT = 60.0


def _model(**overrides):
    settings = dict(
        n_coclusters=6,
        regularization=5.0,
        max_iterations=3,
        tolerance=0.0,
        random_state=0,
    )
    settings.update(overrides)
    return OCuLaR(**settings)


@pytest.fixture(scope="module")
def corpus():
    matrix, _spec = make_netflix_like(n_users=150, n_items=60, random_state=0)
    return matrix


@pytest.fixture(scope="module")
def runtime(corpus):
    """One published process-backed runtime shared by the whole module."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with RecommenderRuntime(executor="process", max_workers=2) as rt:
            rt.fit(_model(), corpus)
            rt.publish()
            yield rt


def _topn(runtime, users, **kwargs):
    return runtime.recommend(RecommendRequest(users=users, **kwargs)).rankings


def _folded(runtime, interactions, **kwargs):
    return runtime.recommend(
        RecommendRequest(interactions=interactions, **kwargs)
    ).rankings


# --------------------------------------------------------------------------- #
# Merge / scatter helpers
# --------------------------------------------------------------------------- #
class TestMergeScatter:
    def test_roundtrip(self):
        lists = [[1, 2, 3], [], [4], [5, 6]]
        merged, spans = merge_request_lists(lists)
        assert merged == [1, 2, 3, 4, 5, 6]
        assert spans == [(0, 3), (3, 3), (3, 4), (4, 6)]
        assert scatter_results(merged, spans) == [list(x) for x in lists]

    def test_duplicates_keep_their_spans(self):
        merged, spans = merge_request_lists([[7, 8], [8, 7]])
        assert merged == [7, 8, 8, 7]
        first, second = scatter_results(["a", "b", "c", "d"], spans)
        assert first == ["a", "b"] and second == ["c", "d"]

    def test_short_results_rejected(self):
        _merged, spans = merge_request_lists([[1, 2], [3]])
        with pytest.raises(ValueError):
            scatter_results(["only-one"], spans)

    def test_empty(self):
        assert merge_request_lists([]) == ([], [])
        assert scatter_results([], []) == []


# --------------------------------------------------------------------------- #
# Coalescing correctness: batched == unbatched, request by request
# --------------------------------------------------------------------------- #
class TestBatchedCorrectness:
    def test_topn_equals_unbatched_per_request(self, runtime):
        requests = [[0, 1], [5], [10, 11, 12], [1, 0], [40]]
        expected = [_topn(runtime, users, n_items=6) for users in requests]
        with BatchingFrontEnd(runtime, max_delay_ms=20, max_batch_users=64) as front:
            futures = [
                front.submit_request(RecommendRequest(users=users, n_items=6))
                for users in requests
            ]
            for users, future, want in zip(requests, futures, expected):
                response = future.result(timeout=RESULT_TIMEOUT)
                assert len(response.rankings) == len(users)
                for got, ref in zip(response.rankings, want):
                    assert np.array_equal(got, ref)

    def test_duplicate_users_across_requests(self, runtime):
        # Three clients ask for overlapping user sets; each gets complete,
        # correct rankings for exactly the users it asked for.
        requests = [[3, 4, 5], [5, 4], [4]]
        expected = _topn(runtime, [4], n_items=5)[0]
        with BatchingFrontEnd(runtime, max_delay_ms=20) as front:
            futures = [
                front.submit_request(RecommendRequest(users=users, n_items=5))
                for users in requests
            ]
            responses = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        assert np.array_equal(responses[0].rankings[1], expected)
        assert np.array_equal(responses[1].rankings[1], expected)
        assert np.array_equal(responses[2].rankings[0], expected)

    def test_folded_equals_unbatched_per_request(self, runtime):
        requests = [[[1, 5, 9], [2, 3]], [[0, 10, 20]], [[], [7]]]
        expected = [
            _folded(runtime, batch, n_items=6, n_sweeps=8) for batch in requests
        ]
        with BatchingFrontEnd(runtime, max_delay_ms=20) as front:
            futures = [
                front.submit_request(
                    RecommendRequest(interactions=batch, n_items=6, n_sweeps=8)
                )
                for batch in requests
            ]
            for batch, future, want in zip(requests, futures, expected):
                response = future.result(timeout=RESULT_TIMEOUT)
                assert len(response.rankings) == len(batch)
                for got, ref in zip(response.rankings, want):
                    assert np.array_equal(got, ref)

    def test_mixed_kinds_and_options_in_one_batch(self, runtime):
        # Different n_items and kinds coalesce into one micro-batch but are
        # grouped per option set; each request still gets its own shape.
        expected_5 = _topn(runtime, [2, 3], n_items=5)
        expected_9 = _topn(runtime, [2], n_items=9)
        expected_fold = _folded(runtime, [[1, 2]], n_items=4, n_sweeps=5)
        with BatchingFrontEnd(runtime, max_delay_ms=50) as front:
            f5 = front.submit_request(RecommendRequest(users=(2, 3), n_items=5))
            f9 = front.submit_request(RecommendRequest(users=(2,), n_items=9))
            ff = front.submit_request(
                RecommendRequest(interactions=((1, 2),), n_items=4, n_sweeps=5)
            )
            r5 = f5.result(timeout=RESULT_TIMEOUT)
            r9 = f9.result(timeout=RESULT_TIMEOUT)
            rf = ff.result(timeout=RESULT_TIMEOUT)
        assert r5.batch_id == r9.batch_id == rf.batch_id  # one batch...
        assert r5.batch_requests == 3
        for got, ref in zip(r5.rankings, expected_5):
            assert np.array_equal(got, ref)  # ...but per-request options hold
        assert len(r9.rankings[0]) == 9
        assert np.array_equal(r9.rankings[0], expected_9[0])
        assert np.array_equal(rf.rankings[0], expected_fold[0])

    def test_scores_scatter_per_request(self, runtime):
        # Two with_scores requests coalesce; each gets exactly its own
        # score rows, aligned with its rankings.
        with BatchingFrontEnd(runtime, max_delay_ms=20) as front:
            fa = front.submit_request(
                RecommendRequest(users=(0, 1), n_items=5, with_scores=True)
            )
            fb = front.submit_request(
                RecommendRequest(users=(2,), n_items=5, with_scores=True)
            )
            ra = fa.result(timeout=RESULT_TIMEOUT)
            rb = fb.result(timeout=RESULT_TIMEOUT)
        expected = runtime.engine.topn([0, 1, 2], n_items=5, with_scores=True).score_rows()
        assert len(ra.scores) == 2 and len(rb.scores) == 1
        assert np.allclose(ra.scores[0], expected[0])
        assert np.allclose(ra.scores[1], expected[1])
        assert np.allclose(rb.scores[0], expected[2])

    def test_empty_request_resolves_empty(self, runtime):
        with BatchingFrontEnd(runtime, max_delay_ms=5) as front:
            response = front.submit_request(RecommendRequest(users=())).result(
                timeout=RESULT_TIMEOUT
            )
            assert response.rankings == []

    def test_blocking_recommend(self, runtime):
        expected = _topn(runtime, [8, 9], n_items=5)
        expected_fold = _folded(runtime, [[4, 5]], n_items=5, n_sweeps=5)
        with BatchingFrontEnd(runtime, max_delay_ms=5) as front:
            got = front.recommend(
                RecommendRequest(users=(8, 9), n_items=5), timeout=RESULT_TIMEOUT
            )
            for have, want in zip(got.rankings, expected):
                assert np.array_equal(have, want)
            folded = front.recommend(
                RecommendRequest(interactions=((4, 5),), n_items=5, n_sweeps=5),
                timeout=RESULT_TIMEOUT,
            )
            assert np.array_equal(folded.rankings[0], expected_fold[0])

    def test_coalescing_reduces_runtime_calls(self, runtime):
        before = runtime.serving_calls
        n_requests = 12
        with BatchingFrontEnd(runtime, max_delay_ms=200, max_batch_users=512) as front:
            futures = [
                front.submit_request(RecommendRequest(users=(u,), n_items=5))
                for u in range(n_requests)
            ]
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT)
        # 12 requests must not have cost 12 sharded dispatches.
        assert runtime.serving_calls - before < n_requests

    def test_local_path_runtime_also_batches(self, corpus):
        # The front-end is executor-agnostic: a thread runtime (local serving
        # path, no shared memory) coalesces identically.
        with RecommenderRuntime(executor="thread", max_workers=2) as rt:
            rt.fit(_model(), corpus)
            rt.publish()
            expected = _topn(rt, [0, 1, 2], n_items=5)
            with BatchingFrontEnd(rt, max_delay_ms=10) as front:
                response = front.submit_request(
                    RecommendRequest(users=(0, 1, 2), n_items=5)
                ).result(timeout=RESULT_TIMEOUT)
            for got, ref in zip(response.rankings, expected):
                assert np.array_equal(got, ref)


# --------------------------------------------------------------------------- #
# Latency bound and size cap
# --------------------------------------------------------------------------- #
class TestBatchFormation:
    def test_lone_request_not_held_past_delay(self, runtime):
        # With a 10s latency bound a lone request would sit for 10s if the
        # bound were the only trigger... and with a 50ms bound it must not.
        with BatchingFrontEnd(runtime, max_delay_ms=50, max_batch_users=512) as front:
            start = time.monotonic()
            response = front.submit_request(
                RecommendRequest(users=(1, 2), n_items=5)
            ).result(timeout=RESULT_TIMEOUT)
            elapsed = time.monotonic() - start
        assert response.batch_requests == 1
        # Dispatch + serving margin on a loaded CI box; the point is that it
        # is nowhere near a multiple of the bound, let alone unbounded.
        assert elapsed < 10.0
        assert response.queue_ms < 10_000.0

    def test_size_cap_seals_before_deadline(self, runtime):
        # The latency bound is far beyond the test timeout; only the size
        # cap can seal the batch, so resolving at all proves the cap works.
        with BatchingFrontEnd(
            runtime, max_delay_ms=300_000, max_batch_users=8
        ) as front:
            futures = [
                front.submit_request(RecommendRequest(users=(u, u + 1), n_items=5))
                for u in range(4)
            ]
            responses = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        assert responses[0].batch_users == 8

    def test_oversized_request_dispatched_alone(self, runtime):
        with BatchingFrontEnd(
            runtime, max_delay_ms=300_000, max_batch_users=4
        ) as front:
            big = front.submit_request(
                RecommendRequest(users=tuple(range(10)), n_items=5)
            )
            response = big.result(timeout=RESULT_TIMEOUT)
        assert response.batch_requests == 1
        assert response.batch_users == 10
        assert len(response.rankings) == 10

    def test_cap_leftover_rides_next_batch(self, runtime):
        # 3 x 3 users against a cap of 6: the third request exceeds the cap
        # and must ride a second batch — never be split across batches.
        with BatchingFrontEnd(runtime, max_delay_ms=100, max_batch_users=6) as front:
            futures = [
                front.submit_request(
                    RecommendRequest(users=(u, u + 1, u + 2), n_items=5)
                )
                for u in (0, 10, 20)
            ]
            responses = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
        assert responses[0].batch_id == responses[1].batch_id
        assert responses[2].batch_id != responses[0].batch_id
        assert all(len(r.rankings) == 3 for r in responses)

    def test_generation_recorded_on_response(self, runtime):
        with BatchingFrontEnd(runtime, max_delay_ms=5) as front:
            response = front.submit_request(
                RecommendRequest(users=(0,), n_items=5)
            ).result(timeout=RESULT_TIMEOUT)
        assert response.generation == runtime.generation

    def test_queue_ms_reported_on_response(self, runtime):
        with BatchingFrontEnd(runtime, max_delay_ms=5) as front:
            response = front.submit_request(
                RecommendRequest(users=(0,), n_items=5)
            ).result(timeout=RESULT_TIMEOUT)
        assert response.queue_ms >= 0.0
        assert response.queue_ms < RESULT_TIMEOUT * 1000.0
        assert response.serve_ms >= 0.0


# --------------------------------------------------------------------------- #
# Lifecycle: drain-on-close, rejection after close, error propagation
# --------------------------------------------------------------------------- #
class TestLifecycle:
    def test_close_drains_pending_requests(self, runtime):
        expected = _topn(runtime, [3], n_items=5)[0]
        # The latency bound alone would hold these for five minutes; close()
        # must dispatch them instead of abandoning their futures.
        front = BatchingFrontEnd(runtime, max_delay_ms=300_000, max_batch_users=10_000)
        futures = [
            front.submit_request(RecommendRequest(users=(3,), n_items=5))
            for _ in range(5)
        ]
        front.close()
        for future in futures:
            response = future.result(timeout=RESULT_TIMEOUT)
            assert np.array_equal(response.rankings[0], expected)
        assert front.pending_requests == 0

    def test_context_exit_drains(self, runtime):
        with BatchingFrontEnd(runtime, max_delay_ms=300_000) as front:
            future = front.submit_request(RecommendRequest(users=(1,), n_items=5))
        assert future.result(timeout=RESULT_TIMEOUT).rankings

    def test_closed_front_end_rejects_submissions(self, runtime):
        front = BatchingFrontEnd(runtime, max_delay_ms=5)
        front.close()
        front.close()  # idempotent
        assert front.closed
        with pytest.raises(ConfigurationError):
            front.submit_request(RecommendRequest(users=(0,)))

    def test_unpublished_runtime_fails_futures_not_frontend(self, corpus):
        # A batch against a runtime with no published version resolves every
        # future with NotFittedError; the front-end itself stays usable.
        with RecommenderRuntime(executor="serial") as rt:
            with BatchingFrontEnd(rt, max_delay_ms=5) as front:
                future = front.submit_request(RecommendRequest(users=(0,), n_items=5))
                with pytest.raises(NotFittedError):
                    future.result(timeout=RESULT_TIMEOUT)
                rt.fit(_model(), corpus)
                rt.publish()
                assert front.submit_request(
                    RecommendRequest(users=(0,), n_items=5)
                ).result(timeout=RESULT_TIMEOUT).rankings

    def test_cancelled_request_does_not_poison_the_batch(self, runtime):
        # A client that cancels while its request is queued must not kill
        # the dispatcher: the cancelled future is dropped and every other
        # request in the same batch still resolves correctly.
        expected = _topn(runtime, [6], n_items=5)[0]
        with BatchingFrontEnd(runtime, max_delay_ms=150, max_batch_users=512) as front:
            doomed = front.submit_request(RecommendRequest(users=(0, 1), n_items=5))
            survivor = front.submit_request(RecommendRequest(users=(6,), n_items=5))
            assert doomed.cancel()  # still PENDING in the queue
            response = survivor.result(timeout=RESULT_TIMEOUT)
            assert np.array_equal(response.rankings[0], expected)
            assert doomed.cancelled()
            # The dispatcher survived: the front-end keeps serving.
            again = front.submit_request(
                RecommendRequest(users=(6,), n_items=5)
            ).result(timeout=RESULT_TIMEOUT)
            assert np.array_equal(again.rankings[0], expected)

    @pytest.mark.parametrize(
        "good, bad, error",
        [
            (dict(users=(3,)), dict(users=(-151,)), ConfigurationError),
            (dict(users=(3, 4)), dict(users=(150,)), ConfigurationError),
            (dict(interactions=((2, 9),)), dict(interactions=((9999,),)), DataError),
        ],
    )
    def test_bad_request_fails_alone_in_its_batch(self, runtime, good, bad, error):
        # Three requests with equal options merge into one runtime call; the
        # offender's error must not be handed to its batch-mates.
        good_request = RecommendRequest(n_items=5, tenant="a", **good)
        expected = runtime.recommend(good_request)
        with BatchingFrontEnd(runtime, max_delay_ms=200) as front:
            first = front.submit_request(good_request)
            offender = front.submit_request(RecommendRequest(n_items=5, tenant="b", **bad))
            last = front.submit_request(good_request)
            with pytest.raises(error):
                offender.result(timeout=RESULT_TIMEOUT)
            for future in (first, last):
                response = future.result(timeout=RESULT_TIMEOUT)
                assert response.generation == expected.generation
                assert response.batch_requests == 3
                assert len(response.rankings) == good_request.n_rows
                for got, want in zip(response.rankings, expected.rankings):
                    assert np.array_equal(got, want)
            assert front.stats().batches == 1

    def test_queue_seconds_excludes_serving_time(self, runtime):
        # queue_ms is submission-to-dispatch, consistent with the
        # BatchingStats percentiles — bounded by the latency window even
        # though serving the batch itself takes additional time.
        with BatchingFrontEnd(runtime, max_delay_ms=30, max_batch_users=512) as front:
            response = front.submit_request(
                RecommendRequest(users=tuple(range(100)), n_items=5)
            ).result(timeout=RESULT_TIMEOUT)
            stats = front.stats()
        assert response.queue_ms <= stats.queue_max_ms + 1e-6

    def test_invalid_parameters_rejected(self, runtime):
        with pytest.raises(ConfigurationError):
            BatchingFrontEnd(runtime, max_delay_ms=-1)
        with pytest.raises(ConfigurationError):
            BatchingFrontEnd(runtime, max_batch_users=0)
        with pytest.raises(ConfigurationError):
            BatchingFrontEnd(runtime, adaptive="yes")
        with pytest.raises(ConfigurationError):
            # A hand-built delay controller is no longer a way in.
            BatchingFrontEnd(runtime, adaptive=type("Controller", (), {"delay_ms": 0.0})())
        with BatchingFrontEnd(runtime) as front:
            with pytest.raises(ConfigurationError):
                front.submit_request([0, 1])  # not a RecommendRequest


# --------------------------------------------------------------------------- #
# Stats
# --------------------------------------------------------------------------- #
class TestBatchingStats:
    def test_counts_and_occupancy(self, runtime):
        with BatchingFrontEnd(runtime, max_delay_ms=100, max_batch_users=512) as front:
            futures = [
                front.submit_request(RecommendRequest(users=(u, u + 1), n_items=5))
                for u in range(6)
            ]
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT)
            stats = front.stats()
        assert isinstance(stats, BatchingStats)
        assert stats.requests == 6
        assert stats.users == 12
        assert 1 <= stats.batches <= 6
        assert stats.mean_occupancy == stats.users / stats.batches
        assert stats.mean_requests_per_batch == stats.requests / stats.batches
        assert 0.0 <= stats.queue_p50_ms <= stats.queue_p95_ms <= stats.queue_max_ms

    def test_fresh_front_end_reports_zeros(self, runtime):
        with BatchingFrontEnd(runtime, max_delay_ms=5) as front:
            stats = front.stats()
        assert stats.batches == 0
        assert stats.requests == 0
        assert stats.mean_occupancy == 0.0
        assert stats.queue_max_ms == 0.0
        assert stats.pending_requests == 0

    def test_snapshot_reports_delay_pending_and_rate(self, runtime):
        with BatchingFrontEnd(runtime, max_delay_ms=7) as front:
            future = front.submit_request(RecommendRequest(users=(0,), n_items=5))
            stats = front.stats()
            assert stats.current_delay_ms == 7.0
            assert stats.arrival_rate_rps > 0.0
            future.result(timeout=RESULT_TIMEOUT)
        payload = front.stats().as_dict()
        assert payload["current_delay_ms"] == 7.0
        assert set(payload) == {
            "batches",
            "requests",
            "users",
            "mean_occupancy",
            "mean_requests_per_batch",
            "queue_p50_ms",
            "queue_p95_ms",
            "queue_max_ms",
            "current_delay_ms",
            "pending_requests",
            "arrival_rate_rps",
        }

    @pytest.mark.parametrize("rate", [10, 1000, 5000, 50_000])
    def test_arrival_rate_is_not_capped_by_the_stamp_window(self, rate):
        # Ten seconds of steady arrivals ending at `now`, of which the
        # front-end's deque keeps the newest 4096.
        now = 500.0
        stamps = [now - i / rate for i in range(10 * rate)][::-1][-4096:]
        assert _arrival_rate(stamps, now) == pytest.approx(rate, rel=0.01)

    def test_arrival_rate_of_idle_and_stale_traffic_is_zero(self):
        assert _arrival_rate([], 500.0) == 0.0
        assert _arrival_rate([1.0, 2.0, 3.0], 500.0) == 0.0
        # A burst that filled the deque, then silence: all of it has expired.
        assert _arrival_rate([100.0 + i * 1e-4 for i in range(4096)], 500.0) == 0.0

    def test_queue_latency_reflects_accumulation(self, runtime):
        # Two requests submitted together: the first opens the window, both
        # wait ~max_delay_ms (the cap is far away), so p50 >= the bound.
        with BatchingFrontEnd(runtime, max_delay_ms=40, max_batch_users=512) as front:
            futures = [
                front.submit_request(RecommendRequest(users=(u,), n_items=5))
                for u in (0, 1)
            ]
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT)
            stats = front.stats()
        assert stats.queue_p50_ms >= 25.0  # scheduling jitter margin below 40

    def test_concurrent_submitters_all_answered(self, runtime):
        # A smaller sibling of the stress suite that always runs: 8 threads
        # x 5 requests through one front-end, every future correct.
        expected = {u: _topn(runtime, [u], n_items=5)[0] for u in range(8)}
        errors: list = []
        with BatchingFrontEnd(runtime, max_delay_ms=5, max_batch_users=64) as front:

            def client(user: int) -> None:
                try:
                    for _ in range(5):
                        response = front.recommend(
                            RecommendRequest(users=(user,), n_items=5),
                            timeout=RESULT_TIMEOUT,
                        )
                        assert np.array_equal(response.rankings[0], expected[user])
                except Exception as exc:  # pragma: no cover - failure mode
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(u,)) for u in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=RESULT_TIMEOUT)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert front.stats().requests == 40


# --------------------------------------------------------------------------- #
# One sealing rule: hold for max_delay_ms, or (adaptive=True) not at all
# --------------------------------------------------------------------------- #
class TestAdaptiveFrontEnd:
    def test_static_front_end_has_no_controller(self, runtime):
        with BatchingFrontEnd(runtime, max_delay_ms=8) as front:
            assert front.current_delay_ms == 8.0


class TestHoldOnlyForCompany:
    #: The static hold is a quarter second, so a held request is unmistakable
    #: without any tight timing threshold.
    HOLD_MS = 250.0

    def _front(self, runtime):
        return BatchingFrontEnd(runtime, max_delay_ms=self.HOLD_MS, adaptive=True)

    def test_lone_requests_are_sealed_at_once(self, runtime):
        expected = [_topn(runtime, [u], n_items=5)[0] for u in range(20)]
        with self._front(runtime) as front:
            assert front.current_delay_ms == front.stats().current_delay_ms == 0.0
            responses = [
                front.recommend(RecommendRequest(users=(u,), n_items=5), timeout=RESULT_TIMEOUT)
                for u in range(20)
            ]
            assert front.current_delay_ms == front.stats().current_delay_ms == 0.0
        # Nobody waits, the first request of a fresh front-end included.
        assert all(response.queue_ms < 50.0 for response in responses)
        assert all(response.batch_requests == 1 for response in responses)
        for response, want in zip(responses, expected):
            assert np.array_equal(response.rankings[0], want)

    def test_concurrent_submitters_still_coalesce(self, runtime):
        expected = {u: _topn(runtime, [u], n_items=5)[0] for u in range(8)}
        mismatches: list = []
        with self._front(runtime) as front:

            def client(user: int) -> None:
                for _ in range(10):
                    response = front.recommend(
                        RecommendRequest(users=(user,), n_items=5), timeout=RESULT_TIMEOUT
                    )
                    if not np.array_equal(response.rankings[0], expected[user]):
                        mismatches.append(user)

            threads = [threading.Thread(target=client, args=(u,)) for u in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=RESULT_TIMEOUT)
            assert not any(thread.is_alive() for thread in threads)
            stats = front.stats()
        assert not mismatches
        assert stats.requests == 80
        assert stats.mean_requests_per_batch > 1.0

    def test_static_delay_is_a_promise_to_hold(self, runtime):
        with BatchingFrontEnd(runtime, max_delay_ms=self.HOLD_MS) as front:
            lone = front.recommend(
                RecommendRequest(users=(3,), n_items=5), timeout=RESULT_TIMEOUT
            )
            assert lone.queue_ms >= 200.0 and lone.batch_requests == 1
            futures = [
                front.submit_request(RecommendRequest(users=(u,), n_items=5))
                for u in range(6)
            ]
            merged = [future.result(timeout=RESULT_TIMEOUT) for future in futures]
        assert {response.batch_requests for response in merged} == {6}
        assert len({response.batch_id for response in merged}) == 1
        assert merged[0].queue_ms >= 200.0


# --------------------------------------------------------------------------- #
# Many client threads, many rows per request
# --------------------------------------------------------------------------- #
class TestConcurrentMultiRowRequests:
    N_CLIENTS, N_ROUNDS = 4, 6

    def _request(self, kind, index, rows_per_request):
        if kind == "known":
            users = tuple(
                (index * rows_per_request + row) % 150 for row in range(rows_per_request)
            )
            return RecommendRequest(users=users, n_items=5)
        interactions = tuple(
            tuple((7 * index + 3 * row + step) % 60 for step in range(3))
            for row in range(rows_per_request)
        )
        return RecommendRequest(interactions=interactions, n_items=5, n_sweeps=5)

    @pytest.mark.parametrize("rows_per_request", [2, 4])
    @pytest.mark.parametrize("kind", ["known", "cold"])
    def test_requests_coalesce_and_rank_as_unbatched(
        self, runtime, kind, rows_per_request
    ):
        n_requests = self.N_CLIENTS * self.N_ROUNDS
        requests = [
            self._request(kind, index, rows_per_request) for index in range(n_requests)
        ]
        expected = [runtime.recommend(request).rankings for request in requests]
        mismatches: list = []
        before = runtime.serving_calls
        with BatchingFrontEnd(runtime, max_delay_ms=20, max_batch_users=512) as front:

            def client(first: int) -> None:
                for index in range(first, n_requests, self.N_CLIENTS):
                    response = front.recommend(requests[index], timeout=RESULT_TIMEOUT)
                    got = response.rankings
                    if len(got) != rows_per_request or not all(
                        np.array_equal(have, want)
                        for have, want in zip(got, expected[index])
                    ):
                        mismatches.append(index)

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(self.N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=RESULT_TIMEOUT)
            assert not any(thread.is_alive() for thread in threads)
            stats = front.stats()
        assert not mismatches
        assert stats.requests == n_requests
        # Coalescing is real: fewer dispatches than requests, and a batch
        # carries more rows than any one request brings.
        assert runtime.serving_calls - before < n_requests
        assert stats.mean_occupancy > rows_per_request
