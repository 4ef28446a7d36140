"""Tests for the asyncio serving gateway: wire-protocol correctness (gateway
responses exactly equal the in-process engine), per-frame failure containment
(malformed frames, disconnects, unpublished models), generation pinning
through the network layer across mid-flight model swaps, drain-on-close, and
per-tenant fairness under a flooding tenant."""

from __future__ import annotations

import json
import threading
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import RecommendRequest
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.exceptions import ConfigurationError
from repro.runtime import (
    BatchingFrontEnd,
    GatewayClient,
    GatewayError,
    GatewayThread,
    RecommenderRuntime,
    WeightedFairQueue,
)

#: Generous wall-clock bound for any blocking wait in this suite: far above
#: every configured delay, far below the CI job timeout, so a deadlock fails
#: the test instead of hanging the run.
RESULT_TIMEOUT = 60.0


def _model(**overrides):
    settings = dict(
        n_coclusters=5,
        regularization=5.0,
        max_iterations=3,
        tolerance=0.0,
        random_state=0,
    )
    settings.update(overrides)
    return OCuLaR(**settings)


def _wait_until(predicate, timeout=RESULT_TIMEOUT, interval=0.002):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture(scope="module")
def corpus():
    matrix, _spec = make_netflix_like(n_users=120, n_items=50, random_state=0)
    return matrix


@pytest.fixture(scope="module")
def runtime(corpus):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with RecommenderRuntime(executor="serial") as rt:
            rt.fit(_model(), corpus)
            rt.publish()
            yield rt


@pytest.fixture()
def gateway(runtime):
    with BatchingFrontEnd(runtime, max_delay_ms=2) as front:
        with GatewayThread(front) as gw:
            yield gw


@pytest.fixture()
def client(gateway):
    host, port = gateway.address
    with GatewayClient(host, port, timeout=RESULT_TIMEOUT) as c:
        yield c


# --------------------------------------------------------------------------- #
# Wire-protocol correctness
# --------------------------------------------------------------------------- #
class TestWireProtocol:
    def test_topn_parity_with_engine(self, runtime, client):
        request = RecommendRequest(users=(0, 3, 7, 7), n_items=6)
        response = client.recommend(request)
        expected = runtime.engine.topn([0, 3, 7, 7], n_items=6)
        assert len(response.rankings) == 4
        assert all(np.array_equal(a, b) for a, b in zip(response.rankings, expected))
        assert response.generation == runtime.generation

    def test_folded_parity_with_runtime(self, runtime, client):
        request = RecommendRequest(interactions=((1, 2, 3), (9,)), n_items=5)
        response = client.recommend(request)
        expected = runtime.recommend(request)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(response.rankings, expected.rankings)
        )

    def test_scores_travel_the_wire(self, runtime, client):
        request = RecommendRequest(users=(2, 5), n_items=4, with_scores=True)
        response = client.recommend(request)
        scores = runtime.engine.topn([2, 5], n_items=4, with_scores=True).score_rows()
        assert all(np.allclose(a, b) for a, b in zip(response.scores, scores))

    def test_empty_request_serves_empty(self, client):
        response = client.recommend(RecommendRequest(users=(), n_items=3))
        assert response.rankings == []

    def test_pipelined_frames_echo_ids(self, gateway):
        host, port = gateway.address
        with GatewayClient(host, port, timeout=RESULT_TIMEOUT) as c:
            for i in range(10):
                c.send_frame({"id": f"frame-{i}", "users": [i], "n_items": 3})
            seen = {c.recv_frame()["id"] for _ in range(10)}
        assert seen == {f"frame-{i}" for i in range(10)}

    def test_frames_of_one_batch_are_each_answered_with_their_own_id(self, runtime):
        # The size cap seals all eight frames into one batch, whose responses
        # cross to the event loop together; each must reach its own frame.
        expected = runtime.engine.topn(list(range(8)), n_items=4)
        with BatchingFrontEnd(runtime, max_delay_ms=30_000, max_batch_users=8) as front:
            with GatewayThread(front) as gw:
                with GatewayClient(*gw.address, timeout=RESULT_TIMEOUT) as c:
                    for user in range(8):
                        c.send_frame({"id": f"u{user}", "users": [user], "n_items": 4})
                    frames = {frame["id"]: frame for frame in (c.recv_frame() for _ in range(8))}
        assert set(frames) == {f"u{user}" for user in range(8)}
        for user in range(8):
            frame = frames[f"u{user}"]
            assert frame["ok"] is True and frame["batch_requests"] == 8
            assert frame["rankings"] == [list(map(int, expected[user]))]
        assert len({frame["batch_id"] for frame in frames.values()}) == 1

    def test_stats_frame(self, client):
        client.recommend(RecommendRequest(users=(1,), n_items=3))
        stats = client.stats()
        assert stats["gateway"]["responses"] >= 1
        assert stats["gateway"]["connections"] >= 1
        assert stats["batching"]["requests"] >= 1
        assert "current_delay_ms" in stats["batching"]
        assert stats["generation"] >= 1
        # The fitted model's sweep-workspace counters ride along: the fit
        # built at least one pooled arena and reused it across sweeps.
        assert stats["training"]["iterations"] >= 1
        assert stats["training"]["peak_workspace_bytes"] > 0
        assert stats["training"]["workspace_allocations"] >= 1
        assert stats["training"]["workspace_reuses"] > 0

    def test_concurrent_connections_all_served(self, runtime, gateway):
        host, port = gateway.address
        expected = runtime.engine.topn(list(range(20)), n_items=4)
        failures = []

        def one_client(user: int) -> None:
            try:
                with GatewayClient(host, port, timeout=RESULT_TIMEOUT) as c:
                    response = c.recommend(
                        RecommendRequest(users=(user,), n_items=4)
                    )
                    if not np.array_equal(response.rankings[0], expected[user]):
                        failures.append((user, "mismatch"))
            except Exception as error:  # pragma: no cover - failure reporting
                failures.append((user, repr(error)))

        threads = [
            threading.Thread(target=one_client, args=(user,)) for user in range(20)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=RESULT_TIMEOUT)
        assert not failures


# --------------------------------------------------------------------------- #
# Failure containment
# --------------------------------------------------------------------------- #
class TestFailureModes:
    def test_malformed_json_is_per_frame(self, client):
        client._file.write(b"{this is not json\n")
        client._file.flush()
        frame = client.recv_frame()
        assert frame["ok"] is False
        assert frame["error"]["code"] == "bad-json"
        # The connection survived: the next frame serves normally.
        response = client.recommend(RecommendRequest(users=(1,), n_items=3))
        assert len(response.rankings) == 1

    def test_frame_over_default_stream_limit_is_served(self, runtime, client):
        # 128 KiB is an ordinary cold-start payload; asyncio's default 64 KiB
        # stream limit used to kill the connection with no reply.
        rows = [list(range(50))] * 1000
        request = RecommendRequest(interactions=rows, n_items=4, n_sweeps=1)
        assert len(str(request.to_dict())) > 128 * 1024
        client.send_frame({"id": "big", **request.to_dict()})
        frame = client.recv_frame()
        assert frame["ok"] is True and frame["id"] == "big"
        expected = runtime.recommend(request).rankings
        assert frame["rankings"] == [list(map(int, row)) for row in expected]

    def test_oversized_frame_gets_typed_error_and_connection_survives(self, runtime):
        with BatchingFrontEnd(runtime, max_delay_ms=2) as front:
            with GatewayThread(front, max_frame_bytes=64 * 1024) as gw:
                with GatewayClient(*gw.address, timeout=RESULT_TIMEOUT) as c:
                    c.send_frame({"id": 1, "users": [0] * (64 * 1024), "n_items": 3})
                    frame = c.recv_frame()
                    assert frame == {
                        "id": None,
                        "ok": False,
                        "error": {
                            "code": "frame-too-large",
                            "message": "frame exceeds max_frame_bytes=65536",
                        },
                    }
                    # Resynchronised at the newline: the same socket serves on,
                    # and a frame just under the limit is still a frame.
                    response = c.recommend(RecommendRequest(users=(1, 2), n_items=3))
                    expected = runtime.engine.topn([1, 2], n_items=3)
                    assert all(
                        np.array_equal(a, b) for a, b in zip(response.rankings, expected)
                    )
                    c.send_frame({"id": 2, "users": [0] * 30000, "n_items": 1})
                    assert c.recv_frame()["ok"] is True
                    assert c.stats()["gateway"]["errors"] == {"frame-too-large": 1}

    def test_non_object_frame_rejected(self, client):
        client.send_frame([1, 2, 3])
        frame = client.recv_frame()
        assert frame["error"]["code"] == "bad-json"

    def test_unknown_field_is_bad_request(self, client):
        frame = client.request({"users": [1], "nitems": 5})
        assert frame["ok"] is False
        assert frame["error"]["code"] == "bad-request"
        assert "nitems" in frame["error"]["message"]

    def test_invalid_payload_is_bad_request(self, client):
        frame = client.request({"users": [1], "interactions": [[2]]})
        assert frame["error"]["code"] == "bad-request"
        # Malformed or out-of-range ids are the client's error: never served
        # as something else, never a server-error.  (120 users, 50 items.)
        for line in (
            b'{"users": "17"}',
            b'{"users": [1.7]}',
            b'{"users": [1e999]}',
            b'{"users": [-1]}',
            b'{"users": [120]}',
            b'{"users": [3, 36893488147419103232]}',
            b'{"interactions": "17"}',
            b'{"interactions": ["17"]}',
            b'{"interactions": [[9999]]}',
            b'{"interactions": [[1, 2]], "tolerance": NaN}',
        ):
            client._file.write(line + b"\n")
            client._file.flush()
            frame = client.recv_frame()
            assert frame["ok"] is False, line
            assert frame["error"]["code"] == "bad-request", (line, frame)
        assert set(client.stats()["gateway"]["errors"]) == {"bad-request"}

    def test_fold_in_budget_over_the_ceiling_is_bad_request(self, client):
        # With tolerance 0 a fold-in runs every sweep it is asked for, on the
        # one thread that serves the batch: a budget over the ceiling is
        # refused before it reaches the runtime.
        from repro.api import MAX_FOLD_IN_SWEEPS

        for n_sweeps in (MAX_FOLD_IN_SWEEPS + 1, 10**9):
            frame = client.request(
                {"interactions": [[1, 2, 3]], "n_sweeps": n_sweeps, "tolerance": 0.0}
            )
            assert frame["ok"] is False
            assert frame["error"]["code"] == "bad-request"
            assert "n_sweeps" in frame["error"]["message"]
        response = client.recommend(
            RecommendRequest(
                interactions=((1, 2, 3),), n_sweeps=MAX_FOLD_IN_SWEEPS, tolerance=0.0
            )
        )
        assert len(response.rankings) == 1

    def test_client_raises_typed_error(self, client):
        with pytest.raises(GatewayError, match="bad-request") as excinfo:
            # Bypass client-side validation with a raw frame round-trip.
            frame = client.request({"n_items": 3})
            if not frame.get("ok"):
                error = frame["error"]
                raise GatewayError(error["code"], error["message"])
        assert excinfo.value.code == "bad-request"

    def test_unknown_op(self, client):
        frame = client.request({"op": "explode"})
        assert frame["error"]["code"] == "unknown-op"

    def test_unpublished_runtime_answers_not_fitted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with RecommenderRuntime(executor="serial") as rt:
                with BatchingFrontEnd(rt, max_delay_ms=1) as front:
                    with GatewayThread(front) as gw:
                        host, port = gw.address
                        with GatewayClient(host, port, timeout=RESULT_TIMEOUT) as c:
                            with pytest.raises(GatewayError) as excinfo:
                                c.recommend(RecommendRequest(users=(0,)))
                            assert excinfo.value.code == "not-fitted"
                            # The connection (and gateway) survived.
                            frame = c.request({"op": "stats"})
                            assert frame["ok"] is True

    def test_closing_gateway_rejects_new_frames(self, gateway, client):
        gateway.gateway._closing = True
        try:
            frame = client.request({"users": [1], "n_items": 3})
            assert frame["error"]["code"] == "closing"
        finally:
            gateway.gateway._closing = False
        response = client.recommend(RecommendRequest(users=(1,), n_items=3))
        assert len(response.rankings) == 1

    def test_closed_front_end_answers_closing(self, gateway, client):
        # A closed front-end behind an open gateway is a server lifecycle
        # state, not a client error.
        gateway.gateway.front.close()
        frame = client.request({"id": "late", "users": [1], "n_items": 3})
        assert frame["ok"] is False and frame["id"] == "late"
        assert frame["error"]["code"] == "closing"
        assert "front-end is closed" in frame["error"]["message"]
        # The connection survived, and a genuinely bad request is still one.
        assert client.request({"users": [1], "nitems": 5})["error"]["code"] == "bad-request"
        assert client.stats()["gateway"]["errors"] == {"closing": 1, "bad-request": 1}

    def test_gateway_thread_address_before_start_is_a_typed_error(self, runtime):
        with BatchingFrontEnd(runtime) as front:
            gw = GatewayThread(front)
            with pytest.raises(ConfigurationError, match="the gateway is not started"):
                gw.address
            with gw:
                assert gw.address == gw.gateway.address

    def test_runtime_exception_reaches_every_member_of_the_batch(self):
        class BrokenRuntime:
            generation = 1

            def serving_session(self):
                return self

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def recommend(self, request):
                raise RuntimeError("boom")

        with BatchingFrontEnd(BrokenRuntime(), max_delay_ms=30_000, max_batch_users=5) as front:
            with GatewayThread(front) as gw:
                with GatewayClient(*gw.address, timeout=RESULT_TIMEOUT) as c:
                    for i in range(5):
                        c.send_frame({"id": i, "users": [i], "n_items": 3})
                    frames = [c.recv_frame() for _ in range(5)]
                    assert sorted(frame["id"] for frame in frames) == list(range(5))
                    assert {frame["error"]["code"] for frame in frames} == {"server-error"}
                    assert all("RuntimeError: boom" in f["error"]["message"] for f in frames)
                    # One failed batch; the connection and the gateway go on.
                    stats = c.stats()
                    assert stats["gateway"]["errors"] == {"server-error": 5}
                    assert stats["batching"]["batches"] == 1

    def test_bad_frame_fails_alone_in_a_batch_shared_by_two_tenants(self, runtime):
        # The size cap seals one batch out of two connections' frames; the
        # frame with a user past the corpus must not answer for the others.
        expected = runtime.engine.topn([3, 4], n_items=4)
        with BatchingFrontEnd(runtime, max_delay_ms=30_000, max_batch_users=3) as front:
            with GatewayThread(front) as gw:
                with GatewayClient(*gw.address, timeout=RESULT_TIMEOUT) as acme:
                    with GatewayClient(*gw.address, timeout=RESULT_TIMEOUT) as mallory:
                        acme.send_frame(
                            {"id": "a1", "users": [3], "n_items": 4, "tenant": "acme"}
                        )
                        assert _wait_until(lambda: front.pending_requests == 1)
                        mallory.send_frame(
                            {"id": "m", "users": [120], "n_items": 4, "tenant": "mallory"}
                        )
                        assert _wait_until(lambda: front.pending_requests == 2)
                        acme.send_frame(
                            {"id": "a2", "users": [4], "n_items": 4, "tenant": "acme"}
                        )
                        bad = mallory.recv_frame()
                        good = {
                            frame["id"]: frame
                            for frame in (acme.recv_frame(), acme.recv_frame())
                        }
                        assert acme.stats()["gateway"]["errors"] == {"bad-request": 1}
        assert bad["id"] == "m" and bad["error"]["code"] == "bad-request"
        assert "user indices must lie in [0, 120)" in bad["error"]["message"]
        for rid, want in zip(("a1", "a2"), expected):
            frame = good[rid]
            assert frame["ok"] is True and frame["batch_requests"] == 3
            assert frame["generation"] == runtime.generation
            assert frame["rankings"] == [list(map(int, want))]
        assert good["a1"]["batch_id"] == good["a2"]["batch_id"]

    def test_disconnect_with_frames_in_the_mailbox_cancels_only_its_own(self, runtime):
        # Hold the mailbox shut: the doomed connection's responses are
        # resolved by the dispatcher but not yet delivered when it drops.
        with BatchingFrontEnd(runtime, max_delay_ms=30_000, max_batch_users=3) as front:
            with GatewayThread(front) as gw:
                gateway, loop = gw.gateway, gw._loop
                drain = gateway._drain
                gateway._drain = lambda: loop.call_later(0.3, drain)
                doomed = GatewayClient(*gw.address, timeout=RESULT_TIMEOUT)
                for i in range(3):
                    doomed.send_frame({"id": i, "users": [i], "n_items": 3})
                assert _wait_until(lambda: len(gateway._mailbox) == 3)
                doomed.close()
                assert _wait_until(lambda: gateway.inflight == 0)
                with GatewayClient(*gw.address, timeout=RESULT_TIMEOUT) as survivor:
                    response = survivor.recommend(
                        RecommendRequest(users=(4, 5, 6), n_items=3)
                    )
                    expected = runtime.engine.topn([4, 5, 6], n_items=3)
                    assert all(
                        np.array_equal(a, b) for a, b in zip(response.rankings, expected)
                    )
                    stats = survivor.stats()["gateway"]
                assert stats["responses"] == 1 and stats["errors"] == {}
                assert gateway._mailbox == []

    def test_disconnect_cancels_only_that_connection(self, runtime):
        # A huge accumulation delay parks requests in the batcher; the batch
        # only seals via the size cap.  Client A enqueues one row and
        # disconnects; its future is cancelled and dropped at dispatch, and
        # client B (sealing the batch by size) is served normally.
        with BatchingFrontEnd(runtime, max_delay_ms=30_000, max_batch_users=4) as front:
            with GatewayThread(front) as gw:
                host, port = gw.address
                doomed = GatewayClient(host, port, timeout=RESULT_TIMEOUT)
                doomed.send_frame({"users": [0], "n_items": 3})
                assert _wait_until(lambda: front.pending_requests == 1)
                assert gw.gateway.inflight == 1
                doomed.close()
                # The gateway notices the EOF, cancels A's frame task and
                # releases its admission slot.
                assert _wait_until(lambda: gw.gateway.inflight == 0)
                with GatewayClient(host, port, timeout=RESULT_TIMEOUT) as survivor:
                    response = survivor.recommend(
                        RecommendRequest(users=(1, 2, 3, 4), n_items=3)
                    )
                    assert len(response.rankings) == 4
                # Only the survivor's request was dispatched: A's cancelled
                # future was dropped before it could count as served.
                stats = front.stats()
                assert stats.requests == 1
                assert stats.users == 4

    def test_drain_on_close_resolves_in_flight(self, runtime):
        # Requests parked in the batcher when close() begins must resolve
        # and reach the socket before the connection shuts.
        with BatchingFrontEnd(runtime, max_delay_ms=400, max_batch_users=512) as front:
            gw = GatewayThread(front).start()
            host, port = gw.address
            client = GatewayClient(host, port, timeout=RESULT_TIMEOUT)
            try:
                for i in range(3):
                    client.send_frame({"id": i, "users": [i], "n_items": 3})
                assert _wait_until(lambda: front.pending_requests == 3)
                gw.close()  # drains: all three frames resolve during close
                frames = [client.recv_frame() for _ in range(3)]
                assert sorted(frame["id"] for frame in frames) == [0, 1, 2]
                assert all(frame["ok"] for frame in frames)
            finally:
                client.close()
                gw.close()


# --------------------------------------------------------------------------- #
# Generation pinning through the network layer
# --------------------------------------------------------------------------- #
class TestGenerationPinning:
    def test_responses_match_their_generation_across_swap(self, corpus):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with RecommenderRuntime(executor="serial") as rt:
                rt.fit(_model(), corpus)
                rt.publish()
                engines = {rt.generation: rt.engine}
                with BatchingFrontEnd(rt, max_delay_ms=1) as front:
                    with GatewayThread(front) as gw:
                        host, port = gw.address
                        collected = []
                        with GatewayClient(host, port, timeout=RESULT_TIMEOUT) as c:
                            users = (0, 5, 9)
                            request = RecommendRequest(users=users, n_items=5)
                            for _ in range(10):
                                collected.append(c.recommend(request))
                            # Mid-flight model swap: refit on the warm pool,
                            # then publish a structurally different model.
                            rt.refit()
                            rt.fit(_model(n_coclusters=8, random_state=7), corpus)
                            rt.update()
                            engines[rt.generation] = rt.engine
                            for _ in range(10):
                                collected.append(c.recommend(request))
                        generations = {response.generation for response in collected}
                        assert generations == set(engines)
                        for response in collected:
                            expected = engines[response.generation].topn(
                                list(users), n_items=5
                            )
                            assert all(
                                np.array_equal(a, b)
                                for a, b in zip(response.rankings, expected)
                            )


# --------------------------------------------------------------------------- #
# Fairness and adaptive delay through the gateway
# --------------------------------------------------------------------------- #
class TestFairnessAndAdaptivity:
    def test_flooding_tenant_does_not_starve_quiet_tenant(self, runtime):
        flood_n, quiet_n = 80, 5
        with BatchingFrontEnd(runtime, max_delay_ms=5, max_batch_users=8) as front:
            with GatewayThread(
                front, max_inflight=4, fair_queue=WeightedFairQueue()
            ) as gw:
                host, port = gw.address
                flood_done = []

                def flood() -> None:
                    with GatewayClient(host, port, timeout=RESULT_TIMEOUT) as c:
                        for i in range(flood_n):
                            c.send_frame(
                                {"id": i, "users": [i % 20], "n_items": 3,
                                 "tenant": "flood"}
                            )
                        for _ in range(flood_n):
                            c.recv_frame()
                            flood_done.append(time.monotonic())

                flooder = threading.Thread(target=flood)
                flooder.start()
                # Let the flood saturate the admission slots and pile deep
                # into the fair queue before the quiet tenant shows up.
                assert _wait_until(lambda: gw.gateway.queued > 20)
                with GatewayClient(host, port, timeout=RESULT_TIMEOUT) as c:
                    for i in range(quiet_n):
                        c.send_frame(
                            {"id": i, "users": [i], "n_items": 3,
                             "tenant": "quiet"}
                        )
                    frames = [c.recv_frame() for _ in range(quiet_n)]
                    floods_done_at_quiet_end = len(flood_done)
                assert all(frame["ok"] for frame in frames)
                flooder.join(timeout=RESULT_TIMEOUT)
                assert len(flood_done) == flood_n
                # DRR: the quiet tenant's requests interleave with the
                # flood instead of queueing behind its ~70 parked frames —
                # the last quiet response must land while most of the flood
                # is still waiting.
                assert floods_done_at_quiet_end < flood_n - 20

    def test_adaptive_delay_drops_under_light_load_through_gateway(self, runtime):
        # adaptive=True holds nothing, whatever max_delay_ms says: a lone wire
        # request is sealed at once, the first one included.
        with BatchingFrontEnd(runtime, max_delay_ms=250, adaptive=True) as front:
            with GatewayThread(front) as gw:
                with GatewayClient(*gw.address, timeout=RESULT_TIMEOUT) as c:
                    responses = [
                        c.recommend(RecommendRequest(users=(i,), n_items=3))
                        for i in range(10)
                    ]
                    assert c.stats()["batching"]["current_delay_ms"] == 0.0
        assert all(response.queue_ms < 50.0 for response in responses)
        assert all(response.batch_requests == 1 for response in responses)


# --------------------------------------------------------------------------- #
# A frame with no company is served on the loop thread
# --------------------------------------------------------------------------- #
@pytest.fixture()
def held(runtime, monkeypatch):
    """``runtime.recommend`` records its thread's name, then waits for ``release``."""
    names, release = [], threading.Event()
    recommend = runtime.recommend

    def holding(*args, **kwargs):
        names.append(threading.current_thread().name)
        release.wait(RESULT_TIMEOUT)
        return recommend(*args, **kwargs)

    monkeypatch.setattr(runtime, "recommend", holding)
    return names, release


@pytest.fixture()
def threads_of(held):
    """Names of the threads ``runtime.recommend`` runs on, in call order."""
    names, release = held
    release.set()
    return names


@contextmanager
def _zero_hold_client(runtime):
    """A client of a gateway over a front-end that does not hold."""
    with BatchingFrontEnd(runtime, max_delay_ms=0) as front:
        with GatewayThread(front) as gw:
            with GatewayClient(*gw.address, timeout=RESULT_TIMEOUT) as c:
                yield front, c


def _served_on_loop(client) -> int:
    return client.stats()["gateway"]["served_on_loop"]


class TestLoneFrameOnTheLoop:
    def test_lone_frame_is_served_on_the_gateway_thread(self, runtime, threads_of):
        request = RecommendRequest(users=(0, 3, 7, 7), n_items=6, with_scores=True)
        with _zero_hold_client(runtime) as (front, c):
            response = c.recommend(request)
            assert _served_on_loop(c) == 1
            assert front.stats().batches == 1
        assert threads_of == ["serving-gateway"]
        assert response.queue_ms == 0 and response.batch_requests == 1
        assert response.generation == runtime.generation
        rankings = runtime.engine.topn([0, 3, 7, 7], n_items=6, with_scores=True)
        scores = rankings.score_rows()
        assert all(np.array_equal(a, b) for a, b in zip(response.rankings, rankings))
        assert all(np.array_equal(a, b) for a, b in zip(response.scores, scores))

    def test_lone_frames_count_and_batched_frames_do_not(self, runtime, threads_of):
        with _zero_hold_client(runtime) as (front, c):
            for user in range(3):
                c.recommend(RecommendRequest(users=(user,), n_items=3))
            assert _served_on_loop(c) == 3
            c.recommend(RecommendRequest(interactions=((1, 2),), n_items=3))
            assert _served_on_loop(c) == 3
            assert front.stats().batches == 4
        assert threads_of == ["serving-gateway"] * 3 + ["batching-dispatcher"]

    def test_front_end_that_holds_keeps_the_dispatcher(self, threads_of, client):
        response = client.recommend(RecommendRequest(users=(1,), n_items=3))
        assert threads_of == ["batching-dispatcher"]
        assert response.batch_requests == 1
        assert _served_on_loop(client) == 0

    def test_cold_start_frame_keeps_the_dispatcher(self, runtime, threads_of):
        request = RecommendRequest(interactions=((1, 2, 3), (9,)), n_items=5)
        with _zero_hold_client(runtime) as (_front, c):
            response = c.recommend(request)
            assert _served_on_loop(c) == 0
        assert threads_of == ["batching-dispatcher"]
        expected = runtime.recommend(request)
        assert all(
            np.array_equal(a, b) for a, b in zip(response.rankings, expected.rankings)
        )

    def test_frames_pipelined_behind_a_live_one_coalesce_on_the_dispatcher(
        self, runtime, held
    ):
        # The first batch is held in the runtime until every frame is inside
        # the batcher, so the other seven must seal together behind it.
        names, release = held
        expected = runtime.engine.topn(list(range(8)), n_items=4)
        with BatchingFrontEnd(runtime, max_delay_ms=0) as front:
            with GatewayThread(front) as gw:
                with GatewayClient(*gw.address, timeout=RESULT_TIMEOUT) as c:
                    # One write: the gateway reads all eight frames at once.
                    c._file.write(b"".join(
                        json.dumps({"id": user, "users": [user], "n_items": 4}).encode()
                        + b"\n"
                        for user in range(8)
                    ))
                    c._file.flush()
                    assert _wait_until(lambda: gw.gateway.inflight == 8)
                    release.set()
                    frames = {frame["id"]: frame for frame in (c.recv_frame() for _ in range(8))}
                    assert _served_on_loop(c) == 0
        assert set(names) == {"batching-dispatcher"}
        assert front.stats().batches == len(names) <= 2
        assert max(frame["batch_requests"] for frame in frames.values()) >= 7
        for user in range(8):
            assert frames[user]["rankings"] == [list(map(int, expected[user]))]

    def test_lone_frame_queues_behind_a_batch_in_service(self, runtime, held):
        names, release = held
        with _zero_hold_client(runtime) as (front, c):
            in_process = front.submit_request(RecommendRequest(users=(2,), n_items=3))
            assert _wait_until(lambda: len(names) == 1)
            c.send_frame({"id": "wire", "users": [5], "n_items": 3})
            assert _wait_until(lambda: front.pending_requests == 1)
            release.set()
            assert c.recv_frame()["batch_id"] == 2
            assert in_process.result(timeout=RESULT_TIMEOUT).batch_id == 1
            assert _served_on_loop(c) == 0
        assert names == ["batching-dispatcher"] * 2

    def test_request_larger_than_one_shard_keeps_the_dispatcher(self, runtime, threads_of):
        users = list(range(runtime.engine.train_matrix.n_users)) * 9
        assert len(users) > runtime.engine.chunk_size
        with _zero_hold_client(runtime) as (_front, c):
            response = c.recommend(RecommendRequest(users=users, n_items=3))
            assert _served_on_loop(c) == 0
        assert threads_of == ["batching-dispatcher"]
        expected = runtime.engine.topn(users, n_items=3)
        assert all(np.array_equal(a, b) for a, b in zip(response.rankings, expected))

    def test_error_codes_match_the_batched_path(self, runtime):
        with _zero_hold_client(runtime) as (front, c):
            frame = c.request({"id": "past", "users": [120], "n_items": 3})
            assert frame["id"] == "past" and frame["error"]["code"] == "bad-request"
            assert "user indices must lie in [0, 120)" in frame["error"]["message"]
            assert _served_on_loop(c) == 1
            front.close()
            frame = c.request({"users": [1], "n_items": 3})
            assert frame["error"]["code"] == "closing"
            assert c.stats()["gateway"]["errors"] == {"bad-request": 1, "closing": 1}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with RecommenderRuntime(executor="serial") as unpublished:
                with _zero_hold_client(unpublished) as (_front, c):
                    frame = c.request({"users": [0], "n_items": 3})
                    assert frame["error"]["code"] == "not-fitted"
                    assert _served_on_loop(c) == 1
