"""Gateway serving benchmark: open-loop network clients vs the in-process
blocking path.

The paper's deployment exposes the recommender to many B2B tenants at once.
This benchmark measures the asyncio gateway end to end:

* **Open-loop throughput** — :data:`CONNECTIONS` sockets each pipeline all
  of their frames without waiting for responses, the harshest arrival
  pattern for the admission controller.  The gateway coalesces the flood
  into micro-batches, so despite paying JSON framing and loopback TCP it
  must sustain at least the throughput of one sharded dispatch per request
  (the blocking path with ``shard_size=`` forcing each four-user request
  over the worker pool) on hosts with enough cores.  The plain blocking
  path is reported beside it and not ordered against the gateway: a
  four-user request is one shard, which the runtime serves on the caller's
  thread with no round-trip for batching to win back (full-mode runs on a
  2-core host: gateway/in-process between 0.37x and 1.5x over twenty,
  gateway/sharded between 1.7x and 2.8x over ten).

Rankings are asserted identical to the in-process engine on every path.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
from _report import write_bench_json
from conftest import run_once, scaled, smoke_mode

from repro.api import RecommendRequest
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.runtime import (
    BatchingFrontEnd,
    GatewayClient,
    GatewayThread,
    RecommenderRuntime,
)
from repro.utils.tables import format_table

#: Worker-pool size of the serving runtime.
WORKERS = 2

#: Concurrent gateway connections in the open-loop phase.
CONNECTIONS = 64


def _fit_runtime(runtime, params):
    matrix, _spec = make_netflix_like(
        n_users=params["n_users"], n_items=params["n_items"], random_state=0
    )
    runtime.fit(
        OCuLaR(
            n_coclusters=params["n_coclusters"],
            regularization=5.0,
            max_iterations=3,
            tolerance=0.0,
            random_state=0,
        ),
        matrix,
    )
    runtime.publish()


def _open_loop_connection(host, port, requests, results, index, errors):
    """Pipeline every frame, then collect every response, matched by id."""
    try:
        with GatewayClient(host, port, timeout=300) as client:
            for rid, request in enumerate(requests):
                frame = request.to_dict()
                frame["id"] = rid
                client.send_frame(frame)
            by_id: dict = {}
            for _ in requests:
                frame = client.recv_frame()
                assert frame.get("ok"), frame
                by_id[frame["id"]] = [np.asarray(r) for r in frame["rankings"]]
            results[index] = [by_id[rid] for rid in range(len(requests))]
    except Exception as exc:  # pragma: no cover - failure mode
        errors.append(exc)


def test_gateway_open_loop_vs_blocking(benchmark, report_writer):
    params = scaled(
        dict(
            n_users=2000,
            n_items=200,
            n_coclusters=16,
            connections=CONNECTIONS,
            requests_per_connection=6,
            users_per_request=4,
            top_n=10,
            max_delay_ms=4.0,
            max_batch_users=512,
        ),
        n_users=200,
        n_items=60,
        n_coclusters=6,
        connections=8,
        requests_per_connection=3,
    )
    rng = np.random.default_rng(0)
    streams = [
        [
            RecommendRequest(
                users=tuple(
                    int(u)
                    for u in rng.integers(
                        0, params["n_users"], size=params["users_per_request"]
                    )
                ),
                n_items=params["top_n"],
                tenant=f"tenant-{index % 8}",
            )
            for _ in range(params["requests_per_connection"])
        ]
        for index in range(params["connections"])
    ]
    flat_requests = [request for stream in streams for request in stream]
    total_users = sum(request.n_rows for request in flat_requests)

    with RecommenderRuntime(executor="process", max_workers=WORKERS) as runtime:
        _fit_runtime(runtime, params)
        reference = runtime.engine.recommend_batch(
            [u for request in flat_requests for u in request.users],
            n_items=params["top_n"],
        )
        runtime.recommend(flat_requests[0])  # warm the pool

        # Blocking paths: one runtime call per request, from as many threads
        # as there are gateway connections — served in process (one shard),
        # then with every request cut into two shards for the worker pool.
        def blocking_run(shard_size):
            results = [None] * len(streams)
            errors: list = []

            def client(index: int) -> None:
                try:
                    results[index] = [
                        runtime.recommend(request, shard_size=shard_size).rankings
                        for request in streams[index]
                    ]
                except Exception as exc:  # pragma: no cover - failure mode
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(len(streams))
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - start
            assert not errors
            return seconds, results

        blocking_seconds, blocking_results = blocking_run(None)
        sharded_seconds, sharded_results = blocking_run(
            params["users_per_request"] // 2
        )

        # Gateway path: the same request streams, pipelined open-loop over
        # one socket per connection.
        def gateway_run():
            with BatchingFrontEnd(
                runtime,
                max_delay_ms=params["max_delay_ms"],
                max_batch_users=params["max_batch_users"],
            ) as front:
                with GatewayThread(front, max_inflight=256) as gateway:
                    host, port = gateway.address
                    results = [None] * len(streams)
                    errors: list = []
                    workers = [
                        threading.Thread(
                            target=_open_loop_connection,
                            args=(host, port, streams[i], results, i, errors),
                        )
                        for i in range(len(streams))
                    ]
                    begin = time.perf_counter()
                    for worker in workers:
                        worker.start()
                    for worker in workers:
                        worker.join()
                    seconds = time.perf_counter() - begin
                    if errors:
                        raise errors[0]
                    stats = front.stats()
            return seconds, results, stats

        gateway_seconds, gateway_results, stats = run_once(benchmark, gateway_run)

    # Every path reproduces the single-engine rankings, request by request.
    flat_reference = iter(reference)
    for blocked, sharded, wired in zip(
        blocking_results, sharded_results, gateway_results
    ):
        for request_rankings in zip(blocked, sharded, wired):
            for got in zip(*request_rankings):
                expected = next(flat_reference)
                assert all(np.array_equal(expected, ranking) for ranking in got)

    blocking_rate = total_users / blocking_seconds
    sharded_rate = total_users / sharded_seconds
    gateway_rate = total_users / gateway_seconds
    table = format_table(
        ["path", "seconds", "users/s", "mean batch users"],
        [
            [
                "blocking in-process (1 call/request)",
                f"{blocking_seconds:.3f}",
                f"{blocking_rate:,.0f}",
                "1 request",
            ],
            [
                "blocking sharded (1 pool dispatch/request)",
                f"{sharded_seconds:.3f}",
                f"{sharded_rate:,.0f}",
                "1 request",
            ],
            [
                f"gateway, {params['connections']} open-loop connections",
                f"{gateway_seconds:.3f}",
                f"{gateway_rate:,.0f}",
                f"{stats.mean_occupancy:.1f}",
            ],
        ],
    )
    lines = [
        f"asyncio gateway vs blocking paths — {len(flat_requests)} requests x "
        f"{params['users_per_request']} users over {params['connections']} "
        f"connections, top-{params['top_n']}, {WORKERS} workers, "
        f"max_delay={params['max_delay_ms']}ms",
        table,
        f"speedup: {gateway_rate / sharded_rate:.2f}x over sharded, "
        f"{gateway_rate / blocking_rate:.2f}x over in-process | queue p95: "
        f"{stats.queue_p95_ms:.1f} ms | requests/batch: "
        f"{stats.mean_requests_per_batch:.1f}",
        f"host cores: {os.cpu_count()}",
    ]
    report_writer("gateway_throughput", "\n".join(lines))
    write_bench_json(
        "gateway_throughput",
        dict(
            blocking_users_per_s=blocking_rate,
            sharded_users_per_s=sharded_rate,
            gateway_users_per_s=gateway_rate,
            speedup=gateway_rate / sharded_rate,
            queue_p95_ms=stats.queue_p95_ms,
        ),
        connections=params["connections"],
        users_per_request=params["users_per_request"],
    )

    # Coalescing must be real; with dispatch overhead amortised over whole
    # micro-batches the networked path must keep up with one sharded
    # dispatch per request.
    assert stats.mean_requests_per_batch > 1.0
    if not smoke_mode() and (os.cpu_count() or 1) >= WORKERS:
        assert gateway_rate >= sharded_rate, (
            f"gateway served {gateway_rate:,.0f} users/s vs "
            f"{sharded_rate:,.0f} sharded blocking"
        )
