"""Gateway serving benchmark: open-loop network clients vs the in-process
blocking path, plus adaptive-vs-static batching delay under light load.

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
* **Adaptive delay under light load** — a single client sends sparse
  sequential requests.  A static front-end holds every lone request for
  the full ``max_delay_ms`` window; the adaptive controller sees that the
  arrival rate cannot buy occupancy and, from its first control period on,
  holds nothing at all (its delay rests at the floor, the hold in force —
  ``final_delay_ms`` — is 0).  Both per-request latency medians are
  recorded and compared.

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
    AdaptiveDelayController,
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


def test_adaptive_delay_beats_static_under_light_load(benchmark, report_writer):
    params = scaled(
        dict(
            n_users=400,
            n_items=80,
            n_coclusters=8,
            n_requests=24,
            top_n=10,
            ceiling_ms=12.0,
            gap_s=0.02,
        ),
        n_users=150,
        n_items=50,
        n_coclusters=5,
        n_requests=10,
    )

    def drive(front):
        """Sequential lone requests over the wire; per-request latencies."""
        latencies = []
        with GatewayThread(front) as gateway:
            host, port = gateway.address
            with GatewayClient(host, port) as client:
                for user in range(params["n_requests"]):
                    begin = time.perf_counter()
                    response = client.recommend(
                        RecommendRequest(
                            users=(user % params["n_users"],),
                            n_items=params["top_n"],
                        )
                    )
                    latencies.append((time.perf_counter() - begin) * 1000.0)
                    assert len(response.rankings) == 1
                    time.sleep(params["gap_s"])
        return latencies

    with RecommenderRuntime(executor="serial") as runtime:
        _fit_runtime(runtime, params)
        runtime.recommend(RecommendRequest(users=(0,), n_items=params["top_n"]))

        def compare():
            with BatchingFrontEnd(
                runtime, max_delay_ms=params["ceiling_ms"]
            ) as static_front:
                static_latencies = drive(static_front)
            controller = AdaptiveDelayController(
                floor_ms=0.25,
                ceiling_ms=params["ceiling_ms"],
                slo_p95_ms=50.0,
                adjust_interval_s=0.005,
            )
            with BatchingFrontEnd(
                runtime, max_delay_ms=params["ceiling_ms"], adaptive=controller
            ) as adaptive_front:
                adaptive_latencies = drive(adaptive_front)
                final_delay = adaptive_front.current_delay_ms
            return static_latencies, adaptive_latencies, final_delay

        static_latencies, adaptive_latencies, final_delay = run_once(
            benchmark, compare
        )

    static_p50 = float(np.percentile(static_latencies, 50))
    adaptive_p50 = float(np.percentile(adaptive_latencies, 50))
    table = format_table(
        ["front-end", "p50 latency", "p95 latency", "final delay"],
        [
            [
                "static max_delay",
                f"{static_p50:.2f} ms",
                f"{float(np.percentile(static_latencies, 95)):.2f} ms",
                f"{params['ceiling_ms']:.2f} ms",
            ],
            [
                "adaptive controller",
                f"{adaptive_p50:.2f} ms",
                f"{float(np.percentile(adaptive_latencies, 95)):.2f} ms",
                f"{final_delay:.2f} ms",
            ],
        ],
    )
    lines = [
        f"adaptive vs static batching delay — {params['n_requests']} lone "
        f"requests over the gateway, ceiling {params['ceiling_ms']} ms, "
        f"{params['gap_s'] * 1000:.0f} ms think time",
        table,
        f"p50 reduction: {static_p50 - adaptive_p50:.2f} ms",
        f"host cores: {os.cpu_count()}",
    ]
    report_writer("gateway_adaptive_delay", "\n".join(lines))
    write_bench_json(
        "gateway_adaptive_delay",
        dict(
            static_p50_ms=static_p50,
            adaptive_p50_ms=adaptive_p50,
            final_delay_ms=final_delay,
        ),
        ceiling_ms=params["ceiling_ms"],
        n_requests=params["n_requests"],
    )

    # Lone requests cannot buy occupancy, so the controller must have
    # stopped holding; with no timed wait the wire-level median must drop
    # measurably below the static configuration's.
    assert final_delay < params["ceiling_ms"]
    if not smoke_mode():
        assert adaptive_p50 < static_p50, (
            f"adaptive p50 {adaptive_p50:.2f} ms vs static {static_p50:.2f} ms"
        )
