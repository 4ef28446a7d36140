"""Request-batching benchmark: many small concurrent requests, with and
without the micro-batching front-end.

The paper's deployment serves many concurrent B2B clients, each asking for a
handful of users at a time.  Unbatched, every such request is one runtime
call; a four-user request makes one shard, so the runtime serves it on the
client's own thread and the call's fixed cost is paid for four rows of BLAS
work.  The :class:`~repro.runtime.BatchingFrontEnd` coalesces concurrent
requests into micro-batches under a latency bound; this benchmark drives the
same client threads down both paths and reports users/s on each, the
coalescing ratio (runtime dispatches per client request) and the batch
occupancy.

Real coalescing is asserted, and rankings are asserted identical request by
request on both paths, always.  The two rates are reported, not ordered.
While a one-shard call paid an executor round-trip the batched path won
every run (1.65-2.5x over three full-mode runs on a 2-core host).  With the
round-trip gone, six full-mode runs on the same host read 9.9k-11.3k
users/s batched (one dispatcher thread behind a 4 ms window) against
6.3k-12.9k unbatched (16 client threads contending for the interpreter):
a ratio anywhere between 0.8x and 1.75x, so neither order is asserted.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
from _report import write_bench_json
from conftest import run_once, scaled

from repro.api import RecommendRequest
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.runtime import BatchingFrontEnd, RecommenderRuntime
from repro.utils.tables import format_table

#: Worker-pool size of the serving runtime.
WORKERS = 2

#: Client threads submitting concurrently (the paper's many-tenant shape).
CLIENTS = 16


def _run_clients(n_clients, requests, serve_one):
    """Drive ``requests`` through ``serve_one`` from ``n_clients`` threads.

    Returns (seconds, results) with ``results`` aligned to ``requests``.
    """
    results = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    errors: list = []

    def worker() -> None:
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                results[index] = serve_one(requests[index])
        except Exception as exc:  # pragma: no cover - failure mode
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    if errors:
        raise errors[0]
    return seconds, results


def test_batched_vs_unbatched_small_requests(benchmark, report_writer):
    params = scaled(
        dict(
            n_users=2000,
            n_items=200,
            n_coclusters=16,
            n_requests=192,
            users_per_request=4,
            top_n=10,
            max_delay_ms=4.0,
            max_batch_users=512,
        ),
        n_users=200,
        n_items=60,
        n_coclusters=6,
        n_requests=24,
    )
    matrix, _spec = make_netflix_like(
        n_users=params["n_users"], n_items=params["n_items"], random_state=0
    )
    rng = np.random.default_rng(0)
    requests = [
        [int(u) for u in rng.integers(0, params["n_users"], size=params["users_per_request"])]
        for _ in range(params["n_requests"])
    ]
    total_users = sum(len(r) for r in requests)

    with RecommenderRuntime(executor="process", max_workers=WORKERS) as runtime:
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
        reference = runtime.engine.recommend_batch(
            [u for r in requests for u in r], n_items=params["top_n"]
        )
        runtime.recommend(  # warm the pool
            RecommendRequest(users=requests[0], n_items=params["top_n"])
        )

        # Unbatched: each client request is its own runtime call (one shard,
        # served in process on the client thread).
        calls_before = runtime.serving_calls
        unbatched_seconds, unbatched = _run_clients(
            CLIENTS,
            requests,
            lambda users: runtime.recommend(
                RecommendRequest(users=users, n_items=params["top_n"])
            ).rankings,
        )
        unbatched_calls = runtime.serving_calls - calls_before

        # Batched: the same client threads submit through the front-end.
        def batched_run():
            calls_at_start = runtime.serving_calls
            with BatchingFrontEnd(
                runtime,
                max_delay_ms=params["max_delay_ms"],
                max_batch_users=params["max_batch_users"],
            ) as front:
                seconds, results = _run_clients(
                    CLIENTS,
                    requests,
                    lambda users: front.recommend(
                        RecommendRequest(users=users, n_items=params["top_n"]),
                        timeout=300,
                    ).rankings,
                )
                stats = front.stats()
            return seconds, results, stats, runtime.serving_calls - calls_at_start

        batched_seconds, batched, stats, batched_calls = run_once(benchmark, batched_run)

    # Both paths produce exactly the unbatched single-engine rankings.
    flat_unbatched = [r for result in unbatched for r in result]
    flat_batched = [r for result in batched for r in result]
    for expected, plain, coalesced in zip(reference, flat_unbatched, flat_batched):
        assert np.array_equal(expected, plain)
        assert np.array_equal(expected, coalesced)

    unbatched_rate = total_users / unbatched_seconds
    batched_rate = total_users / batched_seconds
    table = format_table(
        ["path", "seconds", "users/s", "runtime dispatches", "mean batch users"],
        [
            [
                "unbatched (1 dispatch/request)",
                f"{unbatched_seconds:.3f}",
                f"{unbatched_rate:,.0f}",
                str(unbatched_calls),
                f"{total_users / unbatched_calls:.1f}",
            ],
            [
                "micro-batched front-end",
                f"{batched_seconds:.3f}",
                f"{batched_rate:,.0f}",
                str(batched_calls),
                f"{stats.mean_occupancy:.1f}",
            ],
        ],
    )
    lines = [
        f"micro-batched vs unbatched serving — {params['n_requests']} requests x "
        f"{params['users_per_request']} users from {CLIENTS} client threads, "
        f"top-{params['top_n']}, {WORKERS} workers, "
        f"max_delay={params['max_delay_ms']}ms, cap={params['max_batch_users']} users",
        table,
        f"speedup: {batched_rate / unbatched_rate:.2f}x | queue p95: "
        f"{stats.queue_p95_ms:.1f} ms | requests/batch: "
        f"{stats.mean_requests_per_batch:.1f}",
        f"host cores: {os.cpu_count()}",
    ]
    report_writer("request_batching", "\n".join(lines))
    write_bench_json(
        "request_batching",
        dict(
            unbatched_users_per_s=unbatched_rate,
            batched_users_per_s=batched_rate,
            speedup=batched_rate / unbatched_rate,
            queue_p95_ms=stats.queue_p95_ms,
            mean_occupancy=stats.mean_occupancy,
        ),
        n_requests=params["n_requests"],
        users_per_request=params["users_per_request"],
    )

    # Coalescing must be real: fewer dispatches than requests.
    assert batched_calls < params["n_requests"]
    assert stats.mean_occupancy > params["users_per_request"]
