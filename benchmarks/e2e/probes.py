"""The per-layer metrics: every layer timed from outside, around public calls.

One function per layer, outermost last.  Each returns a dict of metric values
(names from :data:`metrics.PER_LAYER`) and records a span per call it times.
The suite is the same for every workload and runs on the workload's corpus,
so a layer number can be read next to the end-to-end number it should move.
Nothing here feeds an end-to-end metric.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import warnings
from typing import Callable, Dict

import numpy as np

import checks
import corpus as corpus_module
import loadgen
import workloads
from metrics import median, percentile
from sut import ALLOCATOR_PIN

from repro import OCuLaR
from repro.api import RecommendRequest, RecommendResponse
from repro.core.backends import ParallelBackend, VectorizedBackend
from repro.core.backends.plan import SweepPlan
from repro.core.objective import objective_from_entries
from repro.data.splitting import train_test_split
from repro.evaluation.evaluator import evaluate_recommender
from repro.parallel import supports_publication
from repro.parallel.scheduler import resolve_executor
from repro.runtime.fairness import WeightedFairQueue
from repro.serving.batch import serve_sharded
from repro.serving.engine import TopNEngine
from repro.serving.fold_in import clear_fold_in_plan_cache, extend_factors, fold_in_users
from repro.serving.shared import attach_engine, publish_engine, unpublish_engine

EXECUTORS = ("serial", "thread", "process", "cluster")
LADDER_RATES = (50.0, 100.0, 200.0, 300.0)


def timed(tracer, name: str, function: Callable, repeats: int = 1):
    """Median seconds of ``function()`` over ``repeats`` calls, and its last result."""
    samples = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        with tracer.span(name):
            result = function()
        samples.append(time.perf_counter() - started)
    return median(samples), result


class Env:
    """What the probes share: the workload's corpus, a split and a fitted model."""

    def __init__(self, ctx: workloads.Context, tracer) -> None:
        self.ctx = ctx
        self.tracer = tracer
        self.values: Dict[str, float] = {}
        self.rng = np.random.default_rng([ctx.seed, 32452843])
        self.repeats = 20 if ctx.smoke else 200


def probe_data(env: Env) -> None:
    ctx, tracer = env.ctx, env.tracer
    name = workloads.make(ctx.workload).corpus
    gen_s, env.corpus = timed(
        tracer, "data.corpus_gen", lambda: corpus_module.generate(name, ctx.seed, ctx.scale)
    )
    matrix = env.corpus.matrix
    split_s, env.split = timed(
        tracer, "data.split", lambda: train_test_split(matrix, 0.25, random_state=ctx.seed)
    )
    env.train = env.split.train
    # A 2% delta with 1% new users, as tuples: what runtime.ingest hands over.
    n_new = max(1, env.train.n_users // 100)
    users = env.rng.integers(0, env.train.n_users + n_new, size=max(10, env.train.nnz // 50))
    items = env.rng.integers(0, env.train.n_items, size=len(users))
    pairs = list(zip(users.tolist(), items.tolist()))
    extend_s, env.extended = timed(
        tracer, "data.extended_with", lambda: env.train.extended_with(pairs, n_new_users=n_new)
    )
    env.values.update({"data.corpus_gen_s": gen_s, "data.split_s": split_s, "data.extended_with_s": extend_s})


def probe_training(env: Env) -> None:
    """plan, sweep, pbackend, objective and optimizer, innermost first."""
    ctx, tracer = env.ctx, env.tracer
    params = ctx.model(2)
    k, reg = params["n_coclusters"], params["regularization"]
    csr = env.train.csr()
    build_s, plan = timed(tracer, "plan.build", lambda: SweepPlan.build(csr))
    users = env.rng.random((env.train.n_users, k)) * 0.1
    items = env.rng.random((env.train.n_items, k)) * 0.1
    backend = VectorizedBackend()
    sweep = lambda side, rows, cols: backend.sweep(None, rows, cols, reg, plan=side)  # noqa: E731
    item_s, (_, item_stats) = timed(tracer, "sweep.item", lambda: sweep(plan.item_side, items, users), 2)
    user_s, (_, user_stats) = timed(tracer, "sweep.user", lambda: sweep(plan.user_side, users, items), 2)
    rows = item_stats.n_rows + user_stats.n_rows
    env.values.update(
        {
            "plan.build_s": build_s,
            "sweep.item_s": item_s,
            "sweep.user_s": user_s,
            "sweep.entries_per_s": 2 * csr.nnz / (item_s + user_s),
            "sweep.backtracks": item_stats.n_backtracks + user_stats.n_backtracks,
            "sweep.acceptance_rate": (item_stats.n_accepted + user_stats.n_accepted) / rows,
            "sweep.workspace_allocations_warm": (
                item_stats.workspace_allocations + user_stats.workspace_allocations
            ),
            "sweep.workspace_bytes": item_stats.workspace_bytes + user_stats.workspace_bytes,
        }
    )
    sharded = {}
    for name in EXECUTORS[:3]:
        parallel = ParallelBackend(n_shards=2, executor=name, n_workers=ctx.workers)
        try:
            run = lambda: parallel.sweep(None, users, items, reg, plan=plan.user_side)  # noqa: E731
            run()
            sharded[name], (factors, _stats) = timed(tracer, f"pbackend.sweep.{name}", run)
        finally:
            parallel.shutdown()
        checks.require(
            np.array_equal(factors, sweep(plan.user_side, users, items)[0]),
            f"pbackend[{name}] sweep differs from the vectorized sweep",
        )
        env.values.update({f"pbackend.sweep_s.{name}": sharded[name]})
    env.values.update({"pbackend.shard_overhead_share": (sharded["serial"] - user_s) / sharded["serial"]})
    side = plan.user_side
    objective_s, _ = timed(
        tracer,
        "objective.eval",
        lambda: objective_from_entries(side.row_index, side.matrix.indices, None, users, items, reg),
        3,
    )
    env.values.update({"objective.eval_s": objective_s})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit_s, env.model = timed(tracer, "optimizer.fit", lambda: OCuLaR(**params).fit(env.train))
    iterations = env.model.history_.iteration_seconds
    outside = fit_s - sum(iterations)
    checks.verify_non_increasing(env.model.history_.objective_values, "probe fit objective")
    env.values.update(
        {
            "optimizer.iter_s": median(iterations),
            "optimizer.first_iter_s": iterations[0],
            "optimizer.outside_iter_s": outside,
            "optimizer.outside_iter_share": outside / fit_s,
        }
    )
    sample = sorted(env.split.test_items)[:1000]
    eval_s, _ = timed(
        tracer, "evaluation.recall", lambda: evaluate_recommender(env.model, env.split, m=50, users=sample)
    )
    env.values.update({"evaluation.recall_eval_s": eval_s})


def probe_executors(env: Env) -> None:
    """Start, no-op round trip, publish and shutdown of every executor.

    Also runs ``serve_sharded`` on each while it is up.  The cluster's
    shutdown is known to take ~10 s of join time-outs (ROADMAP item 3), so it
    runs on a thread that is joined after the wire probes: the wait is pure
    sleep and is recorded as a number instead of stalling the run.
    """
    ctx, tracer = env.ctx, env.tracer
    engine = TopNEngine.from_model(env.model)
    env.engine = engine
    users = list(range(min(env.train.n_users, 4000)))
    payload = np.zeros((6000, 50))  # 2.4 MB, a factor matrix's size
    want = engine.topn(users, n_items=10)
    for name in EXECUTORS:
        started = time.perf_counter()
        with tracer.span(f"executor.{name}.start"):
            executor = resolve_executor(name, max_workers=ctx.workers)
            executor.map(abs, [0] * ctx.workers)
        start_s = time.perf_counter() - started
        roundtrip_s, _ = timed(tracer, f"executor.{name}.roundtrip", lambda: executor.map(abs, [0]), env.repeats)
        publish_s = 0.0  # serial and thread executors share the address space
        if supports_publication(executor):
            publish_s, _ = timed(
                tracer, f"executor.{name}.publish", lambda: executor.publish(("probe", "payload"), payload), 3
            )
            executor.unpublish(("probe", "payload"))
        if name == "process":
            publish_engine_s, spec = timed(tracer, "shared.publish_engine", lambda: publish_engine(executor, engine))
            attach_s, _ = timed(tracer, "shared.attach_engine", lambda: attach_engine(spec))
            unpublish_engine(executor, spec)
            env.values.update({"shared.publish_engine_ms": publish_engine_s * 1000, "shared.attach_engine_ms": attach_s * 1000})
        serve = lambda: serve_sharded(engine, users, n_items=10, executor=executor)  # noqa: E731
        serve()
        serve_s, served = timed(tracer, f"serve_sharded.{name}", serve)
        workloads.verify_rows(f"serve_sharded[{name}]", list(served.rankings), want)
        env.values.update(
            {
                f"executor.{name}.start_s": start_s,
                f"executor.{name}.roundtrip_ms": roundtrip_s * 1000,
                f"executor.{name}.publish_ms": publish_s * 1000,
                f"serve_sharded.rows_per_s.{name}": len(users) / serve_s,
            }
        )
        if name == "cluster":
            counts = [
                count
                for node in executor.node_stats().values()
                for count in node["fetch_counts"].values()
            ]
            checks.require(
                max(counts, default=0) == 1,
                f"cluster nodes fetched a published array {max(counts, default=0)} times, expected once",
            )
            env.values["serve_sharded.cluster_fetches_per_node"] = max(counts, default=0)

            def shut_down() -> None:
                # Only the clock here: the tracer belongs to the main thread,
                # which records the span after joining this one.
                env.cluster_shutdown_span = [time.perf_counter()]
                executor.shutdown()
                env.cluster_shutdown_span.append(time.perf_counter())

            env.cluster_shutdown = threading.Thread(target=shut_down, name="cluster-shutdown")
            env.cluster_shutdown.start()
        else:
            shutdown_s, _ = timed(tracer, f"executor.{name}.shutdown", executor.shutdown)
            env.values.update({f"executor.{name}.shutdown_s": shutdown_s})


def probe_engine(env: Env) -> None:
    tracer, engine = env.tracer, env.engine
    users = list(range(min(env.train.n_users, 4000)))
    engine.topn(users, n_items=50)
    before = engine.pool.stats().allocations
    topn_s, _ = timed(tracer, "engine.topn", lambda: engine.topn(users, n_items=50), 3)
    allocations = engine.pool.stats().allocations - before
    narrow = TopNEngine.from_model(env.model, dtype="float32")
    narrow.topn(users, n_items=50)
    f32_s, _ = timed(tracer, "engine.topn_f32", lambda: narrow.topn(users, n_items=50), 3)
    single_s, _ = timed(tracer, "engine.single_user", lambda: engine.topn([users[7]], n_items=10), env.repeats)
    chunk = np.asarray(users[: engine.effective_chunk_size()])
    score_s, block = timed(tracer, "engine.score_chunk", lambda: engine.score_chunk(chunk), 5)
    seen = env.train.csr()[chunk]
    rank_s, _ = timed(tracer, "engine.rank_scored", lambda: engine.rank_scored(block, n_items=50, seen=seen), 5)
    env.values.update(
        {
            "engine.topn_rows_per_s": len(users) / topn_s,
            "engine.topn_rows_per_s_f32": len(users) / f32_s,
            "engine.single_user_ms": single_s * 1000,
            "engine.score_chunk_ms": score_s * 1000,
            "engine.rank_scored_ms": rank_s * 1000,
            "engine.select_share": rank_s / (rank_s + score_s),
            "engine.pool_allocations_warm": allocations,
            "engine.effective_chunk_size": engine.effective_chunk_size(),
        }
    )


def probe_fold_in(env: Env) -> None:
    tracer, model = env.tracer, env.model
    n_items = env.train.n_items
    rows = [env.rng.choice(n_items, size=20, replace=False).tolist() for _ in range(32)]
    clear_fold_in_plan_cache()
    row1_s, _ = timed(tracer, "fold_in.row1", lambda: fold_in_users(model, [rows[0]]), 5)
    clear_fold_in_plan_cache()
    rows32_s, _ = timed(tracer, "fold_in.rows32", lambda: fold_in_users(model, rows))
    cached_s, _ = timed(tracer, "fold_in.cached_rows32", lambda: fold_in_users(model, rows), 3)
    extend_s, _ = timed(tracer, "fold_in.extend_factors", lambda: extend_factors(model, env.extended))
    env.values.update(
        {
            "fold_in.row1_ms": row1_s * 1000,
            "fold_in.rows32_ms": rows32_s * 1000,
            "fold_in.cached_rows32_ms": cached_s * 1000,
            "fold_in.extend_factors_s": extend_s,
        }
    )


def probe_codecs(env: Env) -> None:
    """api codecs and the fair queue: pure Python, microseconds per call."""
    tracer = env.tracer
    request = RecommendRequest(users=tuple(range(4)), n_items=10, tenant="tenant-3")
    line = request.to_json()
    decode_s, _ = timed(
        tracer, "api.request_decode", lambda: RecommendRequest.from_dict(json.loads(line)), env.repeats * 5
    )
    rankings = env.engine.topn(list(range(64)), n_items=10)
    response = RecommendResponse(rankings=rankings, generation=1, batch_users=64)
    encode_s, _ = timed(
        tracer, "api.response_encode", lambda: json.dumps(response.to_dict(), separators=(",", ":")), env.repeats
    )
    payload = json.loads(response.to_json())
    redecode_s, _ = timed(tracer, "api.response_decode", lambda: RecommendResponse.from_dict(payload), env.repeats)
    queue = WeightedFairQueue()
    tenants = [f"tenant-{index}" for index in range(loadgen.N_TENANTS)]

    def push_pop() -> None:
        for index in range(800):
            queue.push(tenants[index % len(tenants)], index)
        for _ in range(800):
            queue.pop()

    cycle_s, _ = timed(tracer, "fairness.push_pop", push_pop, 5)
    env.values.update(
        {
            "api.request_decode_us": decode_s * 1e6,
            "api.response_encode_us": encode_s * 1e6,
            "api.response_decode_us": redecode_s * 1e6,
            "fairness.push_pop_us": cycle_s / 800 * 1e6,
        }
    )


async def _oversize_frame_ok(session: workloads.WireSession) -> float:
    """1 if a 128 KiB cold-start frame gets any reply, 0 if its connection dies."""
    (connection,), _ = await session.connect(1)
    n_items = session.matrix.n_items
    width = min(400, n_items)
    rows = [list(range(width))] * (32 * 1024 // width + 1)
    frame = {"interactions": rows, "n_items": 10, "n_sweeps": 1}
    checks.require(len(json.dumps(frame)) >= 128 * 1024, "the oversize probe frame is under 128 KiB")
    try:
        await asyncio.wait_for(connection.send_raw(frame), timeout=20.0)
        return 1.0
    except (ConnectionError, asyncio.TimeoutError):
        return 0.0
    finally:
        await connection.close()


async def _wire(env: Env, session: workloads.WireSession, source: workloads.DeltaSource) -> None:
    ctx, tracer = env.ctx, env.tracer
    scale = 0.15 if ctx.smoke else 1.0
    connections, connect_ms = await session.connect()
    phases: Dict[str, loadgen.Recorder] = {}
    try:
        pings = []
        for _ in range(5 if ctx.smoke else 50):
            started = time.perf_counter()
            await connections[0].send_raw({"op": "stats"})
            pings.append((time.perf_counter() - started) * 1000)
        with tracer.span("wire.floor"):
            floor = phases["floor"] = await workloads.floor_phase(session, connections, 1.0 * scale)
        ladder = await session.call(
            "ladder", users=tuple(range(64)), cold_items=tuple(range(0, 40, 2)), repeats=env.repeats
        )
        with tracer.span("wire.window"):
            window, window_s = await workloads.window_phase(session, connections, 1.5 * scale)
            phases["window"] = window
        stats = await session.call("stats")
        with tracer.span("wire.open"):
            opened, _ = await workloads.open_phase(session, connections, workloads.OPEN_RATE, 2.5 * scale)
            phases["open"] = opened
        # The highest rate of the ladder that, like every rate below it, still
        # answers 95% of its frames inside the SLO.
        best_rate = 0.0
        for position, rate in enumerate(LADDER_RATES):
            with tracer.span(f"wire.rate.{rate:g}"):
                step, _ = await workloads.open_phase(session, connections, rate, 1.5 * scale, offset=40 + position)
            phases[f"rate-{rate:g}"] = step
            if workloads.slo_ok_share(step, "due") < 0.95:
                break
            best_rate = rate
        with tracer.span("wire.refresh"):
            readers, cycles, _, _ = await workloads.refresh_phase(
                session, connections, source, session.matrix, 30.0,
                workloads.REFRESH_BUDGET_ITERATIONS, max_cycles=1,
            )
            phases["refresh"] = readers
        checks.verify_monotone_generations(readers, "probe refresh")
        workloads.record_request_spans(tracer, phases)
        workloads.finish_wire_checks(session, phases, connections)
    finally:
        for connection in connections:
            await connection.close()
    oversize_ok = await _oversize_frame_ok(session)

    floor_ms = floor.latencies_ms()
    window_ms = window.latencies_ms()
    known = opened.latencies_ms(("known",), since="due")
    cold = opened.latencies_ms(("cold",), since="due")
    late = (np.asarray(opened.sent) - np.asarray(opened.due)) * 1000.0
    known_ok = (np.asarray(opened.kind) == "known") & np.asarray(opened.ok, dtype=bool)
    tenants = np.bincount(np.asarray(window.tenant)[np.asarray(window.ok, dtype=bool)], minlength=loadgen.N_TENANTS)
    cycle = cycles[0]
    floor_p50 = median(floor_ms)
    levels = [
        floor_p50,
        ladder["batcher_submit_1_ms"],
        ladder["runtime_recommend_1_ms"],
        ladder["engine_single_user_ms"],
    ]
    attempted = sum(recorder.attempted for recorder in phases.values())
    failed = sum(recorder.failed for recorder in phases.values())
    env.values.update(
        {
            "failed_share": failed / max(1, attempted),
            "gateway.connect_ms": median(connect_ms),
            "gateway.ping_ms": median(pings),
            "gateway.floor_p50_ms": floor_p50,
            "gateway.floor_p99_ms": percentile(floor_ms, 99),
            "gateway.window_req_per_s": int(np.sum(window.ok)) / window_s,
            "gateway.window_p50_ms": median(window_ms),
            "gateway.window_p99_ms": percentile(window_ms, 99),
            "gateway.open_known_p50_ms": median(known),
            "gateway.open_known_p99_ms": percentile(known, 99),
            "gateway.open_cold_p50_ms": median(cold),
            "gateway.open_cold_p99_ms": percentile(cold, 99),
            "gateway.open_slo_ok_share": workloads.slo_ok_share(opened, "due"),
            "gateway.max_rate_under_slo_rps": best_rate,
            "gateway.generator_late_p99_ms": percentile(late, 99),
            "gateway.oversize_frame_ok": oversize_ok,
            "gateway.error_frames": sum(recorder.error_frames for recorder in phases.values()),
            "batcher.submit_1_ms": ladder["batcher_submit_1_ms"],
            "batcher.queue_p50_ms": median(floor.queue_ms),
            "batcher.serve_p50_ms": median(floor.serve_ms),
            "batcher.mean_occupancy": float(np.mean(window.batch_users)),
            "batcher.requests_per_batch": float(np.mean(window.batch_requests)),
            "batcher.final_delay_ms": stats["batching"]["current_delay_ms"],
            "batcher.hol_known_wait_p99_ms": percentile(np.asarray(opened.queue_ms)[known_ok], 99),
            "fairness.tenant_share_spread": float(tenants.max() / max(1, tenants.min())),
            "runtime.recommend_1_ms": ladder["runtime_recommend_1_ms"],
            "runtime.recommend_64_ms": ladder["runtime_recommend_64_ms"],
            "runtime.recommend_cold_ms": ladder["runtime_recommend_cold_ms"],
            "runtime.publish_ms": session.started["timings"]["publish_s"] * 1000,
            "runtime.update_ms": cycle["update_s"] * 1000,
            "runtime.ingest_pairs_per_s": len(cycle["delta"].pairs) / cycle["ingest_s"],
            "runtime.refit_warm_s": cycle["refit_s"],
            "runtime.refit_iterations": cycle["refit_iterations"],
            "ladder.wire_self_ms": levels[0] - levels[1],
            "ladder.batcher_self_ms": levels[1] - levels[2],
            "ladder.runtime_self_ms": levels[2] - levels[3],
            "ladder.engine_ms": levels[3],
            "ladder.engine_share": levels[3] / levels[0],
            "refresh.total_s": cycle["refresh_s"],
            "refresh.ingest_s": cycle["ingest_s"],
            "refresh.refit_s": cycle["refit_s"],
            "refresh.update_ms": cycle["update_s"] * 1000,
            "refresh.read_p50_ms": median(readers.latencies_ms()),
            "refresh.read_p99_ms": percentile(readers.latencies_ms(), 99),
            "refresh.new_user_first_ok_ms": workloads.new_user_first_ok_ms(readers, cycles),
        }
    )


def probe_wire(env: Env) -> None:
    """gateway, batcher, runtime, ladder and refresh: one SUT child, all phases."""
    ctx = env.ctx
    rng = np.random.default_rng([ctx.seed, 49979687])
    # One delta of the issue's size: 3% more pairs and 1% new users.
    source = workloads.DeltaSource(env.corpus.matrix, rng, 0.03, 0.01)
    session = workloads.WireSession(ctx, env.corpus.matrix, workloads.SETUP_ITERATIONS, env.tracer.enabled, "probe")
    try:
        asyncio.run(_wire(env, session, source))
    finally:
        stopped = session.stop()
    env.tracer.merge(stopped.get("spans", []), stopped.get("counters", {}), "sut.")
    env.values.update({"runtime.close_s": stopped["timings"]["runtime_close_s"]})


def probe_alloc(env: Env) -> None:
    """What the allocator pin hides: one server child started without it.

    Its set-up fit re-faults its temporaries the way a default deployment
    does; the page-fault count says how much memory the program touches anew
    whatever a fault happens to cost on this host.
    """
    ctx = env.ctx
    unpinned = {name: value for name, value in os.environ.items() if name not in ALLOCATOR_PIN}
    session = workloads.WireSession(
        ctx, env.corpus.matrix, workloads.TRAIN_ITERATIONS, False, "unpinned", env=unpinned
    )
    stopped = session.stop()
    env.values.update(
        {
            "alloc.unpinned_fit_s": session.started["timings"]["fit_s"],
            "alloc.unpinned_minor_faults": stopped["minor_faults"],
            "alloc.unpinned_peak_rss_mb": stopped["peak_rss_mb"],
        }
    )


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_all(ctx: workloads.Context, tracer) -> Dict[str, float]:
    """Every layer probe, innermost layers first."""
    env = Env(ctx, tracer)
    for probe in (probe_data, probe_training, probe_executors, probe_engine, probe_fold_in, probe_codecs, probe_wire, probe_alloc):
        started = time.perf_counter()
        with tracer.span(f"probe.{probe.__name__[6:]}"):
            probe(env)
        ctx.log(f"  probe {probe.__name__[6:]}: {time.perf_counter() - started:.1f} s")
    env.cluster_shutdown.join()
    started, ended = env.cluster_shutdown_span
    tracer.add_span("executor.cluster.shutdown", started, ended)
    env.values.update({"executor.cluster.shutdown_s": ended - started})
    return env.values
