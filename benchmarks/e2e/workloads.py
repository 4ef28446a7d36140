"""The six workloads: what each sets up, what it times, what it checks.

Every workload has the same three steps.  ``setup`` builds everything the
timed region needs (corpus, split, program, model) and is what ``setup_s``
measures; ``measure`` runs the timed region for the requested seconds and
returns the four role metrics of :mod:`metrics` plus whatever the checks
need; ``teardown`` releases the program.  The wire phases at the bottom are
shared with the layer probes, which run shorter versions of them.
"""

from __future__ import annotations

import asyncio
import resource
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

import checks
import corpus as corpus_module
import loadgen
from hostspeed import HostSpeed
from metrics import SLO_MS, median, summary
from sut import SutHandle
from trace import OFF

from repro import OCuLaR
from repro.api import RecommendRequest
from repro.baselines.popularity import PopularityRecommender
from repro.data.interactions import InteractionMatrix
from repro.data.splitting import train_test_split
from repro.evaluation.metrics import recall_at_m
from repro.runtime import RecommenderRuntime
from repro.serving.engine import TopNEngine

#: Model hyper-parameters shared by every workload (the paper's K and lambda).
MODEL = dict(n_coclusters=50, regularization=10.0, tolerance=0.0)
TRAIN_ITERATIONS = 3
#: Untimed fits before train-cold's timed region.  It takes a few fits until
#: the parent and every pool worker have touched all the memory they will then
#: keep reusing; until then a fit is 2-3x slower and the median of a short run
#: lands on either side of that step.
TRAIN_WARMUP_FITS = 4
SETUP_ITERATIONS = 1
#: batch-* time every this-many-th pass right after an update().
FIRST_PASS_EVERY = 4
#: ... and after every pass this many one-user requests.
SINGLES_PER_PASS = 8
REFRESH_SETUP_ITERATIONS = 2
REFRESH_BUDGET_ITERATIONS = 2
#: Untimed refresh cycles before the timed ones, for the reason train-cold
#: warms up: the first refits in a fresh process run 2-3x slower.
REFRESH_WARMUP_CYCLES = 2
#: What one refresh cycle ingests, as shares of the corpus: new pairs of
#: existing users, and new users.  Small, so the corpus grows by under 1% per
#: cycle and the cycles of one run do comparable work.
DELTA_PAIR_SHARE = 0.005
DELTA_NEW_USER_SHARE = 0.0025
OPEN_RATE = 100.0
FRONT = dict(max_delay_ms=5.0, max_batch_users=256, adaptive=True)
GATEWAY = dict(max_inflight=64)
CONNECTIONS = 2


@dataclass
class Context:
    """What a run was asked for, plus where its artefacts go."""

    workload: str
    seed: int
    scale: str  # "full" or "smoke"
    workers: int
    results_dir: Path
    log: Callable[[str], None]
    speed: HostSpeed

    @property
    def smoke(self) -> bool:
        return self.scale == "smoke"

    def model(self, iterations: int) -> dict:
        params = dict(MODEL, max_iterations=iterations, random_state=self.seed)
        if self.smoke:
            params["n_coclusters"] = 8
        return params


#: How a role's value scales with the host's slowdown: times grow with it,
#: rates shrink, a share of answers has no unit to scale.
SCALES_WITH_SLOWDOWN = {"primary_p50_ms": 1, "secondary_p50_ms": 1, "primary_per_s": -1, "quality_ratio": 0}

Window = Tuple[float, float]


@dataclass
class Measured:
    """One timed region's outcome."""

    #: The role metrics at nominal host speed (see :mod:`hostspeed`).
    roles: Dict[str, float]
    #: The same as measured, and the slowdown each was divided by.
    raw: Dict[str, float]
    slowdown: Dict[str, float]
    #: The slowdown over the whole timed region (what ``setup_s`` is divided by).
    region_slowdown: float
    attempted: int
    failed: int
    #: The time (any unit, lower is better, at nominal host speed) whose
    #: traced/untraced ratio is reported as the tracing overhead.
    headline: float

    @classmethod
    def at_nominal_speed(
        cls, ctx: Context, raw: Dict[str, float], window: Window, attempted: int, failed: int,
        windows: Optional[Dict[str, Window]] = None,
        headline: Callable[[Dict[str, float]], float] = lambda roles: roles["primary_p50_ms"],
    ) -> "Measured":
        """State ``raw`` at nominal host speed.

        ``window`` is the timed region (``perf_counter`` stamps); a role
        measured in only part of it names that part in ``windows``.
        """
        roles, slowdown = {}, {}
        for role, value in raw.items():
            slowdown[role] = ctx.speed.slowdown(*(windows or {}).get(role, window))
            roles[role] = value / slowdown[role] ** SCALES_WITH_SLOWDOWN[role]
        return cls(roles, dict(raw), slowdown, ctx.speed.slowdown(*window), attempted, failed, headline(roles))


def holdout(matrix: InteractionMatrix, share: float, rng: np.random.Generator):
    """Vectorised split: ``(train, held_out_csr)``; each user keeps >= 1 pair.

    The package's ``train_test_split`` loops per user in Python; it is what
    ``train-cold`` uses (and what ``data.split_s`` times), but the serving
    workloads only need *a* held-out set and should not pay for it in set-up.
    """
    csr = matrix.csr()
    take = rng.random(csr.nnz) < share
    take[csr.indptr[:-1][np.diff(csr.indptr) > 0]] = False  # first pair of each row stays
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))

    def part(mask):
        out = sp.csr_matrix(
            (np.ones(int(mask.sum())), (rows[mask], csr.indices[mask])), shape=csr.shape
        )
        out.sort_indices()
        return out

    return InteractionMatrix.from_validated_csr(part(~take)), part(take)


def recall_at(rankings, users: Sequence[int], held_out: sp.csr_matrix) -> float:
    """Mean recall of ``rankings`` (row i ranks ``users[i]``) on ``held_out``."""
    lengths = np.asarray([len(row) for row in rankings])
    ranked = sp.csr_matrix(
        (
            np.ones(int(lengths.sum())),
            np.concatenate([np.asarray(row) for row in rankings]),
            np.concatenate([[0], np.cumsum(lengths)]),
        ),
        shape=(len(users), held_out.shape[1]),
    )
    relevant = held_out[np.asarray(users)]
    hits = np.asarray(ranked.multiply(relevant).sum(axis=1)).ravel()
    totals = np.diff(relevant.indptr)
    keep = totals > 0
    return float(np.mean(hits[keep] / totals[keep]))


def split_recall(rankings, users: Sequence[int], split) -> float:
    """Mean recall@50 on a package ``Split``, through the package's own metric."""
    return float(
        np.mean([recall_at_m(row, split.test_items[user], 50) for user, row in zip(users, rankings)])
    )


def own_peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def quiet_fit(runtime: RecommenderRuntime, params: dict, matrix) -> OCuLaR:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # iteration budgets end before convergence
        return runtime.fit(OCuLaR(**params), matrix)


# --------------------------------------------------------------------------- #
# train-cold
# --------------------------------------------------------------------------- #
class TrainCold:
    corpus = "ml1m"

    def setup(self, ctx: Context, tracer=OFF) -> dict:
        with tracer.span("data.corpus_gen"):
            corpus = corpus_module.generate(self.corpus, ctx.seed, ctx.scale)
        with tracer.span("data.split"):
            split = train_test_split(corpus.matrix, 0.25, random_state=ctx.seed)
        with tracer.span("runtime.construct"):
            runtime = RecommenderRuntime(executor="process", max_workers=ctx.workers)
            # Start the pool now: process start-up is set-up, not training.
            runtime.worker_pids()
        return {"corpus": corpus, "split": split, "runtime": runtime}

    def teardown(self, state: dict) -> dict:
        state["runtime"].close()
        return {}

    def measure(self, ctx: Context, state: dict, seconds: float, tracer=OFF) -> Measured:
        runtime, split = state["runtime"], state["split"]
        params = ctx.model(TRAIN_ITERATIONS)
        fit_s: List[float] = []
        histories = []
        if not state.get("warm") and not ctx.smoke:
            with tracer.span("train.warm_up"):
                for _ in range(TRAIN_WARMUP_FITS):
                    quiet_fit(runtime, params, split.train)
            state["warm"] = True
        test_users = sorted(split.test_items)
        request = RecommendRequest(users=tuple(test_users), n_items=50)
        publish_ms: List[float] = []
        rank_s: List[float] = []
        started = time.perf_counter()
        while len(fit_s) < 2 or time.perf_counter() - started < seconds:
            tick = time.perf_counter()
            with tracer.span("runtime.fit", request_id=len(fit_s)):
                model = quiet_fit(runtime, params, split.train)
            fit_s.append(time.perf_counter() - tick)
            histories.append(model.history_)
            # One publish and one ranking pass after every fit rather than a
            # burst at the end: the host's speed wanders on a scale of
            # seconds, and samples spread over the whole region average that
            # out.  The pass is the first on its generation, so the workers
            # attach the new factors inside it.
            tick = time.perf_counter()
            with tracer.span("runtime.publish"):
                runtime.publish()
            publish_ms.append((time.perf_counter() - tick) * 1000.0)
            tick = time.perf_counter()
            with tracer.span("runtime.recommend"):
                response = runtime.recommend(request)
            rank_s.append(time.perf_counter() - tick)
            ctx.speed.sample(5)
            if ctx.smoke:
                break
        window = (started, time.perf_counter())
        rankings = list(response.rankings)
        state["last"] = {"model": model, "rankings": rankings, "test_users": test_users, "histories": histories}
        ctx.log(f"  fits: {summary(fit_s)} s; iterations {histories[-1].n_iterations}")
        ctx.log(f"  publish: {summary(publish_ms)} ms; first pass over {len(test_users)} held-out users: {summary(rank_s)} s")
        return Measured.at_nominal_speed(
            ctx,
            {
                "primary_p50_ms": median(fit_s) * 1000.0,
                "primary_per_s": len(test_users) / median(rank_s),
                "secondary_p50_ms": median(publish_ms),
                "quality_ratio": split_recall(rankings, test_users, split),
            },
            window,
            attempted=len(fit_s) + len(publish_ms) + len(rank_s),
            failed=0,
        )

    def check(self, ctx: Context, state: dict, measured: Measured) -> None:
        last = state["last"]
        split = state["split"]
        first = last["histories"][0].objective_values
        for history in last["histories"]:
            checks.verify_non_increasing(history.objective_values, "train-cold objective")
            checks.require(
                history.objective_values == first,
                "train-cold: the same seed gave different objective values on a repeated fit",
            )
        popularity = PopularityRecommender().fit(split.train)
        ranked = TopNEngine.from_model(popularity).topn(last["test_users"], n_items=50)
        baseline = split_recall(ranked, last["test_users"], split)
        recall = measured.roles["quality_ratio"]
        ctx.log(f"  recall@50 {recall:.4f} vs popularity {baseline:.4f}")
        checks.require(
            ctx.smoke or recall >= 2.0 * baseline,
            f"train-cold: recall@50 {recall:.4f} is below twice popularity's {baseline:.4f}",
        )
        reference = TopNEngine.from_factors(last["model"].factors_, split.train, pipeline=False)
        verify_rows(
            "train-cold", last["rankings"], reference.topn(last["test_users"], n_items=50)
        )


def verify_rows(where: str, got, want) -> None:
    """Served rows equal the reference engine's, row for row."""
    checks.require(len(got) == len(want), f"{where}: {len(got)} rows served, {len(want)} expected")
    for index, (mine, theirs) in enumerate(zip(got, want)):
        checks.require(
            np.array_equal(np.asarray(mine), np.asarray(theirs)),
            f"{where}: row {index} differs from the in-process TopNEngine",
        )


# --------------------------------------------------------------------------- #
# batch-topn / batch-wide
# --------------------------------------------------------------------------- #
class Batch:
    def __init__(self, corpus: str, executor: str) -> None:
        self.corpus = corpus
        self.executor = executor

    def setup(self, ctx: Context, tracer=OFF) -> dict:
        with tracer.span("data.corpus_gen"):
            corpus = corpus_module.generate(self.corpus, ctx.seed, ctx.scale)
        with tracer.span("data.holdout"):
            train, held_out = holdout(corpus.matrix, 0.2, np.random.default_rng(ctx.seed))
        with tracer.span("runtime.construct"):
            runtime = RecommenderRuntime(executor=self.executor, max_workers=ctx.workers)
        with tracer.span("runtime.fit"):
            model = quiet_fit(runtime, ctx.model(SETUP_ITERATIONS), train)
        with tracer.span("runtime.publish"):
            runtime.publish()
        request = RecommendRequest(users=tuple(range(train.n_users)), n_items=50)
        # One pass so that lazy set-up (workers attach, score pools fill) is
        # paid in set-up, where setup_s shows it, and not by the first sample.
        with tracer.span("runtime.recommend", request_id="first"):
            runtime.recommend(request)
        return {
            "corpus": corpus, "train": train, "held_out": held_out, "runtime": runtime,
            "model": model, "request": request,
        }

    def teardown(self, state: dict) -> dict:
        state["runtime"].close()
        return {}

    def measure(self, ctx: Context, state: dict, seconds: float, tracer=OFF) -> Measured:
        runtime, request = state["runtime"], state["request"]
        rng = np.random.default_rng([ctx.seed, 611953])
        pass_s: List[float] = []
        first_ms: List[float] = []
        single_ms: List[float] = []
        turn = 0
        started = time.perf_counter()
        while len(pass_s) < 3 or not first_ms or time.perf_counter() - started < seconds:
            # Every few passes, what a refresh costs the batch: update(), then
            # the first pass, in which every worker has to attach the new
            # generation.  After every pass a few one-user requests: what one
            # call costs when there are no rows to spread it over.  Interleaved
            # so that all three kinds of sample span the whole region (the
            # host's speed wanders on a scale of seconds).
            turn += 1
            after_update = turn % FIRST_PASS_EVERY == 0
            tick = time.perf_counter()
            if after_update:
                with tracer.span("runtime.update"):
                    runtime.update()
            with tracer.span("runtime.recommend", request_id=turn):
                response = runtime.recommend(request)
            elapsed = time.perf_counter() - tick
            if after_update:
                first_ms.append(elapsed * 1000.0)
            else:
                pass_s.append(elapsed)
            for user in rng.integers(0, len(request.users), size=SINGLES_PER_PASS).tolist():
                single = RecommendRequest(users=(user,), n_items=50)
                tick = time.perf_counter()
                with tracer.span("runtime.recommend", request_id=f"single-{turn}"):
                    runtime.recommend(single)
                single_ms.append((time.perf_counter() - tick) * 1000.0)
            ctx.speed.sample()
            if ctx.smoke and first_ms:
                break
        window = (started, time.perf_counter())
        rankings = list(response.rankings)
        state["last_rankings"] = rankings
        n_users = len(request.users)
        ctx.log(f"  passes: {summary(pass_s)} s over {n_users} users; one-user requests: {summary(single_ms)} ms")
        ctx.log(f"  update() then the first pass: {summary(first_ms)} ms")
        return Measured.at_nominal_speed(
            ctx,
            {
                "primary_p50_ms": median(single_ms),
                "primary_per_s": n_users / median(pass_s),
                "secondary_p50_ms": median(first_ms),
                "quality_ratio": recall_at(rankings, request.users, state["held_out"]),
            },
            window,
            attempted=len(pass_s) + len(first_ms) + len(single_ms),
            failed=0,
            headline=lambda roles: n_users / roles["primary_per_s"],  # one steady pass
        )

    def check(self, ctx: Context, state: dict, measured: Measured) -> None:
        reference = TopNEngine.from_factors(state["model"].factors_, state["train"], pipeline=False)
        users = state["request"].users
        sample = users[:: max(1, len(users) // 500)]
        got = [state["last_rankings"][user] for user in sample]
        verify_rows(ctx.workload, got, reference.topn(sample, n_items=50))


# --------------------------------------------------------------------------- #
# The wire workloads: a SUT child plus the asyncio load generator
# --------------------------------------------------------------------------- #
class WireSession:
    """A running SUT child serving one corpus, and the reference for it."""

    def __init__(
        self, ctx: Context, matrix: InteractionMatrix, iterations: int, trace: bool, tag: str,
        env: Optional[dict] = None,
    ):
        self.ctx = ctx
        self.matrix = matrix
        self.handle = SutHandle(ctx.results_dir / f"sut_{ctx.workload}_{tag}.stderr", env)
        try:
            csr = matrix.csr()
            self.started = self.handle.call(
                "start",
                csr_parts=(csr.data, csr.indices, csr.indptr, csr.shape),
                model=ctx.model(iterations),
                workers=ctx.workers,
                front=FRONT,
                gateway=GATEWAY,
                trace=trace,
            )
        except BaseException:
            self.handle.stop()
            raise
        self.address = self.started["address"]
        self.reference = checks.Reference(self.started["solver"])
        self.reference.add_generation(self.started["generation"], self.started["factors"], matrix)

    async def connect(self, count: int = CONNECTIONS):
        connections = [loadgen.Connection(index) for index in range(count)]
        connect_ms = [await c.connect(*self.address) for c in connections]
        return connections, connect_ms

    def mix(self, offset: int, **kwargs) -> loadgen.RequestMix:
        rng = np.random.default_rng([self.ctx.seed, 7919, offset])
        return loadgen.RequestMix(rng, self.matrix.n_users, self.matrix.n_items, **kwargs)

    async def call(self, op: str, **kwargs) -> dict:
        """Command the child without blocking the load generator's loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, lambda: self.handle.call(op, **kwargs))

    def stop(self) -> dict:
        return self.handle.stop()


def phase_failures(recorder: loadgen.Recorder, connections, phase: str, ctx: Context) -> int:
    failed = recorder.failed + sum(c.stray_replies for c in connections)
    ok = recorder.attempted - recorder.failed
    ctx.log(f"  {phase}: sent {recorder.attempted} ok {ok} failed {failed}")
    return failed


def slo_ok_share(recorder: loadgen.Recorder, since: str) -> float:
    """Frames answered ok within the SLO over frames sent (a failure misses)."""
    within = int(np.sum(recorder.latencies_ms(since=since) <= SLO_MS))
    return within / max(1, recorder.attempted)


async def floor_phase(session: WireSession, connections, seconds: float) -> loadgen.Recorder:
    """One outstanding 1-user top-10 frame per connection."""
    recorder = loadgen.Recorder()
    mixes = [session.mix(10 + c.index, sizes=(1,), n_tenants=1) for c in connections]
    await loadgen.closed_loop(connections, mixes, recorder, depth=1, seconds=seconds)
    return recorder


async def window_phase(session: WireSession, connections, seconds: float, depth: int = 16):
    """``depth`` outstanding frames per connection, mixed sizes, 8 tenants."""
    recorder = loadgen.Recorder()
    mixes = [session.mix(20 + c.index) for c in connections]
    duration = await loadgen.closed_loop(connections, mixes, recorder, depth=depth, seconds=seconds)
    return recorder, duration


async def open_phase(session: WireSession, connections, rate: float, seconds: float, offset: int = 30):
    """Poisson arrivals: 95% known users, 5% cold-start, 10% with scores."""
    recorder = loadgen.Recorder()
    mix = session.mix(offset, cold_share=0.05, scores_share=0.10)
    duration = await loadgen.open_loop(connections, mix, recorder, rate=rate, seconds=seconds)
    return recorder, duration


def finish_wire_checks(session: WireSession, phases: Dict[str, loadgen.Recorder], connections) -> int:
    """Reply accounting and ranking replay for every phase; returns replays.

    The replay sample spans each phase and covers every generation that
    answered in it, the newest included.
    """
    total = 0
    for name, recorder in phases.items():
        checks.verify_reply_accounting(recorder, connections, name)
        replayed = checks.verify_rankings(recorder.checked, session.reference, recorder.generation)
        answered = {g for g, ok in zip(recorder.generation, recorder.ok) if ok and g >= 0}
        checks.require(
            answered <= set(replayed),
            f"{name}: no reply of generation(s) {sorted(answered - set(replayed))} was replayed",
        )
        total += sum(replayed.values())
    return total


class Wire:
    """Common set-up of the three wire workloads."""

    corpus = "ml1m"
    iterations = SETUP_ITERATIONS

    def serving_matrix(self, ctx: Context, corpus, state: dict) -> InteractionMatrix:
        return corpus.matrix

    def setup(self, ctx: Context, tracer=OFF) -> dict:
        with tracer.span("data.corpus_gen"):
            corpus = corpus_module.generate(self.corpus, ctx.seed, ctx.scale)
        state = {"corpus": corpus}
        with tracer.span("data.prepare"):
            matrix = self.serving_matrix(ctx, corpus, state)
        with tracer.span("sut.start"):
            state["session"] = WireSession(ctx, matrix, self.iterations, tracer.enabled, "main")
        return state

    def teardown(self, state: dict) -> dict:
        return state["session"].stop()

    def measure(self, ctx: Context, state: dict, seconds: float, tracer=OFF) -> Measured:
        return asyncio.run(self.run(ctx, state, seconds, tracer))

    def check(self, ctx: Context, state: dict, measured: Measured) -> None:
        pass  # the wire checks run inside ``run`` while the connections are open


class WireClosed(Wire):
    async def run(self, ctx: Context, state: dict, seconds: float, tracer) -> Measured:
        session: WireSession = state["session"]
        connections, _ = await session.connect()
        try:
            with ctx.speed.sampling():
                floor_began = time.perf_counter()
                with tracer.span("wire.floor"):
                    floor = await floor_phase(session, connections, seconds * 0.4)
                window_began = time.perf_counter()
                with tracer.span("wire.window"):
                    window, duration = await window_phase(session, connections, seconds * 0.6)
                ended = time.perf_counter()
            failed = phase_failures(floor, connections, "floor", ctx)
            failed += phase_failures(window, connections, "window", ctx)
            record_request_spans(tracer, {"floor": floor, "window": window})
            replayed = finish_wire_checks(session, {"floor": floor, "window": window}, connections)
        finally:
            for connection in connections:
                await connection.close()
        floor_ms = floor.latencies_ms()
        window_ms = window.latencies_ms()
        ctx.log(f"  floor latency ms: {summary(floor_ms)}; window latency ms: {summary(window_ms)}")
        ctx.log(f"  replayed {replayed} sampled replies bit-exact against the reference engine")
        return Measured.at_nominal_speed(
            ctx,
            {
                "primary_p50_ms": median(floor_ms),
                "primary_per_s": int(np.sum(window.ok)) / duration,
                "secondary_p50_ms": median(window_ms),
                "quality_ratio": slo_ok_share(window, "sent"),
            },
            (floor_began, ended),
            attempted=floor.attempted + window.attempted,
            failed=failed,
            windows={
                "primary_p50_ms": (floor_began, window_began),
                "primary_per_s": (window_began, ended),
                "secondary_p50_ms": (window_began, ended),
            },
        )


class WireOpen(Wire):
    async def run(self, ctx: Context, state: dict, seconds: float, tracer) -> Measured:
        session: WireSession = state["session"]
        connections, _ = await session.connect()
        warm_up = min(1.0, seconds * 0.15)
        try:
            with tracer.span("wire.warm_up"):
                await open_phase(session, connections, OPEN_RATE, warm_up, offset=31)
            cpu_before = (await session.call("cpu"))["cpu_s"]
            began = time.perf_counter()
            with tracer.span("wire.open"), ctx.speed.sampling():
                recorder, duration = await open_phase(session, connections, OPEN_RATE, seconds - warm_up)
            ended = time.perf_counter()
            cpu_s = (await session.call("cpu"))["cpu_s"] - cpu_before
            failed = phase_failures(recorder, connections, "open", ctx)
            record_request_spans(tracer, {"open": recorder})
            replayed = finish_wire_checks(session, {"open": recorder}, connections)
        finally:
            for connection in connections:
                await connection.close()
        known = recorder.latencies_ms(("known",), since="due")
        cold = recorder.latencies_ms(("cold",), since="due")
        late = (np.asarray(recorder.sent) - np.asarray(recorder.due)) * 1000.0
        ctx.log(f"  known ms from due: {summary(known)}; cold ms from due: {summary(cold)}")
        ctx.log(
            f"  rate {recorder.attempted / duration:.1f} req/s; server CPU {cpu_s:.2f} s of {duration:.2f} s; "
            f"generator late ms: {summary(late)}; replayed {replayed} replies bit-exact"
        )
        checks.require(len(cold) > 0, "wire-open: the run drew no cold-start frame")
        return Measured.at_nominal_speed(
            ctx,
            {
                "primary_p50_ms": median(known),
                # The arrival rate is fixed, so frames per second cannot move;
                # what the server spends to answer them can.
                "primary_per_s": int(np.sum(recorder.ok)) / cpu_s,
                "secondary_p50_ms": median(cold),
                "quality_ratio": slo_ok_share(recorder, "due"),
            },
            (began, ended),
            attempted=recorder.attempted,
            failed=failed,
        )


def record_request_spans(tracer, phases: Dict[str, loadgen.Recorder]) -> None:
    """Client-side span per frame, with the server's queue/serve split inside."""
    if not tracer.enabled:
        return
    for phase, recorder in phases.items():
        for index in range(recorder.attempted):
            if not recorder.ok[index]:
                continue
            rid = f"{phase}-{index}"
            sent, done = recorder.sent[index], recorder.done[index]
            parent = tracer.add_span(f"wire.request.{recorder.kind[index]}", sent, done, request_id=rid)
            # The reply says how long the frame queued in the batcher and how
            # long its merged engine call took; both end before the reply is
            # encoded, so anchor them at the reply and work backwards.
            serve = recorder.serve_ms[index] / 1000.0
            queue = recorder.queue_ms[index] / 1000.0
            tracer.add_span("batcher.queue", done - serve - queue, done - serve, parent, rid)
            tracer.add_span("runtime.serve", done - serve, done, parent, rid)
            tracer.count(f"wire.{phase}.frames")
            tracer.count(f"wire.{phase}.rows", recorder.n_rows[index])


# --------------------------------------------------------------------------- #
# refresh-under-load
# --------------------------------------------------------------------------- #
@dataclass
class Delta:
    """One ingest: pairs to add and users to append (``user id -> item row``)."""

    pairs: List[tuple]
    n_new_users: int
    new_user_rows: Dict[int, List[int]]


class DeltaSource:
    """An endless, seeded supply of ingest deltas for one corpus.

    Each delta brings ``pair_share`` of the corpus's pair count as new pairs
    of existing users (items drawn by popularity: the item of a random
    existing pair) and ``new_user_share`` of its user count as new users, each
    with the item row of a random existing user.  Nothing is withheld from the
    corpus to make them, so however fast the refresh cycles go the supply
    cannot run out and the timed region is as long as it was asked to be.
    """

    def __init__(self, matrix: InteractionMatrix, rng, pair_share: float, new_user_share: float) -> None:
        self.csr = matrix.csr()
        self.rng = rng
        self.n_users = matrix.n_users  # grows with every delta handed out
        self.n_pairs = max(1, int(self.csr.nnz * pair_share))
        self.n_new_users = max(1, int(matrix.n_users * new_user_share))

    def next(self) -> Delta:
        rng, csr = self.rng, self.csr
        users = rng.integers(0, self.n_users, size=self.n_pairs)
        items = csr.indices[rng.integers(0, csr.nnz, size=self.n_pairs)]
        pairs = list(zip(users.tolist(), items.tolist()))
        rows: Dict[int, List[int]] = {}
        for donor in rng.integers(0, csr.shape[0], size=self.n_new_users).tolist():
            row = csr.indices[csr.indptr[donor] : csr.indptr[donor + 1]].tolist()
            pairs.extend((self.n_users, item) for item in row)
            rows[self.n_users] = row
            self.n_users += 1
        return Delta(pairs, self.n_new_users, rows)


async def first_reply_from(readers: loadgen.Recorder, generation: int, cursor: int) -> float:
    """When a reader first got a reply served by ``generation``."""
    deadline = time.perf_counter() + loadgen.GRACE_SECONDS
    while time.perf_counter() < deadline:
        for index in range(cursor, readers.attempted):
            if readers.generation[index] >= generation:
                return readers.done[index]
        await asyncio.sleep(0.001)
    raise checks.CheckFailure(f"refresh: no reader saw generation {generation}")


async def refresh_cycle(
    session: WireSession,
    delta: Delta,
    readers: loadgen.Recorder,
    new_user_queue: List[int],
    budget_iterations: int,
) -> dict:
    """ingest -> warm refit -> update while the readers keep reading.

    The cycle runs from the ``ingest`` command to the first reader reply that
    carries the new generation.  The child's own stamps give the split.
    """
    cursor = readers.attempted
    ingest_sent = time.perf_counter()
    ingest = await session.call("ingest", pairs=delta.pairs, n_new_users=delta.n_new_users)
    ingest_ack = time.perf_counter()
    session.reference.ingested_rows.update(delta.new_user_rows)
    new_user_queue.extend(delta.new_user_rows)
    refit = await session.call("refit", max_iterations=budget_iterations)
    update = await session.call("update")
    generation = update["generation"]
    first_seen = await first_reply_from(readers, generation, cursor)
    shipped = await session.call("factors")
    del new_user_queue[:]  # they are ordinary rows of the new generation now
    return {
        "ingest_ack": ingest_ack,
        "ingest_s": ingest["end"] - ingest["start"],
        "refit_s": refit["end"] - refit["start"],
        "update_s": update["end"] - update["start"],
        "refit_iterations": refit["iterations"],
        "refresh_s": first_seen - ingest_sent,
        "generation": generation,
        "factors": shipped["factors"],
        "delta": delta,
    }


class NewUserMix(loadgen.RequestMix):
    """Reader mix that also asks for users ingested since the last publish."""

    def __init__(self, *args, queue: List[int], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.queue = queue
        self._turn = 0

    def next(self) -> loadgen.Frame:
        self._turn += 1
        if self.queue and self._turn % 4 == 0:
            user = self.queue[int(self.rng.integers(len(self.queue)))]
            return self.known([user], kind="new")
        return self.known()


async def refresh_phase(
    session: WireSession,
    connections,
    source: DeltaSource,
    current: InteractionMatrix,
    seconds: float,
    budget_iterations: int,
    max_cycles: Optional[int] = None,
):
    """Two depth-1 readers throughout; refresh cycles back to back meanwhile.

    Cycles start until ``seconds`` have passed (or ``max_cycles`` are done);
    the readers stop with the last cycle, so every reader frame was sent while
    the model was being refreshed.  Returns ``(readers, cycles, duration,
    corpus after the last cycle)``.
    """
    readers = loadgen.Recorder()
    new_users: List[int] = []
    stop = asyncio.Event()
    seed = session.ctx.seed
    shape = dict(n_users=current.n_users, n_items=current.n_items, sizes=(1,), n_tenants=1)
    mixes = [
        loadgen.RequestMix(np.random.default_rng([seed, 104729, 0]), **shape),
        NewUserMix(np.random.default_rng([seed, 104729, 1]), queue=new_users, **shape),
    ]
    started = time.perf_counter()
    reading = asyncio.ensure_future(
        loadgen.closed_loop(connections[:2], mixes, readers, depth=1, seconds=3600.0, stop=stop)
    )
    cycles: List[dict] = []
    try:
        while len(cycles) != max_cycles and (not cycles or time.perf_counter() - started < seconds):
            cycles.append(await refresh_cycle(session, source.next(), readers, new_users, budget_iterations))
    finally:
        stop.set()
        await reading
    duration = time.perf_counter() - started
    # The reference for each generation needs the corpus it was fitted on.
    # Built here, after the readers have stopped: extending the corpus inside
    # the loop would stall the load generator's thread while it is being timed.
    for cycle in cycles:
        delta = cycle["delta"]
        current = current.extended_with(delta.pairs, n_new_users=delta.n_new_users)
        session.reference.add_generation(cycle["generation"], cycle["factors"], current)
    return readers, cycles, duration, current


def new_user_first_ok_ms(readers: loadgen.Recorder, cycles) -> float:
    """Ingest ack to the first ok reply for a just-ingested user id (median)."""
    done = np.asarray(readers.done)
    fresh = (np.asarray(readers.kind) == "new") & np.asarray(readers.ok, dtype=bool)
    waits = []
    for cycle in cycles:
        later = done[fresh & (done >= cycle["ingest_ack"])]
        if len(later):
            waits.append((float(later.min()) - cycle["ingest_ack"]) * 1000.0)
    return median(waits)


class RefreshUnderLoad(Wire):
    iterations = REFRESH_SETUP_ITERATIONS

    def serving_matrix(self, ctx, corpus, state):
        rng = np.random.default_rng([ctx.seed, 15485863])
        state["source"] = DeltaSource(corpus.matrix, rng, DELTA_PAIR_SHARE, DELTA_NEW_USER_SHARE)
        state["matrix"] = corpus.matrix
        return corpus.matrix

    async def cycles(self, state: dict, connections, seconds: float, max_cycles=None):
        """Run refresh cycles for ``seconds``; the state keeps the grown corpus."""
        readers, cycles, duration, state["matrix"] = await refresh_phase(
            state["session"], connections, state["source"], state["matrix"], seconds,
            REFRESH_BUDGET_ITERATIONS, max_cycles=max_cycles,
        )
        return readers, cycles, duration

    async def run(self, ctx: Context, state: dict, seconds: float, tracer) -> Measured:
        session: WireSession = state["session"]
        connections, _ = await session.connect()
        try:
            if not state.get("warm") and not ctx.smoke:
                with tracer.span("refresh.warm_up"):
                    await self.cycles(state, connections, 3600.0, REFRESH_WARMUP_CYCLES)
                state["warm"] = True
            began = time.perf_counter()
            with tracer.span("wire.refresh"), ctx.speed.sampling():
                readers, cycles, duration = await self.cycles(
                    state, connections, seconds, 1 if ctx.smoke else None
                )
            ended = time.perf_counter()
            failed = phase_failures(readers, connections, "readers", ctx)
            record_request_spans(tracer, {"refresh": readers})
            checks.verify_monotone_generations(readers, "refresh-under-load")
            replayed = finish_wire_checks(session, {"readers": readers}, connections)
        finally:
            for connection in connections:
                await connection.close()
        read_ms = readers.latencies_ms()
        parts = ", ".join(
            f"{c['refresh_s']:.2f}s = ingest {c['ingest_s']:.2f} + refit {c['refit_s']:.2f}"
            f" + update {c['update_s'] * 1000:.0f}ms" for c in cycles
        )
        ctx.log(f"  {len(cycles)} refresh cycles in {duration:.1f} s: {parts}")
        answered = [g for g, ok in zip(readers.generation, readers.ok) if ok]
        ctx.log(
            f"  reads ms: {summary(read_ms)}; replayed {replayed} replies bit-exact, "
            f"generations {min(answered)}..{max(answered)}"
        )
        return Measured.at_nominal_speed(
            ctx,
            {
                "primary_p50_ms": median(read_ms),
                "primary_per_s": int(np.sum(readers.ok)) / duration,
                "secondary_p50_ms": median([cycle["refresh_s"] * 1000.0 for cycle in cycles]),
                "quality_ratio": slo_ok_share(readers, "sent"),
            },
            (began, ended),
            attempted=readers.attempted + 3 * len(cycles),
            failed=failed,
        )


def make(name: str):
    """A fresh workload object (they keep no state between runs)."""
    return {
        "train-cold": TrainCold,
        "batch-topn": lambda: Batch("b2b", "process"),
        "batch-wide": lambda: Batch("wide", "serial"),
        "wire-closed": WireClosed,
        "wire-open": WireOpen,
        "refresh-under-load": RefreshUnderLoad,
    }[name]()
