"""Concurrency stress tests: the micro-batching front-end and the PR-4
runtime under simultaneous serving traffic and generation churn.

The contract under test: with >= 16 threads submitting mixed known-user and
fold-in requests while a background thread refits and swaps model versions
in a loop, (a) nothing raises, (b) every response's rankings are exactly the
rankings of the generation it was batched against — not a torn mix of two
versions — and (c) ``/dev/shm`` is clean after the runtime exits."""

from __future__ import annotations

import os
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import RecommendRequest
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.runtime import BatchingFrontEnd, RecommenderRuntime
from repro.serving import TopNEngine, recommend_folded

#: Join/future timeout: a deadlock fails the assertion instead of hanging.
STRESS_TIMEOUT = 120.0

N_CLIENTS = 16
REQUESTS_PER_CLIENT = 6
MIN_GENERATIONS = 3

N_USERS, N_ITEMS = 150, 60


def _model(seed: int) -> OCuLaR:
    return OCuLaR(
        n_coclusters=6,
        regularization=5.0,
        max_iterations=2,
        tolerance=0.0,
        random_state=seed,
    )


@pytest.fixture(scope="module")
def corpus():
    matrix = make_netflix_like(
        n_users=N_USERS, n_items=N_ITEMS, random_state=0
    )
    return matrix


class _GenerationLedger:
    """Per-generation reference snapshots, recorded at publish time.

    The updater thread records the engine and fold-in solver view of every
    generation it publishes; verification replays each response against the
    snapshot of the generation that served it.  ``factors_`` is safe to
    reference without copying: every fit builds a fresh ``FactorModel``, so
    a later refit never mutates a snapshotted one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: dict = {}

    def record(self, generation: int, model) -> None:
        engine = TopNEngine.from_model(model)
        solver = SimpleNamespace(
            factors_=model.factors_,
            regularization=model.regularization,
        )
        with self._lock:
            self._snapshots[generation] = (engine, solver)

    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)

    def expect_topn(self, generation: int, users, n_items: int):
        engine, _solver = self._snapshots[generation]
        return engine.topn(users, n_items=n_items)

    def expect_folded(self, generation: int, interactions, n_items: int, n_sweeps: int):
        engine, solver = self._snapshots[generation]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return recommend_folded(
                engine, interactions, model=solver, n_items=n_items, n_sweeps=n_sweeps
            )


def _run_updater(runtime, ledger, stop_event, errors):
    """Refit + update in a loop (at least MIN_GENERATIONS swaps)."""
    try:
        seed = 1
        while seed <= MIN_GENERATIONS or not stop_event.is_set():
            runtime.model.random_state = seed  # distinct factors per version
            runtime.refit()
            generation = runtime.update()
            ledger.record(generation, runtime.model)
            seed += 1
            if seed > 200:  # pragma: no cover - runaway guard
                break
    except Exception as exc:  # pragma: no cover - failure mode
        errors.append(exc)


def _join_all(threads):
    for thread in threads:
        thread.join(timeout=STRESS_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads), "stress thread hung"


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="requires a /dev/shm mount")
class TestFrontEndUnderChurn:
    def test_mixed_requests_vs_refit_update_loop(self, corpus, shm_ledger, kept_plan_names):
        ledger = _GenerationLedger()
        errors: list = []
        responses: list = []  # (kind, payload, BatchedResponse); append is atomic

        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(0), corpus)
            ledger.record(runtime.publish(), runtime.model)
            stop_updates = threading.Event()
            updater = threading.Thread(
                target=_run_updater, args=(runtime, ledger, stop_updates, errors)
            )

            def client(index: int) -> None:
                rng = np.random.default_rng(index)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        for round_no in range(REQUESTS_PER_CLIENT):
                            if (index + round_no) % 3 == 2:
                                batch = [
                                    sorted(
                                        int(x)
                                        for x in rng.choice(
                                            N_ITEMS, size=3, replace=False
                                        )
                                    )
                                ]
                                future = front.submit_request(
                                    RecommendRequest(
                                        interactions=batch, n_items=5, n_sweeps=4
                                    )
                                )
                                responses.append(
                                    ("folded", batch, future.result(STRESS_TIMEOUT))
                                )
                            else:
                                users = [
                                    int(x) for x in rng.integers(0, N_USERS, size=2)
                                ]
                                future = front.submit_request(
                                    RecommendRequest(users=users, n_items=5)
                                )
                                responses.append(
                                    ("topn", users, future.result(STRESS_TIMEOUT))
                                )
                except Exception as exc:  # pragma: no cover - failure mode
                    errors.append(exc)

            with BatchingFrontEnd(
                runtime, max_delay_ms=2, max_batch_users=64
            ) as front:
                updater.start()
                clients = [
                    threading.Thread(target=client, args=(index,))
                    for index in range(N_CLIENTS)
                ]
                for thread in clients:
                    thread.start()
                _join_all(clients)
                # The front-end drains (context exit) while the updater is
                # still churning generations — the harshest close ordering.
            stop_updates.set()
            _join_all([updater])

            assert not errors
            assert len(ledger) >= MIN_GENERATIONS + 1
            assert len(responses) == N_CLIENTS * REQUESTS_PER_CLIENT
            # Every response replays exactly against the generation that
            # served it: a batch sealed against version N answered from N.
            for kind, payload, response in responses:
                if kind == "topn":
                    want = ledger.expect_topn(response.generation, payload, 5)
                else:
                    want = ledger.expect_folded(response.generation, payload, 5, 4)
                assert len(response.rankings) == len(payload)
                for got, ref in zip(response.rankings, want):
                    assert np.array_equal(got, ref), (kind, response.generation)
            # All retired generations drained: the executor owns exactly the
            # live publication (2 factor arrays + 3 seen-mask arrays), the
            # factor pair a released generation left free for the next one,
            # and the sweep plan the warm backend keeps for the next fit.
            live = set(runtime.executor.active_segment_names())
            kept = kept_plan_names(runtime)
            assert kept <= live and len(live - kept) == 5 + 2
        shm_ledger.assert_gone()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="requires a /dev/shm mount")
class TestRuntimeSessionsUnderChurn:
    def test_pinned_sessions_vs_refit_update_loop(self, corpus, shm_ledger, kept_plan_names):
        """PR-4 runtime + session hook race-freedom, no front-end involved."""
        ledger = _GenerationLedger()
        errors: list = []
        observed: list = []  # (generation, users, rankings)

        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(0), corpus)
            ledger.record(runtime.publish(), runtime.model)
            stop_updates = threading.Event()
            updater = threading.Thread(
                target=_run_updater, args=(runtime, ledger, stop_updates, errors)
            )

            def client(index: int) -> None:
                rng = np.random.default_rng(1000 + index)
                try:
                    for _ in range(REQUESTS_PER_CLIENT):
                        users = [int(x) for x in rng.integers(0, N_USERS, size=3)]
                        with runtime.serving_session() as session:
                            result = session.recommend(
                                RecommendRequest(users=users, n_items=5)
                            )
                            observed.append(
                                (session.generation, users, result.rankings)
                            )
                except Exception as exc:  # pragma: no cover - failure mode
                    errors.append(exc)

            updater.start()
            clients = [
                threading.Thread(target=client, args=(index,))
                for index in range(N_CLIENTS)
            ]
            for thread in clients:
                thread.start()
            _join_all(clients)
            stop_updates.set()
            _join_all([updater])

            assert not errors
            assert len(observed) == N_CLIENTS * REQUESTS_PER_CLIENT
            for generation, users, rankings in observed:
                want = ledger.expect_topn(generation, users, 5)
                for got, ref in zip(rankings, want):
                    assert np.array_equal(got, ref), generation
            # The live publication, the free factor pair and the kept plan,
            # as above.
            live = set(runtime.executor.active_segment_names())
            kept = kept_plan_names(runtime)
            assert kept <= live and len(live - kept) == 5 + 2
        shm_ledger.assert_gone()

    def test_ab_serving_two_pinned_generations(self, corpus, shm_ledger):
        """A/B shape: two generations pinned and served alternately.

        The older generation is retired by the swap but stays attachable
        while its session holds a reference; workers keep engines for both
        cached (MAX_CACHED_ENGINES >= 2), so alternation does not thrash."""
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            model_a = _model(0)
            runtime.fit(model_a, corpus)
            runtime.publish()
            engine_a = TopNEngine.from_model(model_a)
            session_a = runtime.serving_session()
            names_a = set(session_a._spec.segment_names())

            model_b = _model(7)
            runtime.fit(model_b, corpus)
            runtime.update()
            engine_b = TopNEngine.from_model(model_b)
            session_b = runtime.serving_session()

            users = list(range(40))
            want_a = engine_a.topn(users, n_items=5)
            want_b = engine_b.topn(users, n_items=5)
            for _round in range(3):  # alternate: A, B, A, B, ...
                request = RecommendRequest(users=users, n_items=5)
                got_a = session_a.recommend(request, shard_size=10).rankings
                got_b = session_b.recommend(request, shard_size=10).rankings
                for got, ref in zip(got_a, want_a):
                    assert np.array_equal(got, ref)
                for got, ref in zip(got_b, want_b):
                    assert np.array_equal(got, ref)
            # While pinned, the retired A generation is still in /dev/shm...
            assert names_a <= shm_ledger.entries()
            session_a.release()
            # ...and is released as soon as its last reference drains: the
            # next generation rewrites its factor pair in place.
            runtime.update()
            assert set(runtime.published_spec.segment_names()) == names_a
            session_b.release()
            assert runtime.recommend(
                RecommendRequest(users=users[:5], n_items=5)
            ).rankings  # still serving
        shm_ledger.assert_gone()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="requires a /dev/shm mount")
class TestIngestWarmRefitChurn:
    def test_ingest_and_warm_refit_loop_vs_serving_traffic(self, corpus, shm_ledger, kept_plan_names):
        """Incremental lifecycle under load: ingest → serve-fresh-now → warm
        refit → update, in a background loop, while 16 client threads hammer
        known-user requests through pinned sessions.

        Contract: (a) nothing raises, (b) every client response and every
        mixed known+fresh response replays exactly against the generation
        that served it, (c) each background refit really warm-started, and
        (d) /dev/shm is clean after the runtime exits."""
        ledger = _GenerationLedger()
        errors: list = []
        observed: list = []  # client (generation, users, rankings)
        mixed: list = []  # updater (response, fresh_items)
        N_ROUNDS = 4
        N_SWEEPS = 6

        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(0), corpus)
            ledger.record(runtime.publish(), runtime.model)
            rounds_done = threading.Event()

            def updater() -> None:
                try:
                    for round_no in range(N_ROUNDS):
                        rng = np.random.default_rng(5000 + round_no)
                        fresh_user = runtime.train_matrix.n_users
                        fresh_items = sorted(
                            int(x)
                            for x in rng.choice(N_ITEMS, size=4, replace=False)
                        )
                        delta = [(fresh_user, item) for item in fresh_items]
                        # A little drift among existing users too.
                        delta += [
                            (int(u), int(i))
                            for u, i in zip(
                                rng.integers(0, N_USERS, size=20),
                                rng.integers(0, N_ITEMS, size=20),
                            )
                        ]
                        runtime.ingest(delta, n_new_users=1)
                        # The just-ingested user is servable immediately,
                        # batched with a known user against one generation.
                        response = runtime.recommend(
                            RecommendRequest(
                                users=[0, fresh_user], n_items=5, n_sweeps=N_SWEEPS
                            )
                        )
                        mixed.append((response, fresh_items))
                        runtime.refit(mode="warm")
                        assert runtime.model.history_.warm_started
                        ledger.record(runtime.update(), runtime.model)
                except Exception as exc:  # pragma: no cover - failure mode
                    errors.append(exc)
                finally:
                    rounds_done.set()

            def client(index: int) -> None:
                rng = np.random.default_rng(2000 + index)
                try:
                    while not rounds_done.is_set():
                        users = [int(x) for x in rng.integers(0, N_USERS, size=3)]
                        with runtime.serving_session() as session:
                            result = session.recommend(
                                RecommendRequest(users=users, n_items=5)
                            )
                            observed.append(
                                (session.generation, users, result.rankings)
                            )
                except Exception as exc:  # pragma: no cover - failure mode
                    errors.append(exc)

            update_thread = threading.Thread(target=updater)
            update_thread.start()
            clients = [
                threading.Thread(target=client, args=(index,))
                for index in range(N_CLIENTS)
            ]
            for thread in clients:
                thread.start()
            _join_all([update_thread])
            _join_all(clients)

            assert not errors
            assert len(ledger) == N_ROUNDS + 1
            assert observed
            for generation, users, rankings in observed:
                want = ledger.expect_topn(generation, users, 5)
                for got, ref in zip(rankings, want):
                    assert np.array_equal(got, ref), generation
            # The mixed known+fresh responses are generation-consistent too:
            # the known half replays through the engine, the fresh half
            # through fold-in of the ingested interactions, both against the
            # single generation the response reports.
            assert len(mixed) == N_ROUNDS
            for response, fresh_items in mixed:
                want_known = ledger.expect_topn(response.generation, [0], 5)
                assert np.array_equal(response.rankings[0], want_known[0])
                want_fresh = ledger.expect_folded(
                    response.generation, [fresh_items], 5, N_SWEEPS
                )
                assert np.array_equal(response.rankings[1], want_fresh[0])
            # The live publication, the free factor pair and the kept plan,
            # as above.
            live = set(runtime.executor.active_segment_names())
            kept = kept_plan_names(runtime)
            assert kept <= live and len(live - kept) == 5 + 2
        shm_ledger.assert_gone()


class TestWarmBackendFoldInRefitChurn:
    """Concurrent fold-ins racing warm refits through ONE warm thread backend.

    The pooled sweep workspaces hang off plan sides: the fold-in side cache
    reuses one side across identical batches, folded on the callers' own
    threads, while the warm refits sweep on the backend's thread pool.  The
    contract: arenas are handed out exclusively, so every concurrent result
    is bit-identical to its serial reference and no sweep ever sees another
    sweep's scratch."""

    def test_concurrent_fold_in_and_warm_refit_share_backend(self, corpus):
        from repro.core.backends import ParallelBackend
        from repro.serving.fold_in import (
            clear_fold_in_plan_cache,
            fold_in_factors,
        )

        base = _model(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base.fit(corpus)
        item_factors = base.factors_.item_factors
        rng = np.random.default_rng(42)
        batches = []
        for _ in range(4):
            rows = np.repeat(np.arange(3), 4)
            cols = np.concatenate(
                [
                    np.sort(rng.choice(N_ITEMS, size=4, replace=False))
                    for _ in range(3)
                ]
            )
            batches.append(
                sp.csr_matrix(
                    (np.ones(rows.size), (rows, cols)), shape=(3, N_ITEMS)
                )
            )

        clear_fold_in_plan_cache()
        expected_folds = [
            fold_in_factors(item_factors, batch, base.regularization, n_sweeps=8)
            for batch in batches
        ]
        reference_refit = _model(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference_refit.fit(
                corpus, initial_factors=base.factors_
            )

        errors: list = []
        fold_results: list = []
        refit_results: list = []
        stop = threading.Event()

        with ParallelBackend(n_workers=2, executor="thread") as backend:

            def folder(index: int) -> None:
                rng = np.random.default_rng(index)
                try:
                    while not stop.is_set():
                        pick = int(rng.integers(0, len(batches)))
                        folded = fold_in_factors(
                            item_factors,
                            batches[pick],
                            base.regularization,
                            n_sweeps=8,
                        )
                        fold_results.append((pick, folded))
                except Exception as exc:  # pragma: no cover - failure mode
                    errors.append(exc)

            def refitter() -> None:
                try:
                    for _ in range(3):
                        model = _model(1)
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            model.fit(
                                corpus,
                                backend=backend,
                                initial_factors=base.factors_,
                            )
                        assert model.history_.warm_started
                        refit_results.append(model.factors_)
                except Exception as exc:  # pragma: no cover - failure mode
                    errors.append(exc)
                finally:
                    stop.set()

            refit_thread = threading.Thread(target=refitter)
            fold_threads = [
                threading.Thread(target=folder, args=(index,))
                for index in range(6)
            ]
            refit_thread.start()
            for thread in fold_threads:
                thread.start()
            _join_all([refit_thread])
            _join_all(fold_threads)

        clear_fold_in_plan_cache()
        assert not errors
        assert fold_results
        # Every concurrent fold-in is bit-identical to its serial reference
        # (parallel sweeps are bit-identical to vectorized ones, and arenas
        # are exclusive, so concurrency must not change a single byte).
        for pick, folded in fold_results:
            assert np.array_equal(folded, expected_folds[pick]), pick
        # Every warm refit through the contended backend equals the serial
        # warm refit: same seed, same init, same math.
        assert len(refit_results) == 3
        for factors in refit_results:
            assert np.array_equal(
                factors.user_factors, reference_refit.factors_.user_factors
            )
            assert np.array_equal(
                factors.item_factors, reference_refit.factors_.item_factors
            )
