"""Tests for the long-lived recommender runtime: warm pools, zero-copy
serving publication, model-version swaps, and shm hygiene on exit."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.api import RecommendRequest
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.exceptions import ConfigurationError, NotFittedError
from repro.parallel import SharedMemoryProcessExecutor
from repro.runtime import RecommenderRuntime
from repro.serving import SharedEngineSpec, TopNEngine, recommend_folded, serve_sharded


@pytest.fixture(scope="module")
def corpus():
    matrix = make_netflix_like(n_users=150, n_items=60, random_state=0)
    return matrix


def _mapped_segments(_task):
    """Pool task: this worker's PID and how many segments it has mapped."""
    import time

    from repro.parallel import shared_memory

    time.sleep(0.05)  # long enough that every worker draws a probe
    return os.getpid(), len(shared_memory._ATTACHMENTS)


def _factor_names(spec) -> set:
    """The segments of a published generation's factor pair."""
    return {spec.user_factors.shm_name, spec.item_factors.shm_name}


def _seen_names(spec) -> set:
    """The segments of the seen mask a published generation serves with."""
    return {array.shm_name for array in spec.seen.array_specs()}


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


class _StarmapLog:
    """A recording ``starmap`` on a runtime's executor (a test fake).

    :meth:`dispatch` reads how the serving call since the last read
    travelled: ``("caller", 1)`` when no task reached the executor (the
    call ran on the calling thread), else the kind of engine every task
    carried (``"descriptors"`` for a
    :class:`~repro.serving.shared.SharedEngineSpec`, ``"engine"`` for the
    engine itself) and the number of tasks.
    """

    def __init__(self, runtime, monkeypatch) -> None:
        self.calls: list = []
        starmap = runtime.executor.starmap

        def recording(function, argument_tuples, *args, **kwargs):
            tasks = list(argument_tuples)
            self.calls.append(tasks)
            return starmap(function, tasks, *args, **kwargs)

        monkeypatch.setattr(runtime.executor, "starmap", recording)

    def clear(self) -> None:
        self.calls = []

    def dispatch(self) -> tuple:
        calls, self.calls = self.calls, []
        if not calls:
            return ("caller", 1)
        (tasks,) = calls
        kinds = {type(task[0]) for task in tasks}
        return ("descriptors" if kinds == {SharedEngineSpec} else "engine", len(tasks))


@pytest.fixture()
def starmap_log(monkeypatch):
    """Install a :class:`_StarmapLog` on a runtime's executor."""
    return lambda runtime: _StarmapLog(runtime, monkeypatch)


@pytest.fixture(scope="module")
def fitted_reference(corpus):
    """A vectorized fit plus its single-process serving engine."""
    # Module-scoped, so it runs outside the function-scoped warning
    # silencer; the tiny iteration budget's convergence warning is expected.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = _model().fit(corpus)
    return model, TopNEngine.from_model(model)


# --------------------------------------------------------------------------- #
# Warm pool across fits
# --------------------------------------------------------------------------- #
class TestWarmPool:
    def test_worker_pids_stable_across_three_fits(self, corpus):
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            initial = runtime.worker_pids()
            assert initial and os.getpid() not in initial
            for seed in (1, 2):
                runtime.fit(_model(random_state=seed), corpus)
                # A warm pool never restarts its processes, so every PID
                # observed after later fits was already serving fit #1.
                assert runtime.worker_pids() <= initial

    def test_pool_forked_before_first_segment_shares_the_resource_tracker(self):
        # worker_pids() before the first fit forks the pool before any
        # segment exists.  Workers forked without the parent's resource
        # tracker each start their own on first attach, and at exit it
        # reports every segment they attached as leaked — on stderr, after
        # the program's own output.
        script = """
import warnings
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.exceptions import ConvergenceWarning
from repro.runtime import RecommenderRuntime

warnings.simplefilter("ignore", ConvergenceWarning)
matrix = make_netflix_like(n_users=150, n_items=60, random_state=0)
with RecommenderRuntime(executor="process", max_workers=2) as runtime:
    assert runtime.worker_pids()
    for seed in (0, 1):
        runtime.fit(OCuLaR(n_coclusters=6, max_iterations=2, random_state=seed), matrix)
    runtime.publish()
print("done")
"""
        source = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")])
        ))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "done"
        assert done.stderr == ""

    def test_fit_backend_override_is_borrowed_and_config_untouched(self, corpus):
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            model = _model(backend="vectorized")
            runtime.fit(model, corpus)
            assert model.backend == "vectorized"  # config not mutated
            assert model.is_fitted
            # The warm executor survived the fit (a borrower never shuts down).
            assert runtime.executor.starmap(divmod, [(7, 3)]) == [(2, 1)]

    def test_warm_fit_factors_match_vectorized(self, corpus, fitted_reference):
        reference, _engine = fitted_reference
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            warm = runtime.fit(_model(), corpus)
            assert np.array_equal(
                reference.factors_.user_factors, warm.factors_.user_factors
            )
            assert np.array_equal(
                reference.factors_.item_factors, warm.factors_.item_factors
            )

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_pool_that_served_fits_fits_identically(
        self, corpus, fitted_reference, executor
    ):
        # A pool that has already served fits (and dropped their plans)
        # computes exactly what a fresh one does, objective history included.
        reference, _engine = fitted_reference
        with RecommenderRuntime(executor=executor, max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.fit(_model(random_state=1), corpus)
            again = runtime.fit(_model(), corpus)
        assert np.array_equal(
            reference.factors_.user_factors, again.factors_.user_factors
        )
        assert np.array_equal(
            reference.factors_.item_factors, again.factors_.item_factors
        )
        assert again.history_.objective_values == reference.history_.objective_values

    def test_refit_uses_stored_matrix(self, corpus):
        with RecommenderRuntime(executor="serial") as runtime:
            with pytest.raises(NotFittedError):
                runtime.refit()
            model = runtime.fit(_model(), corpus)
            again = runtime.refit()
            assert again is model
            assert again.is_fitted

    def test_fit_supports_models_without_backend_override(self, corpus):
        from repro.baselines.popularity import PopularityRecommender

        with RecommenderRuntime(executor="serial") as runtime:
            model = runtime.fit(PopularityRecommender(), corpus)
            assert model.is_fitted

    def test_fit_backend_override_rejects_names(self, corpus):
        from repro.core.bias import BiasedOCuLaR

        # Both fit entry points enforce the borrowed-instance-only contract.
        with pytest.raises(ConfigurationError):
            _model().fit(corpus, backend="parallel")
        with pytest.raises(ConfigurationError):
            BiasedOCuLaR(n_coclusters=4, max_iterations=1).fit(corpus, backend="parallel")


# --------------------------------------------------------------------------- #
# Publication / generation swap
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="requires a /dev/shm mount")
class TestGenerationLifecycle:
    def test_publish_swap_unlinks_old_generation(self, corpus, shm_ledger):
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            first = runtime.publish()
            first_spec = runtime.published_spec
            assert first_spec is not None
            first_names = set(first_spec.segment_names())
            assert first_names <= shm_ledger.entries()

            second = runtime.update()
            assert second == first + 1
            second_spec = runtime.published_spec
            assert second_spec is not None
            assert second_spec.generation != first_spec.generation
            # The new generation copied only its factor pair: it shares the
            # seen mask of the one training matrix, and the old generation,
            # released, left its factor pair free for the next one.
            assert _seen_names(second_spec) == _seen_names(first_spec)
            assert not (_factor_names(second_spec) & first_names)
            live = set(runtime.executor.active_segment_names())
            assert live == set(second_spec.segment_names()) | _factor_names(first_spec)
            assert live <= shm_ledger.entries()
            # The next generation rewrites that free pair in place.
            runtime.update()
            assert _factor_names(runtime.published_spec) == _factor_names(first_spec)
            # Serving still works after the swap.
            assert runtime.recommend(
                RecommendRequest(users=(0, 1, 2), n_items=3)
            ).rankings

    def test_swap_defers_unlink_until_inflight_calls_drain(
        self, corpus, shm_ledger, starmap_log
    ):
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            log = starmap_log(runtime)
            old_names = set(runtime.published_spec.segment_names())
            # A holder pinned generation 1 and has not dispatched yet (the
            # race a swap must tolerate).
            session = runtime.serving_session()
            runtime.update()
            # Old generation retired, not unlinked: the holder's workers can
            # still attach by name (one user per shard forces the pool).
            assert old_names <= shm_ledger.entries()
            response = session.recommend(
                RecommendRequest(users=(0, 1, 2), n_items=3), shard_size=1
            )
            assert log.dispatch() == ("descriptors", 3)
            assert response.generation == session.generation == 1
            assert len(response.rankings) == 3
            session.release()
            # Last reference dropped: the retired generation is released now,
            # so the next generation rewrites its factor pair in place (its
            # seen mask is the current generation's as well).
            runtime.update()
            spec = runtime.published_spec
            assert set(spec.segment_names()) == old_names
            assert spec.generation != session._spec.generation
            # The new generation serves normally.
            assert runtime.recommend(
                RecommendRequest(users=(0, 1), n_items=3)
            ).rankings

    @pytest.mark.parametrize(
        "case, failing_write",
        [("new seen mask", k) for k in range(1, 6)]
        + [("new factor slot", k) for k in (1, 2)]
        + [("reused factor slot", k) for k in (1, 2)],
    )
    def test_failed_publish_leaves_no_publication(
        self, corpus, failing_store_write, shm_ledger, case, failing_write
    ):
        # A store write failing part-way (a full /dev/shm) leaves nothing
        # the failed publish wrote, and the serving generation as it was.
        request = RecommendRequest(users=range(60), n_items=5)
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            if case == "reused factor slot":
                runtime.update()  # the first generation's slot is now free
            if case == "new seen mask":
                runtime.ingest([(150, 1), (150, 2)], n_new_users=1)
                runtime.refit()
            generation, spec = runtime.generation, runtime.published_spec
            want = runtime.recommend(request, shard_size=20).rankings
            names = runtime.executor.active_segment_names
            before, created = set(names()), set(shm_ledger.names)
            failing_store_write(failing_write)
            with pytest.raises(OSError):
                runtime.update()
            failing_store_write(None)
            assert set(names()) <= before
            if case != "reused factor slot":
                assert set(names()) == before
            assert not (shm_ledger.live() - created)
            assert runtime.generation == generation
            assert runtime.published_spec is spec
            assert set(spec.segment_names()) <= set(names())
            assert runtime.recommend(request, shard_size=20).rankings == want
            assert runtime.update() == generation + 1
        shm_ledger.assert_gone()

    def test_refit_loop_keeps_worker_mappings_flat(self, corpus, starmap_log):
        # A warm pool refitting in a loop: each cycle's first sweep, swap
        # and sharded call reach the workers as new publications.  Worker
        # mappings must track the live ones, not pile up dead fits' plans.
        # A worker that ran a fit's sweep shards but drew no serving shard
        # keeps that one fit mapped until its next cache miss (there is no
        # idle eviction), so the bound is the live engine, the factor pair
        # the previous generation left free, and one fit's publications,
        # all read from the publisher.
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            log = starmap_log(runtime)
            engine_names = len(runtime.published_spec.segment_names())
            specs = [runtime.published_spec]
            fit_names = []

            def count_fit_publications(_iteration, _history):
                live = set(runtime.executor.active_segment_names())
                engines = set().union(*(spec.segment_names() for spec in specs[-2:]))
                fit_names.append(len(live - engines))

            counts = []
            for _cycle in range(5):
                runtime.refit(callback=count_fit_publications)
                runtime.update()
                specs.append(runtime.published_spec)
                log.clear()  # the refit's sweeps
                runtime.recommend(
                    RecommendRequest(users=range(60), n_items=5), shard_size=20
                )
                assert log.dispatch() == ("descriptors", 3)
                mapped = dict(runtime.executor.map(_mapped_segments, range(8)))
                assert len(mapped) == 2
                counts.append(max(mapped.values()))
        assert engine_names == 5 and len(set(fit_names)) == 1
        bound = engine_names + 2 + fit_names[0]
        assert counts[0] >= engine_names
        assert all(count <= bound for count in counts), (counts, bound)

    @pytest.mark.parametrize("executor", ["process", "cluster"])
    def test_pinned_generation_is_rewritten_only_after_release(
        self, corpus, starmap_log, executor
    ):
        # A session pins generation N while N+1 and N+2, fits with other
        # seeds, are published.  The pool serves N (one user per shard) with
        # exactly the rankings of an in-process engine on N's factors, and
        # N's factor slot goes to a new generation only after the release.
        users = tuple(range(8))
        request = RecommendRequest(users=users, n_items=5)
        with RecommenderRuntime(executor=executor, max_workers=2) as runtime:
            names = getattr(runtime.executor, "active_segment_names", None)
            names = names or runtime.executor.active_store_keys
            model = runtime.fit(_model(), corpus)
            runtime.publish()
            want = TopNEngine.from_model(model).topn(users, n_items=5)
            session = runtime.serving_session()
            pinned = _factor_names(session._spec)
            log = starmap_log(runtime)
            for seed in (1, 2):
                runtime.fit(_model(random_state=seed), corpus)
                runtime.update()
                assert not (pinned & _factor_names(runtime.published_spec))
                assert pinned <= set(names())
                log.clear()  # the fit's sweeps
                got = session.recommend(request, shard_size=1)
                assert log.dispatch() == ("descriptors", len(users))
                assert got.generation == session.generation
                assert got.rankings == want
            session.release()
            model = runtime.fit(_model(random_state=3), corpus)
            runtime.update()
            if executor == "process":
                # The slot is rewritten in place: same segments, new bytes.
                assert _factor_names(runtime.published_spec) == pinned
            else:
                # A cluster rewrite is a new object; the old one is evicted.
                assert not (pinned & set(names()))
            # The live generation, and the one free factor pair.
            assert len(names()) == 5 + 2
            log.clear()
            got = runtime.recommend(request, shard_size=1).rankings
            assert log.dispatch() == ("descriptors", len(users))
            assert got == TopNEngine.from_model(model).topn(users, n_items=5)

    @pytest.mark.parametrize("borrowed", [False, True])
    def test_ingest_refit_update_publishes_new_seen_mask_and_factor_shapes(
        self, corpus, shm_ledger, borrowed
    ):
        pool = SharedMemoryProcessExecutor(max_workers=2) if borrowed else None
        runtime = RecommenderRuntime(executor=pool) if borrowed else RecommenderRuntime(
            executor="process", max_workers=2
        )
        names = runtime.executor.active_segment_names
        runtime.fit(_model(), corpus)
        runtime.publish()
        first = runtime.published_spec
        runtime.update()  # the first generation's factor pair is now free
        old = runtime.published_spec
        session = runtime.serving_session()  # the last generation on the old matrix
        runtime.ingest([(150, 1), (150, 2), (151, 3)], n_new_users=2)
        runtime.refit()
        runtime.update()
        new = runtime.published_spec
        # A new matrix has a new seen mask, and the user factors a new shape:
        # the free pair's user segment is replaced, its item segment (same
        # shape) rewritten in place.
        assert new.seen.shape == (152, 60)
        assert not (_seen_names(new) & _seen_names(old))
        assert new.user_factors.shape[0] == 152
        assert first.user_factors.shm_name not in shm_ledger.entries()
        assert new.item_factors.shm_name == first.item_factors.shm_name
        # The old matrix's mask stays while its last generation is held...
        assert _seen_names(old) <= shm_ledger.entries()
        response = session.recommend(
            RecommendRequest(users=range(20), n_items=5), shard_size=5
        )
        assert response.generation == session.generation
        session.release()
        # ...and unlinks with it.  Its factor pair is free, and the next
        # generation replaces the old-shape user segment there too.
        assert not (_seen_names(old) & shm_ledger.entries())
        runtime.update()
        assert old.user_factors.shm_name not in shm_ledger.entries()
        live = set(runtime.published_spec.segment_names()) | _factor_names(new)
        assert set(names()) == live
        # A session that outlives the close: nothing is left once the
        # executor is shut down, or, on a borrowed one, once it lets go.
        held = runtime.serving_session()
        runtime.close()
        if borrowed:
            assert set(names()) == set(held._spec.segment_names())
        else:
            shm_ledger.assert_gone()
        held.release()
        if borrowed:
            assert names() == []
            pool.shutdown()
        shm_ledger.assert_gone()

    def test_recommend_folded_serves_published_version(self, corpus, fitted_reference):
        reference_model, engine = fitted_reference
        cold = [[1, 5, 9], [2, 3]]
        expected = recommend_folded(engine, cold, model=reference_model, n_items=6, n_sweeps=8)
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            # A refit WITHOUT update() must not leak into serving: cold-start
            # lists still come from the published version, like topn.
            runtime.refit(callback=lambda i, h: True)  # perturb self.model
            runtime.fit(_model(random_state=9), corpus)
            got = runtime.recommend(
                RecommendRequest(interactions=cold, n_items=6, n_sweeps=8)
            ).rankings
            for want, have in zip(expected, got):
                assert np.array_equal(want, have)

    def test_fold_in_places_nothing_on_the_pool(self, corpus, monkeypatch):
        # Fold-in solves on the calling thread: neither a cold-start request
        # nor the fold-in that seeds a warm refit publishes a segment; the
        # refit's only publications are its own plan, dropped when it ends.
        from repro.runtime import service

        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            names = runtime.executor.active_segment_names
            before = names()
            for row in range(5):
                runtime.recommend(
                    RecommendRequest(interactions=[[row, row + 1, row + 7]] * 3, n_items=5)
                )
            assert names() == before
            seeded = []
            extend = service.extend_factors

            def recording_extend(*args, **kwargs):
                start = names()
                extended = extend(*args, **kwargs)
                seeded.append(names() == start)
                return extended

            monkeypatch.setattr(service, "extend_factors", recording_extend)
            runtime.ingest([(150, 1), (150, 2), (151, 3), (151, 9)], n_new_users=2)
            runtime.refit(mode="warm")
            assert runtime.last_refit_mode == "warm"
            assert seeded == [True]
            assert names() == before

    def test_close_leaves_dev_shm_clean(self, corpus, shm_ledger):
        runtime = RecommenderRuntime(executor="process", max_workers=2)
        runtime.fit(_model(), corpus)
        runtime.publish()
        runtime.recommend(RecommendRequest(users=range(30), n_items=5))
        runtime.recommend(
            RecommendRequest(interactions=[[1, 2, 3]], n_items=5, n_sweeps=5)
        )
        runtime.close()
        shm_ledger.assert_gone()
        runtime.close()  # idempotent

    def test_close_with_serving_in_flight(self, corpus, shm_ledger):
        """Concurrent serving while the runtime closes: /dev/shm still ends clean."""
        runtime = RecommenderRuntime(executor="process", max_workers=2)
        runtime.fit(_model(), corpus)
        runtime.publish()
        stop = threading.Event()
        errors: list = []

        def hammer():
            while not stop.is_set():
                try:
                    runtime.recommend(
                        RecommendRequest(users=range(60), n_items=5),
                        shard_size=20,
                    )
                except Exception as exc:  # expected once the pool drains
                    errors.append(exc)
                    return

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for _ in range(3):
                runtime.recommend(
                    RecommendRequest(users=range(60), n_items=5), shard_size=20
                )
        finally:
            runtime.close()
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        shm_ledger.assert_gone()

    def test_borrowed_executor_survives_close_and_is_unpublished(self, corpus, shm_ledger):
        with SharedMemoryProcessExecutor(max_workers=2) as executor:
            runtime = RecommenderRuntime(executor=executor)
            runtime.fit(_model(), corpus)
            runtime.publish()
            assert runtime.recommend(
                RecommendRequest(users=range(20), n_items=5)
            ).rankings
            runtime.close()
            # The borrowed executor is still alive...
            assert executor.starmap(divmod, [(9, 2)]) == [(4, 1)]
            # ...but holds nothing the runtime published.
            assert executor.active_segment_names() == []
        shm_ledger.assert_gone()

    def test_borrowed_close_defers_unlink_for_inflight_calls(self, corpus, shm_ledger):
        with SharedMemoryProcessExecutor(max_workers=2) as executor:
            runtime = RecommenderRuntime(executor=executor)
            runtime.fit(_model(), corpus)
            runtime.publish()
            names = set(runtime.published_spec.segment_names())
            session = runtime.serving_session()  # a holder in flight
            runtime.close()
            # close() must honor the holder's reference: the generation
            # stays linked, and on the executor's books, until it lets go.
            assert names <= shm_ledger.entries()
            assert names <= set(executor.active_segment_names())
            session.release()
            assert not (names & shm_ledger.entries())
            assert executor.active_segment_names() == []

    def test_session_call_reference_survives_racing_release(
        self, corpus, shm_ledger, starmap_log
    ):
        # Two holders of one generation (a shared session's call takes its
        # own reference the same way): releasing one, or swapping the model
        # version, can never pull the segments out from under the other.
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            log = starmap_log(runtime)
            names = set(runtime.published_spec.segment_names())
            session = runtime.serving_session()
            in_flight = runtime.serving_session()
            session.release()
            session.release()  # double release: atomic, no double-decrement
            runtime.update()
            assert names <= shm_ledger.entries()  # still attachable
            response = in_flight.recommend(
                RecommendRequest(users=(0, 1), n_items=3), shard_size=1
            )
            assert log.dispatch() == ("descriptors", 2)
            assert len(response.rankings) == 2
            in_flight.release()  # the last reference
            # Released: the next generation rewrites its factor pair in place.
            runtime.update()
            assert set(runtime.published_spec.segment_names()) == names
            # A released session refuses new calls.
            for released in (session, in_flight):
                with pytest.raises(ConfigurationError):
                    released.recommend(RecommendRequest(users=(0,)))

    def test_shared_session_calls_race_release_and_swap(
        self, corpus, fitted_reference, shm_ledger
    ):
        # More threads than cores call through one shared session while it
        # is released and the model version swapped under them.  Every call
        # either answers from the pinned generation — its workers attach the
        # retired segments by name — or is refused with the typed error, and
        # the segments are gone once the last call has drained.
        _model_ref, engine = fitted_reference
        want = engine.topn([0, 1, 2], n_items=3)
        request = RecommendRequest(users=(0, 1, 2), n_items=3)
        served: list = []
        failures: list = []

        def client(session) -> None:
            try:
                while True:
                    response = session.recommend(request, shard_size=1)
                    served.append((response.generation, response.rankings == want))
            except ConfigurationError:
                return  # released: the one refusal a client may see
            except Exception as exc:  # pragma: no cover - failure mode
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RecommenderRuntime(executor="process", max_workers=2) as runtime:
                runtime.fit(_model(), corpus)
                runtime.publish()
                names = set(runtime.published_spec.segment_names())
                session = runtime.serving_session()
                threads = [
                    threading.Thread(target=client, args=(session,)) for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                runtime.fit(_model(random_state=9), corpus)
                runtime.update()
                session.release()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert failures == []
                assert served and all(entry == (1, True) for entry in served)
                # Released once the last call drained: the next generation
                # rewrites its factor pair in place.
                runtime.update()
                assert set(runtime.published_spec.segment_names()) == names
        finally:
            sys.setswitchinterval(interval)

    def test_publish_requires_fitted_model(self, corpus):
        with RecommenderRuntime(executor="serial") as runtime:
            with pytest.raises(NotFittedError):
                runtime.publish()
            with pytest.raises(NotFittedError):
                runtime.recommend(RecommendRequest(users=(0,)))

    def test_invalid_arguments_rejected_before_pool_spawn(self):
        # Validation precedes executor construction, so a bad argument
        # cannot leak a spawned worker pool with no handle to close it.
        before = set(multiprocessing.active_children())
        with pytest.raises(ConfigurationError):
            RecommenderRuntime(executor="process", max_workers=0)
        with pytest.raises(ConfigurationError):
            RecommenderRuntime(executor="spark")
        assert set(multiprocessing.active_children()) <= before

    @pytest.mark.parametrize("max_workers", [1, 3])
    def test_shards_follow_the_pool_size(self, max_workers):
        # One training shard per pool worker: the shard count is derived,
        # not set.
        with RecommenderRuntime(executor="thread", max_workers=max_workers) as runtime:
            assert runtime.backend.n_shards == max_workers

    def test_published_engine_uses_the_engine_defaults(self, corpus):
        # The runtime publishes at TopNEngine's own chunk size, and scores in
        # the model's precision.
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(dtype="float32"), corpus)
            runtime.publish()
            default = TopNEngine.from_model(runtime.model)
            assert runtime.engine.chunk_size == default.chunk_size
            assert runtime.engine.serving_dtype == default.serving_dtype == np.float32

    def test_closed_runtime_rejects_use(self, corpus):
        runtime = RecommenderRuntime(executor="serial")
        runtime.close()
        with pytest.raises(ConfigurationError):
            runtime.fit(_model(), corpus)
        with pytest.raises(ConfigurationError):
            runtime.recommend(RecommendRequest(users=(0,)))

    def test_user_index_beyond_64_bits_is_a_typed_error(self, corpus):
        # The request's users become one int64 array; an id that cannot be
        # one is the caller's error, never an OverflowError from numpy.
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            for user in (2**70, -(2**70)):
                with pytest.raises(ConfigurationError):
                    runtime.recommend(RecommendRequest(users=(0, user), n_items=3))
            assert runtime.recommend(RecommendRequest(users=(), n_items=3)).rankings == []


# --------------------------------------------------------------------------- #
# Ranking equality: process shards vs the single-process engine
# --------------------------------------------------------------------------- #
class TestServingParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_topn_equals_single_process_engine(
        self, corpus, fitted_reference, n_shards, starmap_log
    ):
        model, engine = fitted_reference
        users = list(range(corpus.n_users))
        reference = engine.topn(users, n_items=7)
        shard_size = -(-len(users) // n_shards)
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            log = starmap_log(runtime)
            result = runtime.recommend(
                RecommendRequest(users=users, n_items=7), shard_size=shard_size
            )
            # One shard is served in process; only a real fan-out uses the pool.
            assert log.dispatch() == (
                ("caller", 1) if n_shards == 1 else ("descriptors", n_shards)
            )
            assert len(result.rankings) == len(users)
            for expected, got in zip(reference, result.rankings):
                assert np.array_equal(expected, got)

    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_recommend_folded_equals_single_process(
        self, corpus, fitted_reference, n_shards, starmap_log
    ):
        model, engine = fitted_reference
        cold = [[1, 5, 9], [2, 3], [0, 10, 20, 30], [], [7]]
        reference = recommend_folded(engine, cold, model=model, n_items=6, n_sweeps=8)
        shard_size = -(-len(cold) // n_shards)
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            log = starmap_log(runtime)
            got = runtime.recommend(
                RecommendRequest(interactions=cold, n_items=6, n_sweeps=8),
                shard_size=shard_size,
            ).rankings
            # Cold-start rows are ranked where they were scored, whatever
            # shard_size says: it cuts known users only.
            assert log.dispatch() == ("caller", 1)
            assert len(got) == len(cold)
            for expected, lists in zip(reference, got):
                assert np.array_equal(expected, lists)

    def test_tasks_carry_descriptors_not_factors(
        self, corpus, fitted_reference, starmap_log
    ):
        _model_ref, engine = fitted_reference
        pickled_engine_bytes = len(pickle.dumps(engine))
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            log = starmap_log(runtime)
            runtime.recommend(
                RecommendRequest(users=range(corpus.n_users), n_items=5),
                shard_size=50,
            )
            (tasks,) = log.calls
            assert log.dispatch() == ("descriptors", 3)
            # The model-dependent payload is a handful of segment names —
            # far below the factor matrices a pickled engine would ship.
            spec_bytes = len(pickle.dumps(tasks[0][0]))
            assert spec_bytes < 2048
            assert spec_bytes < engine.factors.user_factors.nbytes
            max_task_bytes = max(len(pickle.dumps(task)) for task in tasks)
            assert max_task_bytes < pickled_engine_bytes
            factor_bytes = (
                engine.factors.user_factors.nbytes + engine.factors.item_factors.nbytes
            )
            assert max_task_bytes < factor_bytes

    def test_thread_runtime_serves_locally(self, corpus, fitted_reference, starmap_log):
        _model_ref, engine = fitted_reference
        users = list(range(40))
        reference = engine.topn(users, n_items=5)
        with RecommenderRuntime(executor="thread", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            log = starmap_log(runtime)
            result = runtime.recommend(
                RecommendRequest(users=users, n_items=5), shard_size=16
            )
            # A thread pool shares the process: its tasks carry the engine.
            assert log.dispatch() == ("engine", 3)
            for expected, got in zip(reference, result.rankings):
                assert np.array_equal(expected, got)
            folded = runtime.recommend(
                RecommendRequest(interactions=[[1, 2]], n_items=5, n_sweeps=5)
            )
            assert len(folded.rankings) == 1

    def test_concurrent_folds_match_serial_results(self, corpus, fitted_reference):
        # Concurrent cold-start calls share the runtime's warm backend; the
        # backend's sweep lock must keep their shared-memory factor slots
        # from clobbering each other (same-shape batches collide on slot
        # keys without it).
        reference_model, engine = fitted_reference
        batches = [[[1 + i, 5 + i, 9 + i], [2 + i, 3 + i]] for i in range(6)]
        expected = [
            recommend_folded(engine, batch, model=reference_model, n_items=6, n_sweeps=8)
            for batch in batches
        ]
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            results: dict = {}
            errors: list = []

            def fold(index: int) -> None:
                try:
                    results[index] = runtime.recommend(
                        RecommendRequest(
                            interactions=batches[index], n_items=6, n_sweeps=8
                        ),
                        shard_size=1,
                    ).rankings
                except Exception as exc:  # pragma: no cover - failure mode
                    errors.append(exc)

            threads = [
                threading.Thread(target=fold, args=(index,))
                for index in range(len(batches))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            for index, want in enumerate(expected):
                assert len(results[index]) == len(want)
                for expected_row, got_row in zip(want, results[index]):
                    assert np.array_equal(expected_row, got_row), index

    def test_float32_model_serves_through_descriptors(self, corpus, starmap_log):
        model32 = _model(dtype="float32").fit(corpus)
        engine32 = TopNEngine.from_model(model32)
        reference = engine32.topn(range(60), n_items=5)
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(dtype="float32"), corpus)
            runtime.publish()
            log = starmap_log(runtime)
            result = runtime.recommend(
                RecommendRequest(users=range(60), n_items=5), shard_size=20
            )
            assert log.dispatch() == ("descriptors", 3)
            for expected, got in zip(reference, result.rankings):
                assert np.array_equal(expected, got)


# --------------------------------------------------------------------------- #
# The dispatch rule: one shard runs on the caller's thread, two or more fan out
# --------------------------------------------------------------------------- #
def _rows_equal(got, want) -> bool:
    return len(got) == len(want) and all(
        np.array_equal(a, b) for a, b in zip(got, want)
    )


class TestOneShardDispatch:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_one_shard_equals_forced_shards_equals_engine(
        self, corpus, fitted_reference, executor, starmap_log
    ):
        model, engine = fitted_reference
        fanned_path = "descriptors" if executor == "process" else "engine"
        users = list(range(40))
        cold = [[1, 5, 9], [2, 3], [0, 10, 20, 30], [], [7]]
        with RecommenderRuntime(executor=executor, max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            log = starmap_log(runtime)

            def serve(request, shard_size, path, n_shards):
                calls = runtime.serving_calls
                response = runtime.recommend(request, shard_size=shard_size)
                assert log.dispatch() == (path, n_shards)
                assert runtime.serving_calls == calls + 1
                return response

            for with_scores in (False, True):
                request = RecommendRequest(
                    users=users, n_items=5, with_scores=with_scores
                )
                one = serve(request, None, "caller", 1)
                fanned = serve(request, 16, fanned_path, 3)
                want_rankings = engine.topn(users, n_items=5, with_scores=with_scores)
                want_scores = want_rankings.score_rows() if with_scores else None
                for response in (one, fanned):
                    assert _rows_equal(response.rankings, want_rankings)
                    if with_scores:
                        assert _rows_equal(response.scores, want_scores)
                    else:
                        assert response.scores is None

            request = RecommendRequest(interactions=cold, n_items=6, n_sweeps=8)
            want = recommend_folded(engine, cold, model=model, n_items=6, n_sweeps=8)
            # Cold-start rows rank in process on every executor, at any
            # shard_size.
            for shard_size in (None, 2):
                response = serve(request, shard_size, "caller", 1)
                assert _rows_equal(response.rankings, want)

            # A mixed request: two published users, two ingested after publish.
            first = corpus.n_users
            fresh_rows = [[3, 4, 11], [8]]
            runtime.ingest(
                [(first + i, item) for i, row in enumerate(fresh_rows) for item in row],
                n_new_users=2,
            )
            request = RecommendRequest(users=[first + 1, 0, first, 5], n_items=4)
            known = engine.topn([0, 5], n_items=4)
            folded = recommend_folded(engine, fresh_rows, model=model, n_items=4)
            want = [folded[1], known[0], folded[0], known[1]]
            for shard_size in (None, 1):
                response = runtime.recommend(request, shard_size=shard_size)
                assert _rows_equal(response.rankings, want)
                assert response.generation == runtime.generation
            # The merged result is one flat block, scores included, in
            # request order — also when no known user is left in it.
            known_scores = runtime.recommend(
                RecommendRequest(users=[0, 5], n_items=4, with_scores=True)
            ).scores
            cold_scores = runtime.recommend(
                RecommendRequest(interactions=fresh_rows, n_items=4, with_scores=True)
            ).scores
            scored = runtime.recommend(
                RecommendRequest(users=request.users, n_items=4, with_scores=True)
            )
            assert _rows_equal(scored.rankings, want)
            assert _rows_equal(
                scored.scores,
                [cold_scores[1], known_scores[0], cold_scores[0], known_scores[1]],
            )
            only_fresh = runtime.recommend(
                RecommendRequest(users=[first + 1, first], n_items=4, with_scores=True)
            )
            assert _rows_equal(only_fresh.rankings, [folded[1], folded[0]])
            assert _rows_equal(only_fresh.scores, [cold_scores[1], cold_scores[0]])

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="requires a /dev/shm mount")
    def test_session_pins_old_generation_for_one_shard_calls(
        self, corpus, fitted_reference, shm_ledger, starmap_log
    ):
        _model_ref, engine = fitted_reference
        request = RecommendRequest(users=(3, 1, 4), n_items=5)
        cold = RecommendRequest(interactions=[[1, 5, 9]], n_items=5, n_sweeps=4)
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            old_generation = runtime.publish()
            old_names = set(runtime.published_spec.segment_names())
            old_cold = runtime.recommend(cold).rankings
            session = runtime.serving_session()
            runtime.fit(_model(random_state=9), corpus)
            runtime.update()
            new = runtime.recommend(request)
            assert new.generation == old_generation + 1
            # The session's one-shard calls run in process — on the engine of
            # the generation it pinned, not the one now published.
            log = starmap_log(runtime)
            pinned = session.recommend(request)
            assert log.dispatch() == ("caller", 1)
            assert pinned.generation == old_generation
            assert _rows_equal(pinned.rankings, engine.topn([3, 1, 4], n_items=5))
            assert not _rows_equal(pinned.rankings, new.rankings)
            assert _rows_equal(session.recommend(cold).rankings, old_cold)
            # In-process serving never attached the retired segments, but the
            # session's reference still keeps them linked until it releases.
            assert old_names <= shm_ledger.entries()
            assert not (_factor_names(runtime.published_spec) & old_names)
            session.release()
            # Released: the next generation rewrites its factor pair in place.
            runtime.update()
            assert set(runtime.published_spec.segment_names()) == old_names
        shm_ledger.assert_gone()

    def test_concurrent_one_user_requests_match_reference(
        self, corpus, fitted_reference, starmap_log
    ):
        _model_ref, engine = fitted_reference
        reference = engine.topn(range(corpus.n_users), n_items=5)
        with RecommenderRuntime(executor="process", max_workers=2) as runtime:
            runtime.fit(_model(), corpus)
            runtime.publish()
            log = starmap_log(runtime)
            mismatches: list = []

            def client(offset: int) -> None:
                try:
                    for step in range(200):
                        user = (offset * 37 + step * 7) % corpus.n_users
                        got = runtime.recommend(
                            RecommendRequest(users=(user,), n_items=5)
                        ).rankings
                        if not _rows_equal(got, [reference[user]]):
                            mismatches.append(user)
                except Exception as exc:  # pragma: no cover - failure mode
                    mismatches.append(exc)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert mismatches == []
            assert runtime.serving_calls == 16 * 200
            assert log.calls == []  # every one-user call ran on its own thread


# --------------------------------------------------------------------------- #
# serve_sharded's descriptor path (the per-call flavour of the same machinery)
# --------------------------------------------------------------------------- #
class TestServeShardedDescriptorPath:
    def test_process_serving_matches_serial(self, fitted_reference):
        _model_ref, engine = fitted_reference
        users = list(range(engine.train_matrix.n_users))
        serial = serve_sharded(engine, users, n_items=5, shard_size=40)
        process = serve_sharded(
            engine, users, n_items=5, shard_size=40, executor="process"
        )
        assert serial.n_shards == process.n_shards
        for expected, got in zip(serial.rankings, process.rankings):
            assert np.array_equal(expected, got)

    def test_borrowed_shm_executor_left_clean(self, fitted_reference):
        _model_ref, engine = fitted_reference
        with SharedMemoryProcessExecutor(max_workers=2) as executor:
            result = serve_sharded(
                engine, range(50), n_items=5, shard_size=25, executor=executor
            )
            assert len(result.rankings) == 50
            # The call unpublishes what it published on the borrowed executor.
            assert executor.active_segment_names() == []

    def test_one_shard_call_runs_here_and_publishes_nothing(
        self, fitted_reference, shm_ledger
    ):
        _model_ref, engine = fitted_reference
        users = list(range(50))
        result = serve_sharded(engine, users, n_items=5, executor="process")
        assert result.n_shards == 1
        # No fan-out without a fan: no engine segment was ever created.
        assert shm_ledger.names == set()
        assert result.rankings == engine.topn(users, n_items=5)
        # The same users cut in two are published for the call, then retired.
        fanned = serve_sharded(
            engine, users, n_items=5, executor="process", shard_size=25
        )
        assert fanned.rankings == result.rankings
        shm_ledger.assert_gone()

    def test_accepts_an_index_array(self, fitted_reference):
        _model_ref, engine = fitted_reference
        users = [9, 1, 44, 1]  # unsorted, with a duplicate
        result = serve_sharded(engine, np.array(users), n_items=5, shard_size=3)
        assert result.users == users
        assert result.n_shards == 2
        assert result.rankings == engine.topn(users, n_items=5)
        assert set(result.as_dict()) == {1, 9, 44}
