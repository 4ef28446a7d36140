"""Incremental refit: drifting-corpus construction, the warm-vs-cold protocol
and the runtime's ingest → fold-in-now → warm-refit lifecycle."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api import RecommendRequest
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_drifting_corpus
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.runtime import IngestStats, RecommenderRuntime, service
from repro.runtime.service import DEFAULT_WARM_PLATEAU_TOLERANCE
from repro.serving import recommend_folded
from repro.serving.fold_in import extend_factors


@pytest.fixture(scope="module")
def corpus():
    return make_drifting_corpus(n_users=150, n_items=60, random_state=0)


def _model(**overrides):
    settings = dict(
        n_coclusters=4,
        regularization=5.0,
        max_iterations=4,
        tolerance=0.0,
        random_state=0,
    )
    settings.update(overrides)
    return OCuLaR(**settings)


def _ingest_from_threads(runtime, base, n_threads=8, n_rounds=20, **new_rows):
    """``n_threads`` clients each ingest ``n_rounds`` one-pair deltas at once.

    Every pair is absent from ``base``, so each ingest adds one positive.  A
    tiny switch interval makes racing interleavings near-certain.  Returns
    the stats of every ingest.
    """
    absent = np.argwhere(base.csr().toarray() == 0)[: n_threads * n_rounds]
    stats: list = []
    errors: list = []

    def client(thread: int) -> None:
        try:
            for index in range(thread * n_rounds, (thread + 1) * n_rounds):
                stats.append(runtime.ingest([tuple(absent[index])], **new_rows))
        except Exception as exc:  # pragma: no cover - failure mode
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(stats) == n_threads * n_rounds
    return stats


# --------------------------------------------------------------------------- #
# Drifting-corpus construction
# --------------------------------------------------------------------------- #
class TestMakeDriftingCorpus:
    def test_shapes_and_rewind(self, corpus):
        grown = corpus.split.train
        assert corpus.base.n_users + corpus.n_new_users == grown.n_users
        assert corpus.base.n_items + corpus.n_new_items == grown.n_items
        assert corpus.n_new_users > 0 and corpus.n_new_items > 0
        # The delta replays exactly onto the base: same matrix the split
        # evaluates against.
        reconstructed = corpus.base.extended_with(
            corpus.delta_pairs,
            n_new_users=corpus.n_new_users,
            n_new_items=corpus.n_new_items,
        )
        assert reconstructed == grown

    def test_drift_is_delta_over_base(self, corpus):
        assert corpus.drift == pytest.approx(
            len(corpus.delta_pairs) / corpus.base.nnz
        )
        assert 0.0 < corpus.drift < 1.0

    def test_deterministic_in_seed(self):
        a = make_drifting_corpus(n_users=80, n_items=40, random_state=7)
        b = make_drifting_corpus(n_users=80, n_items=40, random_state=7)
        assert a.base == b.base
        assert a.delta_pairs == b.delta_pairs

    def test_base_shape_must_fit_within_grown(self):
        with pytest.raises(DataError, match="within the grown shape"):
            make_drifting_corpus(n_users=80, n_items=40, n_base_users=81)

    def test_late_fraction_validated(self):
        with pytest.raises(DataError, match="late_fraction"):
            make_drifting_corpus(n_users=80, n_items=40, late_fraction=1.0)


# --------------------------------------------------------------------------- #
# The warm-vs-cold protocol, through the library
# --------------------------------------------------------------------------- #
class TestIncrementalStudy:
    def test_warm_refit_starts_closer_and_stops_sooner(self, corpus):
        base = _model(max_iterations=30).fit(corpus.base)
        grown = corpus.split.train
        warm = _model(max_iterations=30).fit(
            grown, initial_factors=extend_factors(base, grown), plateau_tolerance=1e-3
        )
        cold = _model(max_iterations=30).fit(grown)
        assert warm.history_.warm_started and not cold.history_.warm_started
        assert warm.history_.log_likelihoods[0] < cold.history_.log_likelihoods[0]
        assert warm.history_.n_iterations < cold.history_.n_iterations


# --------------------------------------------------------------------------- #
# Runtime lifecycle: ingest, drift, refit modes, mixed serving
# --------------------------------------------------------------------------- #
class TestRuntimeIngest:
    def test_ingest_stats_and_drift(self, corpus):
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), corpus.base)
            assert runtime.drift == 0.0
            stats = runtime.ingest(
                corpus.delta_pairs,
                n_new_users=corpus.n_new_users,
                n_new_items=corpus.n_new_items,
            )
            assert isinstance(stats, IngestStats)
            assert stats.n_pairs == len(corpus.delta_pairs)
            assert stats.n_new_users == corpus.n_new_users
            assert stats.n_new_items == corpus.n_new_items
            grown = corpus.split.train
            assert (stats.n_users, stats.n_items) == (grown.n_users, grown.n_items)
            assert stats.nnz == grown.nnz
            assert stats.drift == runtime.drift > 0.0
            assert runtime.train_matrix == grown

    def test_ingest_accumulates_across_deltas(self, corpus):
        half = len(corpus.delta_pairs) // 2
        old_shape_pairs = [
            (u, i)
            for u, i in corpus.delta_pairs
            if u < corpus.base.n_users and i < corpus.base.n_items
        ]
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), corpus.base)
            first = runtime.ingest(old_shape_pairs[:half])
            second = runtime.ingest(old_shape_pairs[half:])
            assert second.drift >= first.drift
            assert runtime.drift == second.drift

    @pytest.mark.parametrize("grows", ["users", "items", "nothing"])
    def test_concurrent_ingests_keep_every_delta(self, corpus, grows):
        # Each ingest reads, extends and replaces the stored corpus; two
        # ingests that extend the same old matrix lose whichever delta is
        # replaced first.
        base = corpus.base
        new_rows = {"users": dict(n_new_users=1), "items": dict(n_new_items=1)}
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), base)
            stats = _ingest_from_threads(runtime, base, **new_rows.get(grows, {}))
            grown = runtime.train_matrix
        n_ingests = len(stats)
        assert grown.nnz == base.nnz + n_ingests
        assert grown.n_users == base.n_users + (n_ingests if grows == "users" else 0)
        assert grown.n_items == base.n_items + (n_ingests if grows == "items" else 0)

    def test_concurrent_ingest_stats_form_one_serial_history(self, corpus):
        # Every returned IngestStats describes the corpus its own ingest left
        # behind: one step each of a single serial history, none repeated.
        base = corpus.base
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), base)
            stats = _ingest_from_threads(runtime, base, n_new_users=1)
        steps = sorted(s.nnz - base.nnz for s in stats)
        assert steps == list(range(1, len(stats) + 1))
        assert all(s.n_users - base.n_users == s.nnz - base.nnz for s in stats)
        assert all(s.n_items == base.n_items for s in stats)
        assert all(s.drift == (s.nnz - base.nnz) / base.nnz for s in stats)

    def test_ingest_drift_describes_its_own_corpus(self, corpus):
        # A second ingest lands the moment the first releases the lock: the
        # first result must still report the drift of the corpus it left.
        base = corpus.base
        absent = [tuple(pair) for pair in np.argwhere(base.csr().toarray() == 0)[:2]]
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), base)
            lock = runtime._swap_lock
            later: list = []

            class IngestOnRelease:
                def __enter__(self):
                    return lock.__enter__()

                def __exit__(self, *exc_info):
                    lock.__exit__(*exc_info)
                    if not later:
                        later.append(None)
                        later[0] = runtime.ingest([absent[1]])

            runtime._swap_lock = IngestOnRelease()
            first = runtime.ingest([absent[0]])
        (second,) = later
        assert (first.nnz, second.nnz) == (base.nnz + 1, base.nnz + 2)
        assert first.drift == 1 / base.nnz
        assert second.drift == 2 / base.nnz

    def test_ingest_takes_the_pair_id_rule(self, corpus):
        # A fractional id is refused, not truncated to a neighbour's row.
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), corpus.base)
            with pytest.raises(DataError, match="integers"):
                runtime.ingest([(0, 1.5)])
            assert runtime.train_matrix == corpus.base
            assert runtime.ingest([(0.0, "1")]).n_pairs == 1
            assert runtime.train_matrix.contains(0, 1)

    def test_ingest_requires_fit(self):
        with RecommenderRuntime(executor="serial") as runtime:
            with pytest.raises(NotFittedError, match="ingest"):
                runtime.ingest([(0, 0)])


class TestRuntimeRefit:
    def test_warm_refit_seeds_and_plateaus(self, corpus):
        with RecommenderRuntime(executor="serial") as runtime:
            model = _model(max_iterations=8)
            runtime.fit(model, corpus.base)
            runtime.ingest(
                corpus.delta_pairs,
                n_new_users=corpus.n_new_users,
                n_new_items=corpus.n_new_items,
            )
            runtime.refit(mode="warm")
            assert runtime.last_refit_mode == "warm"
            assert model.history_.warm_started
            assert model.history_.plateau_tolerance == DEFAULT_WARM_PLATEAU_TOLERANCE
            # The warm refit trains on the grown corpus.
            assert model.factors_.n_users == corpus.split.train.n_users
            assert model.factors_.n_items == corpus.split.train.n_items
            # Warm refits do not reset the drift baseline.
            assert runtime.drift > 0.0

    def test_cold_refit_resets_drift_and_random_inits(self, corpus):
        with RecommenderRuntime(executor="serial") as runtime:
            model = _model()
            runtime.fit(model, corpus.base)
            runtime.ingest(
                corpus.delta_pairs,
                n_new_users=corpus.n_new_users,
                n_new_items=corpus.n_new_items,
            )
            runtime.refit(mode="cold")
            assert runtime.last_refit_mode == "cold"
            assert not model.history_.warm_started
            assert model.history_.plateau_tolerance is None
            assert runtime.drift == 0.0

    def test_auto_resolves_warm_below_threshold(self, corpus):
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), corpus.base)
            runtime.ingest(
                corpus.delta_pairs,
                n_new_users=corpus.n_new_users,
                n_new_items=corpus.n_new_items,
            )
            assert runtime.drift <= service.DRIFT_THRESHOLD
            runtime.refit(mode="auto")
            assert runtime.last_refit_mode == "warm"

    def test_auto_resolves_cold_above_threshold(self, corpus, monkeypatch):
        monkeypatch.setattr(service, "DRIFT_THRESHOLD", 0.0)
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), corpus.base)
            runtime.ingest(
                corpus.delta_pairs,
                n_new_users=corpus.n_new_users,
                n_new_items=corpus.n_new_items,
            )
            assert runtime.drift > service.DRIFT_THRESHOLD
            runtime.refit(mode="auto")
            assert runtime.last_refit_mode == "cold"

    @pytest.mark.parametrize("mode", ["warm", "cold"])
    def test_delta_ingested_during_refit_is_kept(self, corpus, mode):
        # A refit of the stored corpus trains on the corpus it read when it
        # started; a delta acknowledged while it runs must outlive the fit.
        base = corpus.base
        new_user = base.n_users
        acks: list = []

        def ingest_once(_iteration, _history):
            if not acks:
                acks.append(runtime.ingest([(new_user, 0)], n_new_users=1))

        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), base)
            runtime.refit(callback=ingest_once, mode=mode)
            runtime.update()
            (ack,) = acks
            assert runtime.train_matrix.nnz == ack.nnz == base.nnz + 1
            assert runtime.train_matrix.n_users == ack.n_users == base.n_users + 1
            assert runtime.drift > 0.0
            # The refit's generation does not know the user: fold-in serves it.
            response = runtime.recommend(RecommendRequest(users=[new_user], n_items=5))
            want = recommend_folded(runtime.engine, [[0]], model=runtime.model, n_items=5)
            assert response.rankings == want

    def test_refit_mode_validated(self, corpus):
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), corpus.base)
            with pytest.raises(ConfigurationError, match="mode"):
                runtime.refit(mode="tepid")

    def test_refit_requires_previous_fit(self):
        with RecommenderRuntime(executor="serial") as runtime:
            with pytest.raises(NotFittedError, match="refit"):
                runtime.refit()


class TestMixedServing:
    def test_fresh_users_served_at_pinned_generation(self, corpus):
        grown = corpus.split.train
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), corpus.base)
            base_generation = runtime.publish()
            runtime.ingest(
                corpus.delta_pairs,
                n_new_users=corpus.n_new_users,
                n_new_items=corpus.n_new_items,
            )
            fresh = grown.n_users - 1
            known = 0
            response = runtime.recommend(
                RecommendRequest(users=[known, fresh], n_items=5)
            )
            # Both users answered from the published (pre-ingest) generation:
            # the known user directly, the fresh one via fold-in of their
            # ingested interactions against the pinned factors.
            assert response.generation == base_generation
            assert len(response.rankings) == 2
            for ranking in response.rankings:
                assert len(ranking) == 5
            # The known user's ranking matches a pure known-users request.
            alone = runtime.recommend(RecommendRequest(users=[known], n_items=5))
            assert np.array_equal(response.rankings[0], alone.rankings[0])

    def test_update_after_warm_refit_promotes_new_users(self, corpus):
        grown = corpus.split.train
        with RecommenderRuntime(executor="serial") as runtime:
            runtime.fit(_model(), corpus.base)
            base_generation = runtime.publish()
            runtime.ingest(
                corpus.delta_pairs,
                n_new_users=corpus.n_new_users,
                n_new_items=corpus.n_new_items,
            )
            runtime.refit(mode="warm")
            new_generation = runtime.update()
            assert new_generation > base_generation
            response = runtime.recommend(
                RecommendRequest(users=[grown.n_users - 1], n_items=5)
            )
            assert response.generation == new_generation
            # New items are rankable once the refit generation is live.
            all_items = np.concatenate(
                runtime.recommend(
                    RecommendRequest(
                        users=list(range(grown.n_users)), n_items=grown.n_items
                    ),
                    # full-catalogue rankings include the appended items
                ).rankings
            )
            assert all_items.max() == grown.n_items - 1
