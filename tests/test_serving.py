"""Tests for the batch serving engine, fold-in cold-start and sharded serving."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.baselines.popularity import PopularityRecommender
from repro.core.bias import BiasedOCuLaR
from repro.core.ocular import OCuLaR
from repro.exceptions import DataError
from repro.core.explain import batch_reports
from repro.exceptions import ConfigurationError, NotFittedError
from repro.parallel import SerialExecutor, SharedMemoryProcessExecutor, ThreadExecutor
import scipy.sparse as sp

from repro.data.interactions import InteractionMatrix
from repro.serving import (
    TopNEngine,
    clear_fold_in_plan_cache,
    extend_factors,
    fold_in_factors,
    fold_in_users,
    recommend_folded,
    serve_sharded,
)
from repro.serving import fold_in


# --------------------------------------------------------------------------- #
# Chunked top-N parity with the per-user reference path
# --------------------------------------------------------------------------- #
class TestTopNEngineParity:
    @pytest.mark.parametrize("n_items", [1, 5, 50])
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 4096])
    def test_identical_to_per_user_recommend(
        self, fitted_movielens_model, n_items, chunk_size
    ):
        model = fitted_movielens_model
        engine = TopNEngine.from_model(model, chunk_size=chunk_size)
        users = list(range(model.train_matrix.n_users))
        batch = engine.topn(users, n_items=n_items, exclude_seen=True)
        assert len(batch) == len(users)
        for user, ranked in zip(users, batch):
            reference = model.recommend(user, n_items=n_items, exclude_seen=True)
            np.testing.assert_array_equal(ranked, reference)

    def test_seen_items_are_excluded(self, fitted_movielens_model):
        model = fitted_movielens_model
        engine = TopNEngine.from_model(model)
        users = list(range(model.train_matrix.n_users))
        for user, ranked in zip(users, engine.topn(users, n_items=50)):
            seen = set(model.train_matrix.items_of_user(user).tolist())
            assert not seen.intersection(ranked.tolist())

    def test_include_seen_parity(self, fitted_movielens_model):
        model = fitted_movielens_model
        engine = TopNEngine.from_model(model)
        users = [0, 3, 11]
        batch = engine.topn(users, n_items=10, exclude_seen=False)
        for user, ranked in zip(users, batch):
            reference = model.recommend(user, n_items=10, exclude_seen=False)
            np.testing.assert_array_equal(ranked, reference)

    def test_generic_model_path(self, movielens_small):
        _, split = movielens_small
        model = PopularityRecommender().fit(split.train)
        engine = TopNEngine.from_model(model)
        assert engine.factors is None  # no FactorModel -> score_users path
        users = list(range(0, split.train.n_users, 3))
        batch = engine.topn(users, n_items=20)
        for user, ranked in zip(users, batch):
            reference = model.recommend(user, n_items=20, exclude_seen=True)
            np.testing.assert_array_equal(ranked, reference)

    def test_biased_model_keeps_its_bias_terms(self, movielens_small):
        # BiasedOCuLaR scores through bias-augmented factors; the engine must
        # route through serving_factors_ (not the stripped factors_), so
        # engine rankings still equal per-user recommend for every user.
        _, split = movielens_small
        model = BiasedOCuLaR(
            n_coclusters=8, regularization=4.0, max_iterations=30, random_state=0
        ).fit(split.train)
        engine = TopNEngine.from_model(model)
        assert engine.factors is model.serving_factors_
        users = list(range(split.train.n_users))
        for user, ranked in zip(users, engine.topn(users, n_items=10)):
            np.testing.assert_array_equal(ranked, model.recommend(user, n_items=10))
        # And the vectorised score_users path agrees with score_user too
        # (it was bias-free before the serving_factors_ refactor).
        np.testing.assert_allclose(model.score_users([3])[0], model.score_user(3))

    def test_short_lists_for_heavy_users(self, fitted_toy_model):
        # Toy users have seen most of the 12 items; asking for more than the
        # number of unknowns must return a short list, never padded.
        engine = TopNEngine.from_model(fitted_toy_model)
        matrix = fitted_toy_model.train_matrix
        for user, ranked in enumerate(engine.topn(range(matrix.n_users), n_items=12)):
            n_unknown = matrix.n_items - len(matrix.items_of_user(user))
            assert len(ranked) == min(12, n_unknown)

    def test_empty_user_list(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        assert engine.topn([], n_items=5) == []

    def test_out_of_range_user_rejected(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        with pytest.raises(ConfigurationError):
            engine.topn([10_000], n_items=5)

    def test_unfitted_model_rejected(self):
        with pytest.raises(NotFittedError):
            TopNEngine.from_model(OCuLaR())


@pytest.mark.parametrize("reader", ["topn", "serve_sharded", "batch_reports"])
def test_known_user_readers_refuse_fractional_ids(fitted_movielens_model, reader):
    # Every reader of known-user ids keeps the one integer rule: 1.5 is not
    # user 1.  Whole numbers in any numeric form, and an integer index
    # array, still read.
    model = fitted_movielens_model
    engine = TopNEngine.from_model(model)
    read = {
        "topn": lambda users: engine.topn(users, n_items=3),
        "serve_sharded": lambda users: serve_sharded(engine, users, n_items=3).rankings,
        "batch_reports": lambda users: [
            [card.item for card in report.explanations]
            for report in batch_reports(model, users, n_items=3)
        ],
    }[reader]
    for fractional in ([1.5], [0, 2.9], np.array([1.7])):
        with pytest.raises(ConfigurationError):
            read(fractional)
    want = [list(row) for row in engine.topn([2, 0], n_items=3)]
    for whole in ([2.0, 0], np.array([2, 0]), np.array([2, 0], dtype=np.int32)):
        assert [list(row) for row in read(whole)] == want


# --------------------------------------------------------------------------- #
# Fold-in cold-start
# --------------------------------------------------------------------------- #
class TestFoldIn:
    def test_factors_non_negative_and_finite(self, fitted_movielens_model):
        model = fitted_movielens_model
        interactions = [
            model.train_matrix.items_of_user(user) for user in (0, 7, 23)
        ]
        folded = fold_in_users(model, interactions)
        assert folded.shape == (3, model.n_coclusters)
        assert np.isfinite(folded).all()
        assert (folded >= 0).all()

    def test_preserves_float32_model_dtype(self, fitted_movielens_model):
        # Fold-in on a reduced-precision model must not silently upcast.
        model = fitted_movielens_model
        half_items = model.factors_.item_factors.astype(np.float32)
        interactions = sp.csr_matrix(
            model.train_matrix.csr()[:3], dtype=np.float64
        )
        folded = fold_in_factors(half_items, interactions, regularization=model.regularization)
        assert folded.dtype == np.float32
        empty = fold_in_factors(
            half_items, sp.csr_matrix((0, half_items.shape[0])), regularization=1.0
        )
        assert empty.dtype == np.float32

    def test_reproduces_refit_users_top_n(self, fitted_movielens_model):
        # Fold a user's own training row back in against the fitted item
        # factors: the convex single-user subproblem converges to (a point
        # ranking-equivalent to) the fitted factor, so the served top-10 must
        # be exactly the refit user's top-10.
        model = fitted_movielens_model
        engine = TopNEngine.from_model(model)
        users = [5, 17, 40, 99]
        interactions = [model.train_matrix.items_of_user(user) for user in users]
        served = recommend_folded(engine, interactions, model=model, n_items=10)
        for user, ranked in zip(users, served):
            np.testing.assert_array_equal(ranked, model.recommend(user, n_items=10))

    def test_factor_close_to_fitted(self, fitted_movielens_model):
        model = fitted_movielens_model
        user = 5
        folded = fold_in_users(model, [model.train_matrix.items_of_user(user)])[0]
        fitted = model.user_factors_[user]
        assert np.linalg.norm(folded - fitted) < 1e-2 * max(np.linalg.norm(fitted), 1.0)

    def test_masks_the_provided_interactions(self, fitted_movielens_model):
        model = fitted_movielens_model
        engine = TopNEngine.from_model(model)
        items = model.train_matrix.items_of_user(3)
        served = recommend_folded(engine, [items], model=model, n_items=50)[0]
        assert not set(items.tolist()).intersection(served.tolist())

    def test_empty_history_gives_empty_factor(self, fitted_movielens_model):
        # A brand-new user with no positives has nothing to fold in: the
        # subproblem's optimum is the zero vector (popularity fallbacks are a
        # caller concern).
        folded = fold_in_users(fitted_movielens_model, [[]])[0]
        assert folded.shape == (fitted_movielens_model.n_coclusters,)
        assert np.allclose(folded, 0.0)

    def test_requires_fitted_model(self):
        with pytest.raises(NotFittedError):
            fold_in_users(OCuLaR(), [[0, 1]])

    def test_out_of_range_item_rejected(self, fitted_movielens_model):
        with pytest.raises(DataError):
            fold_in_users(fitted_movielens_model, [[0, 10_000]])
        with pytest.raises(DataError):  # no int64 holds it: still a typed error
            fold_in_users(fitted_movielens_model, [[0, 2**70]])

    def test_fractional_item_id_is_refused(self, fitted_movielens_model):
        # The one id rule of every id sequence: 1.5 is not item 1, while a
        # whole number in float form is still the item it names.
        model = fitted_movielens_model
        with pytest.raises(DataError):
            fold_in_users(model, [[1.5, 3]])
        with pytest.raises(DataError):
            recommend_folded(TopNEngine.from_model(model), [[3, 2.25]], model=model)
        np.testing.assert_array_equal(
            fold_in_users(model, [[1.0, 3]]), fold_in_users(model, [[1, 3]])
        )

    def test_dense_matrix_interactions(self, fitted_movielens_model):
        # A dense 0/1 matrix must be read as a matrix (like the sparse form),
        # not as per-user lists of item indices.
        model = fitted_movielens_model
        n_items = model.train_matrix.n_items
        dense = np.zeros((1, n_items))
        dense[0, [3, 17, 41]] = 1.0
        via_dense = fold_in_users(model, dense)
        via_lists = fold_in_users(model, [[3, 17, 41]])
        np.testing.assert_allclose(via_dense, via_lists)


    def test_stored_zeros_are_not_positives(self):
        # A stored zero records no interaction.  Binarising before dropping
        # it would fold it in as a positive, and sharing a float64 input's
        # buffers would overwrite the caller's matrix.
        data = np.array([0.0, 3.0, 2.0])
        matrix = sp.csr_matrix((data, ([0, 0, 1], [0, 1, 2])), shape=(2, 4))
        assert matrix.nnz == 3
        csr = fold_in._interactions_to_csr(matrix, 4)
        assert csr[0].indices.tolist() == [1]
        assert csr[1].indices.tolist() == [2]
        np.testing.assert_array_equal(csr.data, [1.0, 1.0])
        np.testing.assert_array_equal(matrix.data, [0.0, 3.0, 2.0])

    @pytest.mark.parametrize(
        "rows",
        [[[-1.0, 0.0, 1.0]], [[np.nan, 0.0, 1.0]], [[np.nan, -1.0, 1.0]], [[np.inf, 0.0, 1.0]]],
    )
    def test_signed_or_non_finite_values_rejected_like_the_matrix(self, rows):
        # A dislike or a NaN is not a purchase: fold-in input goes through
        # the same normalisation step as the training matrix and is refused
        # with the same error.
        matrix = sp.csr_matrix(np.array(rows))
        with pytest.raises(DataError) as from_matrix:
            InteractionMatrix(matrix)
        with pytest.raises(DataError) as from_fold_in:
            fold_in._interactions_to_csr(matrix, 3)
        assert str(from_fold_in.value) == str(from_matrix.value)

    def test_fold_in_factors_rejects_non_binary_values(self, fitted_movielens_model):
        # The sweeps count each stored entry once in the positive term but
        # read its value in the unknown sums, so counts would make them
        # optimise no single objective; the trainer refuses them too.
        model = fitted_movielens_model
        counts = sp.csr_matrix(model.train_matrix.csr()[:2], dtype=np.float64, copy=True)
        counts.data[0] = 2.0
        with pytest.raises(ConfigurationError, match="binary"):
            fold_in_factors(model.factors_.item_factors, counts, model.regularization)

    def test_stored_zero_item_is_neither_folded_nor_masked(self, fitted_movielens_model):
        model = fitted_movielens_model
        engine = TopNEngine.from_model(model)
        n_items = model.train_matrix.n_items
        with_zero = sp.csr_matrix(
            (np.array([0.0, 1.0, 1.0]), ([0, 0, 0], [3, 17, 41])), shape=(1, n_items)
        )
        served = recommend_folded(engine, with_zero, model=model, n_items=n_items - 2)[0]
        expected = recommend_folded(engine, [[17, 41]], model=model, n_items=n_items - 2)[0]
        np.testing.assert_array_equal(served, expected)
        assert 3 in served.tolist()
        np.testing.assert_array_equal(with_zero.data, [0.0, 1.0, 1.0])

    def test_parallel_model_folds_in_without_a_pool(self, movielens_small, monkeypatch):
        # Fold-in solves on the calling thread whatever backend the model
        # trained with: a parallel-configured model builds no thread pool
        # per call, and folds exactly as a vectorized one does.
        import warnings

        train = movielens_small[1].train
        settings = dict(
            n_coclusters=6, regularization=5.0, max_iterations=3, tolerance=0.0,
            random_state=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parallel = OCuLaR(backend="parallel", **settings).fit(train)
            vectorized = OCuLaR(**settings).fit(train)
        built = []
        original = ThreadExecutor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ThreadExecutor, "__init__", counting_init)
        batch = [vectorized.train_matrix.items_of_user(user) for user in range(40)]
        for _ in range(3):
            folded = fold_in_users(parallel, batch)
        assert built == []
        np.testing.assert_array_equal(folded, fold_in_users(vectorized, batch))


# --------------------------------------------------------------------------- #
# Fold-in plan caching
# --------------------------------------------------------------------------- #
class TestFoldInPlanCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_fold_in_plan_cache()
        yield
        clear_fold_in_plan_cache()

    @pytest.fixture
    def build_counter(self, monkeypatch):
        from repro.core.backends.plan import SweepSide

        calls = []
        original = SweepSide.build.__func__

        def counting_build(cls, *args, **kwargs):
            calls.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(SweepSide, "build", classmethod(counting_build))
        return calls

    def test_repeated_batch_skips_plan_rebuild(self, fitted_movielens_model, build_counter):
        model = fitted_movielens_model
        interactions = [[3, 17, 41], [2, 9]]
        first = fold_in_users(model, interactions)
        builds_after_first = len(build_counter)
        assert builds_after_first >= 1
        second = fold_in_users(model, interactions)
        assert len(build_counter) == builds_after_first  # cache hit: no rebuild
        np.testing.assert_array_equal(first, second)

    def test_different_batch_rebuilds(self, fitted_movielens_model, build_counter):
        model = fitted_movielens_model
        fold_in_users(model, [[3, 17, 41]])
        builds_after_first = len(build_counter)
        fold_in_users(model, [[3, 17, 40]])
        assert len(build_counter) > builds_after_first

    def test_dtype_keys_separately(self, fitted_movielens_model, build_counter):
        # A float32 model must not reuse a float64 batch's cached plan.
        model = fitted_movielens_model
        interactions = sp.csr_matrix(model.train_matrix.csr()[:2])
        fold_in_factors(
            model.factors_.item_factors, interactions, regularization=model.regularization
        )
        builds_after_first = len(build_counter)
        folded32 = fold_in_factors(
            model.factors_.item_factors.astype(np.float32),
            interactions,
            regularization=model.regularization,
        )
        assert len(build_counter) > builds_after_first
        assert folded32.dtype == np.float32

    def test_cached_results_match_uncached(self, fitted_movielens_model):
        model = fitted_movielens_model
        interactions = [[1, 4, 9], [0, 8]]
        warm = fold_in_users(model, interactions)
        clear_fold_in_plan_cache()
        cold = fold_in_users(model, interactions)
        np.testing.assert_array_equal(warm, cold)

    def test_cache_immune_to_caller_buffer_mutation(self, fitted_movielens_model):
        # The cached side must not alias the caller's CSR buffers: mutating a
        # previously folded matrix in place must not corrupt the cache entry
        # keyed on its original content.
        model = fitted_movielens_model
        item_factors = model.factors_.item_factors
        batch = sp.csr_matrix(model.train_matrix.csr()[:2])
        baseline = fold_in_factors(item_factors, batch.copy(), model.regularization)
        fold_in_factors(item_factors, batch, model.regularization)
        batch.data[:] = 7.0  # caller mutates their buffers after the call
        fresh = sp.csr_matrix(model.train_matrix.csr()[:2])  # original content
        refolded = fold_in_factors(item_factors, fresh, model.regularization)
        np.testing.assert_array_equal(refolded, baseline)

    def test_cache_safe_under_concurrent_fold_ins(self, fitted_movielens_model):
        # A serving runtime folds batches from many threads at once; the LRU
        # must neither corrupt (lost entries, evicted-key moves) nor change
        # results.  Distinct batches per thread overflow the 16-entry cache
        # while a shared batch exercises the hit path concurrently.
        import threading

        model = fitted_movielens_model
        batches = [[[i % 40, (3 * i + 1) % 40]] for i in range(24)]
        shared_batch = [[5, 11, 23]]
        expected = {
            index: fold_in_users(model, batch, n_sweeps=5)
            for index, batch in enumerate(batches)
        }
        expected_shared = fold_in_users(model, shared_batch, n_sweeps=5)
        clear_fold_in_plan_cache()

        results: dict = {}
        errors: list = []

        def fold(index: int) -> None:
            try:
                results[index] = fold_in_users(model, batches[index], n_sweeps=5)
                results[("shared", index)] = fold_in_users(
                    model, shared_batch, n_sweeps=5
                )
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=fold, args=(index,))
            for index in range(len(batches))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for index in range(len(batches)):
            np.testing.assert_array_equal(results[index], expected[index])
            np.testing.assert_array_equal(
                results[("shared", index)], expected_shared
            )


# --------------------------------------------------------------------------- #
# Sharded serving
# --------------------------------------------------------------------------- #
class TestServeSharded:
    def test_order_stable_across_executors(self, fitted_movielens_model, movielens_small):
        engine = TopNEngine.from_model(fitted_movielens_model)
        users = list(range(fitted_movielens_model.train_matrix.n_users))
        # A model-path engine has no factors to publish, so the process pool
        # receives it pickled with every shard.
        _, split = movielens_small
        model_engine = TopNEngine.from_model(PopularityRecommender().fit(split.train))
        model_users = list(range(split.train.n_users))

        serial = serve_sharded(engine, users, n_items=10, shard_size=16)
        model_serial = serve_sharded(model_engine, model_users, n_items=10, shard_size=16)
        with ThreadExecutor(max_workers=4) as threads:
            threaded = serve_sharded(engine, users, n_items=10, executor=threads, shard_size=16)
        with SharedMemoryProcessExecutor(max_workers=2) as processes:
            processed = serve_sharded(
                engine, users, n_items=10, executor=processes, shard_size=16
            )
            model_processed = serve_sharded(
                model_engine, model_users, n_items=10, executor=processes, shard_size=16
            )

        assert serial.users == threaded.users == processed.users == users
        assert serial.n_shards == threaded.n_shards == processed.n_shards
        for reference, a, b in zip(serial.rankings, threaded.rankings, processed.rankings):
            np.testing.assert_array_equal(reference, a)
            np.testing.assert_array_equal(reference, b)
        assert model_processed.users == model_serial.users == model_users
        assert model_processed.n_shards == model_serial.n_shards > 1
        for reference, ranked in zip(model_serial.rankings, model_processed.rankings):
            np.testing.assert_array_equal(reference, ranked)

    def test_matches_unsharded_engine(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        users = [9, 1, 44, 1]  # unsorted, with a duplicate
        result = serve_sharded(engine, users, n_items=7, executor=SerialExecutor(), shard_size=2)
        direct = engine.topn(users, n_items=7)
        assert result.n_shards == 2
        for reference, ranked in zip(direct, result.rankings):
            np.testing.assert_array_equal(reference, ranked)

    def test_as_dict(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        mapping = serve_sharded(engine, [4, 8], n_items=3).as_dict()
        assert set(mapping) == {4, 8}

    def test_executor_selected_by_registry_name(self, fitted_movielens_model):
        # serve_sharded routes names through the shard-scheduler registry and
        # owns the executor it builds (no pool leaks to worry about here).
        engine = TopNEngine.from_model(fitted_movielens_model)
        users = list(range(24))
        reference = serve_sharded(engine, users, n_items=5, shard_size=8)
        for name in ("serial", "thread", "process"):
            named = serve_sharded(engine, users, n_items=5, executor=name, shard_size=8)
            assert named.n_shards == reference.n_shards
            for expected, ranked in zip(reference.rankings, named.rankings):
                np.testing.assert_array_equal(expected, ranked)

    def test_unknown_executor_name_rejected(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        with pytest.raises(ConfigurationError):
            serve_sharded(engine, [0], executor="spark")

    def test_engine_is_picklable(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        clone = pickle.loads(pickle.dumps(engine))
        np.testing.assert_array_equal(
            clone.topn([3], n_items=5)[0],
            engine.topn([3], n_items=5)[0],
        )


# --------------------------------------------------------------------------- #
# The worker cache: engines and sweep sides rebuilt over published descriptors
# --------------------------------------------------------------------------- #
def _publish_side(executor, matrix, row_positive_weights=None):
    """Publish one sweep side the way a sharded sweep does; return its spec."""
    from repro.core.backends.parallel import SharedSideSpec
    from repro.core.backends.plan import SweepSide
    from repro.parallel.publication import PublishedKeys

    side = SweepSide.build(matrix, row_positive_weights=row_positive_weights)
    published = PublishedKeys(executor)
    spec = SharedSideSpec(
        csr=published.static_csr(side.matrix),
        row_index=published.static(side.row_index),
        entry_weights=(
            None if side.entry_weights is None else published.static(side.entry_weights)
        ),
    )
    return spec, published


class TestWorkerCache:
    @pytest.fixture()
    def two_engines(self, movielens_small):
        matrix, split = movielens_small
        engines = []
        for seed in (0, 1):
            model = OCuLaR(
                n_coclusters=4,
                regularization=5.0,
                max_iterations=2,
                tolerance=0.0,
                random_state=seed,
            ).fit(split.train)
            engines.append(TopNEngine.from_model(model))
        return engines

    def test_ab_generations_reuse_both_engines(self, two_engines, worker_cache):
        from repro.parallel.shared_memory import SharedMemoryProcessExecutor
        from repro.serving import shared as serving_shared

        engine_a, engine_b = two_engines
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            spec_a = serving_shared.publish_engine(executor, engine_a)
            spec_b = serving_shared.publish_engine(executor, engine_b)

            worker_a = serving_shared.attach_engine(spec_a)
            worker_b = serving_shared.attach_engine(spec_b)
            # A/B shape: re-serving generation A must NOT rebuild it — both
            # generations stay cached side by side.
            assert serving_shared.attach_engine(spec_a) is worker_a
            assert serving_shared.attach_engine(spec_b) is worker_b
            np.testing.assert_array_equal(
                worker_a.topn([3], n_items=5)[0],
                engine_a.topn([3], n_items=5)[0],
            )
            np.testing.assert_array_equal(
                worker_b.topn([3], n_items=5)[0],
                engine_b.topn([3], n_items=5)[0],
            )
            for name in spec_a.segment_names() + spec_b.segment_names():
                assert name in worker_cache._ATTACHMENTS

    def test_unlinked_generations_pruned_on_swap(self, two_engines, worker_cache):
        # The refit-loop shape: one live generation at a time.  When the
        # publisher unlinks a generation, the next swap reaching the worker
        # drops its cached engine and mappings — steady-state worker memory
        # tracks the live model, not the last N models.
        from repro.parallel.shared_memory import SharedMemoryProcessExecutor
        from repro.serving import shared as serving_shared

        engine_a, engine_b = two_engines
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            spec_a = serving_shared.publish_engine(executor, engine_a)
            spec_b = serving_shared.publish_engine(executor, engine_b)
            serving_shared.attach_engine(spec_a)
            serving_shared.attach_engine(spec_b)
            serving_shared.unpublish_engine(executor, spec_a)  # swap out A
            spec_c = serving_shared.publish_engine(executor, engine_a)
            serving_shared.attach_engine(spec_c)  # the swap reaches us
            assert spec_a not in worker_cache._CACHE
            for name in spec_a.segment_names():
                assert name not in worker_cache._ATTACHMENTS
            # B is still published (A/B): kept cached and servable.
            assert spec_b in worker_cache._CACHE
            assert spec_c in worker_cache._CACHE

    def test_engine_cache_count_cap(self, two_engines, worker_cache):
        from repro.parallel.shared_memory import SharedMemoryProcessExecutor
        from repro.serving import shared as serving_shared

        engine_a, _engine_b = two_engines
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            specs = [
                serving_shared.publish_engine(executor, engine_a)
                for _ in range(serving_shared.MAX_CACHED_ENGINES + 2)
            ]
            for spec in specs:
                serving_shared.attach_engine(spec)
            # The count cap bounds cached engines even while every
            # generation is still published; the most recent ones survive.
            assert len(worker_cache._CACHE) == serving_shared.MAX_CACHED_ENGINES
            assert specs[-1] in worker_cache._CACHE
            assert specs[0] not in worker_cache._CACHE
            for name in specs[0].segment_names():
                assert name not in worker_cache._ATTACHMENTS

    def test_miss_never_closes_a_viewed_mapping(
        self, two_engines, movielens_small, worker_cache
    ):
        # Closing a mapping a cached engine still views would segfault on
        # its next read.  An engine miss and a sweep-side miss each close
        # the mappings nothing views — never the cached engine's five.
        from repro.core.backends.parallel import _attach_side
        from repro.parallel.shared_memory import (
            SharedMemoryProcessExecutor,
            attach_shared_array,
        )
        from repro.serving import shared as serving_shared

        engine_a, engine_b = two_engines
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            spec_a = serving_shared.publish_engine(executor, engine_a)
            spec_b = serving_shared.publish_engine(executor, engine_b)
            stray = executor.publish("stray", np.zeros(8))
            side_spec, _ = _publish_side(executor, movielens_small[1].train.csr())

            worker_a = serving_shared.attach_engine(spec_a)
            attach_shared_array(stray)  # a mapping no entry views
            serving_shared.attach_engine(spec_b)  # engine miss
            assert stray.shm_name not in worker_cache._ATTACHMENTS
            worker_side = _attach_side(side_spec)  # side miss
            assert _attach_side(side_spec) is worker_side

            assert len(spec_a.segment_names()) == 5
            for name in spec_a.segment_names():
                assert name in worker_cache._ATTACHMENTS
            assert serving_shared.attach_engine(spec_a) is worker_a
            users = list(range(20))
            np.testing.assert_array_equal(
                worker_a.topn(users, n_items=5).items,
                engine_a.topn(users, n_items=5).items,
            )
            for array in side_spec.array_specs():
                assert array.shm_name in worker_cache._ATTACHMENTS

    def test_kinds_do_not_evict_each_other(self, two_engines, movielens_small, worker_cache):
        from repro.core.backends.parallel import MAX_CACHED_SIDES, _attach_side
        from repro.parallel.shared_memory import SharedMemoryProcessExecutor
        from repro.serving import shared as serving_shared

        engine_a, _engine_b = two_engines
        train = movielens_small[1].train.csr()
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            engine_spec = serving_shared.publish_engine(executor, engine_a)
            worker_engine = serving_shared.attach_engine(engine_spec)
            side_specs = [
                _publish_side(executor, train)[0] for _ in range(MAX_CACHED_SIDES + 1)
            ]
            for spec in side_specs:
                _attach_side(spec)
            # The side cap evicted the oldest side, never the engine.
            assert side_specs[0] not in worker_cache._CACHE
            assert all(spec in worker_cache._CACHE for spec in side_specs[1:])
            assert serving_shared.attach_engine(engine_spec) is worker_engine
            # And a run of engine misses leaves the sides alone.
            for _ in range(serving_shared.MAX_CACHED_ENGINES):
                serving_shared.attach_engine(
                    serving_shared.publish_engine(executor, engine_a)
                )
            assert engine_spec not in worker_cache._CACHE
            assert all(spec in worker_cache._CACHE for spec in side_specs[1:])

    def test_released_plan_sides_dropped_at_next_miss(self, movielens_small, worker_cache):
        # A refit's first sweep reaching the worker drops the sides of the
        # plan the previous fit released, with their mappings.
        from repro.core.backends.parallel import _attach_side
        from repro.parallel.shared_memory import SharedMemoryProcessExecutor

        train = movielens_small[1].train.csr()
        weights = np.linspace(1.0, 2.0, train.shape[0])
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            old_spec, old_keys = _publish_side(executor, train, weights)
            assert old_spec.entry_weights in old_spec.array_specs()
            assert len(old_spec.array_specs()) == 5
            old_side = _attach_side(old_spec)
            np.testing.assert_array_equal(
                old_side.entry_weights, weights[old_side.row_index]
            )
            old_keys.release()
            new_spec, _ = _publish_side(executor, train)
            _attach_side(new_spec)
            assert list(worker_cache._CACHE) == [new_spec]
            for array in old_spec.array_specs():
                assert array.shm_name not in worker_cache._ATTACHMENTS

    def test_eviction_thread_races_task_thread(self, worker_cache):
        # A cluster node drops entries from its control thread while its
        # task thread looks up and builds; neither may see the cache torn.
        import sys
        import threading
        from dataclasses import dataclass

        from repro.parallel.shared_memory import (
            SharedMemoryProcessExecutor,
            cached_attach,
            drop_cached,
        )

        @dataclass(frozen=True)
        class Spec:
            index: int
            arrays: tuple

            def array_specs(self):
                return list(self.arrays)

        errors: list = []
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            arrays = [executor.publish(("race", i), np.zeros(2)) for i in range(40)]
            specs = [Spec(i, (arrays[i], arrays[(i + 1) % 40])) for i in range(40)]

            def tasks():
                try:
                    for step in range(6000):
                        spec = specs[step % 40]
                        assert cached_attach(spec, lambda s: ("built", s), 30)[1] is spec
                except Exception as error:  # pragma: no cover - the failure
                    errors.append(error)

            def evictions():
                try:
                    for step in range(6000):
                        drop_cached([arrays[(7 * step) % 40].shm_name])
                except Exception as error:  # pragma: no cover - the failure
                    errors.append(error)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=tasks), threading.Thread(target=evictions)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(worker_cache._CACHE) <= 30

    def test_cluster_evict_drops_entries_viewing_a_name(self, two_engines, worker_cache):
        from repro.parallel.shared_memory import SharedMemoryProcessExecutor, drop_cached
        from repro.serving import shared as serving_shared

        engine_a, engine_b = two_engines
        with SharedMemoryProcessExecutor(max_workers=1) as executor:
            spec_a = serving_shared.publish_engine(executor, engine_a)
            spec_b = serving_shared.publish_engine(executor, engine_b)
            serving_shared.attach_engine(spec_a)
            serving_shared.attach_engine(spec_b)
            drop_cached([spec_a.item_factors.shm_name])
            assert list(worker_cache._CACHE) == [spec_b]


# --------------------------------------------------------------------------- #
# Engine-routed consumers
# --------------------------------------------------------------------------- #
class TestEngineRoutedReports:
    def test_batch_reports_match_per_user_ranking(self, b2b_small):
        model = OCuLaR(
            n_coclusters=6, regularization=1.0, max_iterations=40, random_state=1
        ).fit(b2b_small.matrix)
        users = [0, 5, 10]
        reports = batch_reports(model, users, n_items=3, deal_values=b2b_small.deal_values)
        assert [report.user for report in reports] == users
        for report in reports:
            reference = model.recommend(report.user, n_items=3, exclude_seen=True)
            assert [card.item for card in report.explanations] == reference.tolist()


# --------------------------------------------------------------------------- #
# Warm-start factor extension
# --------------------------------------------------------------------------- #
class TestExtendFactors:
    @pytest.fixture()
    def grown_pair(self, fitted_movielens_model):
        model = fitted_movielens_model
        grown = model.train_matrix.extended_with(
            [(120, 3), (120, 11), (121, 4), (0, 80), (17, 80)],
            n_new_users=2,
            n_new_items=1,
        )
        return model, grown

    def test_shapes_and_feasibility(self, grown_pair):
        model, grown = grown_pair
        extended = extend_factors(model, grown)
        assert extended.user_factors.shape == (grown.n_users, model.n_coclusters)
        assert extended.item_factors.shape == (grown.n_items, model.n_coclusters)
        assert (extended.user_factors >= 0).all()
        assert (extended.item_factors >= 0).all()
        assert np.isfinite(extended.user_factors).all()
        assert np.isfinite(extended.item_factors).all()

    def test_interior_zero_preserves_old_rows_verbatim(self, grown_pair, monkeypatch):
        model, grown = grown_pair
        monkeypatch.setattr(fold_in, "INTERIOR_LIFT", 0.0)
        extended = extend_factors(model, grown)
        np.testing.assert_array_equal(
            extended.user_factors[: model.factors_.n_users],
            model.factors_.user_factors,
        )
        np.testing.assert_array_equal(
            extended.item_factors[: model.factors_.n_items],
            model.factors_.item_factors,
        )

    def test_interior_lift_floors_only_the_zeros(self, grown_pair, monkeypatch):
        model, grown = grown_pair
        interior = 0.01
        monkeypatch.setattr(fold_in, "INTERIOR_LIFT", interior)
        extended = extend_factors(model, grown)
        old = model.factors_.user_factors
        lifted = extended.user_factors[: model.factors_.n_users]
        floor = lifted[old == 0]
        assert floor.size and (floor > 0).all()
        # Entries already above the floor are untouched.
        np.testing.assert_array_equal(
            lifted[old >= floor.max()], old[old >= floor.max()]
        )
        # The floor stays tiny relative to the block's positive mass.
        assert floor.max() <= interior * old[old > 0].mean() + 1e-12

    def test_same_shape_matrix_is_identity_modulo_lift(self, fitted_movielens_model, monkeypatch):
        model = fitted_movielens_model
        monkeypatch.setattr(fold_in, "INTERIOR_LIFT", 0.0)
        extended = extend_factors(model, model.train_matrix)
        np.testing.assert_array_equal(
            extended.user_factors, model.factors_.user_factors
        )
        np.testing.assert_array_equal(
            extended.item_factors, model.factors_.item_factors
        )

    def test_count_matrix_extends_like_its_binarisation(self, grown_pair):
        # Raw counts are normalised like InteractionMatrix input, so new
        # items and new users are folded against the same binary rows.
        model, grown = grown_pair
        counts = sp.csr_matrix(grown.csr(), dtype=np.float64, copy=True)
        counts.data[:] = 1.0 + np.arange(counts.nnz) % 3
        from_counts = extend_factors(model, counts)
        from_matrix = extend_factors(model, InteractionMatrix(counts))
        assert np.array_equal(from_counts.user_factors, from_matrix.user_factors)
        assert np.array_equal(from_counts.item_factors, from_matrix.item_factors)

    def test_smaller_matrix_rejected(self, fitted_movielens_model):
        model = fitted_movielens_model
        small = InteractionMatrix(np.eye(3))
        with pytest.raises(ConfigurationError, match="at least as large"):
            extend_factors(model, small)

    def test_requires_fitted_model(self, fitted_movielens_model):
        with pytest.raises(NotFittedError):
            extend_factors(OCuLaR(n_coclusters=3), fitted_movielens_model.train_matrix)
