"""Tests for the zero-allocation serving hot path.

Covers the flat :class:`TopNResult` container, the score-buffer pool and its
zero-allocation steady state, the chunk-size autotuner, pipelined chunking
parity, the writable ``rank_scored`` path, the unified empty-input contract,
and float32 serving parity against float64 across seen-masking, fold-in and
sharded process serving.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.ocular import OCuLaR
from repro.exceptions import ConfigurationError
from repro.serving import (
    ScoreBufferPool,
    TopNEngine,
    TopNResult,
    buffers,
    recommend_folded,
    serve_sharded,
)
from repro.serving import engine as engine_module


def _ranking_overlap(a, b) -> float:
    """Mean per-row Jaccard-free overlap |A ∩ B| / |A| between two results."""
    overlaps = []
    for row_a, row_b in zip(a, b):
        if len(row_a) == 0:
            continue
        overlaps.append(len(set(row_a.tolist()) & set(row_b.tolist())) / len(row_a))
    return float(np.mean(overlaps)) if overlaps else 1.0


@pytest.fixture(scope="module")
def float32_model(movielens_small):
    """OCuLaR trained in float32 on the small MovieLens-like split."""
    import warnings

    _, split = movielens_small
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return OCuLaR(
            n_coclusters=12,
            regularization=8.0,
            max_iterations=60,
            random_state=0,
            dtype="float32",
        ).fit(split.train)


# --------------------------------------------------------------------------- #
# TopNResult container
# --------------------------------------------------------------------------- #
class TestTopNResult:
    def test_from_rows_round_trip(self):
        rows = [np.array([3, 1, 4]), np.array([1, 5]), np.array([], dtype=np.int64)]
        result = TopNResult.from_rows(rows)
        assert result.n_rows == 3
        assert result.width == 3
        assert list(result.lengths) == [3, 2, 0]
        assert result == rows
        assert result[0].tolist() == [3, 1, 4]
        # Padding positions hold the sentinel.
        assert result.items[1, 2] == -1

    def test_sequence_protocol(self):
        result = TopNResult.from_rows([np.array([7, 8]), np.array([9])])
        assert len(result) == 2
        np.testing.assert_array_equal(result[0], [7, 8])
        np.testing.assert_array_equal(result[-1], [9])
        assert [row.tolist() for row in result] == [[7, 8], [9]]
        with pytest.raises(IndexError):
            result[2]

    def test_slicing_returns_view(self):
        result = TopNResult.from_rows(
            [np.array([1, 2]), np.array([3, 4]), np.array([5])]
        )
        tail = result[1:]
        assert isinstance(tail, TopNResult)
        assert len(tail) == 2
        np.testing.assert_array_equal(tail[0], [3, 4])
        # Zero-copy: the slice shares the parent's buffer.
        assert tail.items.base is result.items
        # An index array gathers rows (the mixed known/cold merge's reorder).
        assert result[np.array([2, 0])] == [[5], [1, 2]]
        np.testing.assert_array_equal(result[np.int64(1)], [3, 4])

    def test_equality_against_lists(self):
        rows = [np.array([2, 0]), np.array([1])]
        result = TopNResult.from_rows(rows)
        assert result == rows
        assert result == [[2, 0], [1]]
        assert result != [[2, 0], [1, 3]]
        assert (result == object()) is False or (result != object()) is True

    def test_empty(self):
        result = TopNResult.empty(width=5)
        assert len(result) == 0
        assert result == []
        scored = TopNResult.empty(width=5, with_scores=True)
        assert scored.scores is not None and scored.scores.shape == (0, 5)

    def test_concat_equal_widths(self):
        a = TopNResult.from_rows([np.array([1, 2])], width=2)
        b = TopNResult.from_rows([np.array([3])], width=2)
        merged = TopNResult.concat([a, b])
        assert merged == [[1, 2], [3]]

    def test_concat_mixed_widths_pads(self):
        a = TopNResult.from_rows([np.array([1])], width=1)
        b = TopNResult.from_rows([np.array([2, 3, 4])], width=3)
        merged = TopNResult.concat([a, b])
        assert merged.width == 3
        assert merged == [[1], [2, 3, 4]]

    def test_concat_empty_input(self):
        assert TopNResult.concat([]) == []

    def test_scores_alignment(self):
        result = TopNResult.from_rows(
            [np.array([4, 2]), np.array([9])],
            scores=[np.array([0.9, 0.5]), np.array([0.7])],
        )
        np.testing.assert_allclose(result.row_scores(0), [0.9, 0.5])
        assert [row.tolist() for row in result.score_rows()] == [[0.9, 0.5], [0.7]]

    def test_to_lists_json_ready(self):
        result = TopNResult.from_rows([np.array([1, 2]), np.array([3])])
        lists = result.to_lists()
        assert lists == [[1, 2], [3]]
        assert all(isinstance(v, int) for row in lists for v in row)

    def test_pickle_round_trip(self):
        result = TopNResult.from_rows(
            [np.array([5, 6]), np.array([7])], scores=[np.array([0.2, 0.1]), np.array([0.3])]
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        np.testing.assert_allclose(clone.scores, result.scores)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TopNResult(np.zeros(3, dtype=np.int32), np.zeros(3, dtype=np.int32))
        with pytest.raises(ValueError):
            TopNResult(
                np.zeros((2, 3), dtype=np.int32),
                np.zeros(1, dtype=np.int32),
            )
        with pytest.raises(ValueError):
            TopNResult(
                np.zeros((2, 3), dtype=np.int32),
                np.zeros(2, dtype=np.int32),
                scores=np.zeros((2, 4)),
            )


# --------------------------------------------------------------------------- #
# Score-buffer pool
# --------------------------------------------------------------------------- #
class TestScoreBufferPool:
    def test_take_release_reuses(self):
        pool = ScoreBufferPool()
        block = pool.take(4, 8, np.float64)
        assert block.shape == (4, 8) and block.flags.c_contiguous
        pool.release(block)
        again = pool.take(4, 8, np.float64)
        stats = pool.stats()
        assert stats.allocations == 1
        assert stats.reuses == 1
        pool.release(again)

    def test_shorter_rows_reuse_larger_block(self):
        pool = ScoreBufferPool()
        pool.release(pool.take(10, 6, np.float64))
        short = pool.take(3, 6, np.float64)
        assert short.shape == (3, 6)
        assert pool.stats().allocations == 1
        pool.release(short)
        assert pool.stats().cached_blocks == 1

    def test_dtype_and_width_keying(self):
        pool = ScoreBufferPool()
        pool.release(pool.take(4, 8, np.float64))
        f32 = pool.take(4, 8, np.float32)  # different dtype -> new block
        narrow = pool.take(4, 4, np.float64)  # different width -> new block
        assert pool.stats().allocations == 3
        pool.release(f32)
        pool.release(narrow)

    def test_max_cached_cap(self, monkeypatch):
        monkeypatch.setattr(buffers, "MAX_CACHED_BLOCKS", 2)
        pool = ScoreBufferPool()
        blocks = [pool.take(2, 3, np.float64) for _ in range(4)]
        for block in blocks:
            pool.release(block)
        assert pool.stats().cached_blocks == 2

    def test_outstanding_counter(self):
        pool = ScoreBufferPool()
        block = pool.take(2, 2, np.float64)
        assert pool.stats().outstanding == 1
        pool.release(block)
        assert pool.stats().outstanding == 0

    def test_clear_keeps_counters(self):
        pool = ScoreBufferPool()
        pool.release(pool.take(2, 2, np.float64))
        pool.clear()
        stats = pool.stats()
        assert stats.cached_blocks == 0
        assert stats.allocations == 1

    def test_pickles_to_fresh_pool(self):
        pool = ScoreBufferPool()
        pool.release(pool.take(2, 2, np.float64))
        clone = pickle.loads(pickle.dumps(pool))
        assert clone.stats().allocations == 0
        assert clone.stats().cached_blocks == 0


# --------------------------------------------------------------------------- #
# Chunk autotune under the score-buffer budget
# --------------------------------------------------------------------------- #
class TestChunkAutotune:
    def test_effective_chunk_capped_by_budget(self, fitted_movielens_model, monkeypatch):
        # 80 items x 8 bytes = 640 B per row; a 64 KiB budget caps at 102 rows.
        engine = TopNEngine.from_model(fitted_movielens_model, chunk_size=4096)
        roomy = TopNEngine.from_model(fitted_movielens_model, chunk_size=64)
        # The 128 MiB budget leaves the requested chunk unchanged.
        assert engine.effective_chunk_size() == 4096
        monkeypatch.setattr(engine_module, "SCORE_BUFFER_BUDGET_BYTES", 64 * 1024)
        row_bytes = engine.n_items * engine.serving_dtype.itemsize
        assert engine.effective_chunk_size() == (64 * 1024) // row_bytes
        assert roomy.effective_chunk_size() == 64

    def test_effective_chunk_floor_is_one(self, fitted_movielens_model, monkeypatch):
        monkeypatch.setattr(engine_module, "SCORE_BUFFER_BUDGET_BYTES", 1)
        engine = TopNEngine.from_model(fitted_movielens_model)
        assert engine.effective_chunk_size() == 1

    def test_float32_doubles_the_chunk(self, fitted_movielens_model, monkeypatch):
        monkeypatch.setattr(engine_module, "SCORE_BUFFER_BUDGET_BYTES", 1024 * 1024)
        f64 = TopNEngine.from_model(fitted_movielens_model, chunk_size=1 << 20)
        f32 = TopNEngine.from_model(fitted_movielens_model, chunk_size=1 << 20, dtype="float32")
        assert f32.effective_chunk_size() == 2 * f64.effective_chunk_size()


# --------------------------------------------------------------------------- #
# Engine hot path: flat results, empty contract, zero allocation, pipeline
# --------------------------------------------------------------------------- #
class TestEngineHotPath:
    def test_topn_returns_flat_result(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        result = engine.topn(range(20), n_items=7)
        assert isinstance(result, TopNResult)
        assert result.items.dtype == np.int32
        for user, ranked in zip(range(20), result):
            reference = fitted_movielens_model.recommend(user, n_items=7)
            np.testing.assert_array_equal(ranked, reference)

    def test_empty_input_contract_unified(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        bare = engine.topn([], n_items=5)
        assert isinstance(bare, TopNResult) and bare == []
        scored = engine.topn([], n_items=5, with_scores=True)
        assert isinstance(scored, TopNResult) and scored == []
        assert scored.score_rows() == []

    def test_with_scores_alignment(self, fitted_movielens_model):
        model = fitted_movielens_model
        engine = TopNEngine.from_model(model)
        users = [0, 5, 17]
        result = engine.topn(users, n_items=9, with_scores=True)
        for user, ranked, row_scores in zip(users, result, result.score_rows()):
            full = model.score_users([user])[0]
            np.testing.assert_allclose(row_scores, full[ranked], rtol=1e-12)
            assert np.all(np.diff(row_scores) <= 0)

    def test_zero_allocations_after_warmup(self, fitted_movielens_model):
        # Serial chunking takes and releases blocks in one fixed order, so
        # the warm-up pass allocates everything any later pass needs.
        for dtype in ("float64", "float32"):
            engine = TopNEngine.from_model(
                fitted_movielens_model, chunk_size=32, dtype=dtype, pipeline=False
            )
            users = list(range(120))
            engine.topn(users, n_items=10)  # warm-up pass
            warm = engine.pool.stats().allocations
            for _ in range(3):
                engine.topn(users, n_items=10)
            after = engine.pool.stats()
            assert after.allocations == warm
            assert after.reuses > 0
            assert after.outstanding == 0

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("chunk_size, bound", [(30, 3), (32, 4)])
    def test_pipelined_allocations_stay_within_structural_bound(
        self, fitted_movielens_model, dtype, chunk_size, bound
    ):
        # Pipelined, how many blocks a pass needs depends on whether the
        # prefetch thread takes chunk k+1's block before or after the caller
        # releases chunk k's, so no single pass is "the" warm-up.  What holds
        # whatever the timing: one gather block (taken and released inside
        # one scoring call, and scoring calls do not overlap), two full score
        # blocks (one being selected from, one being scored into), and, when
        # the last chunk is shorter, one block of its size allocated if it
        # was scored while no full block was free.  120 users in chunks of
        # 30 have no short chunk; in chunks of 32 the last has 24 rows.
        engine = TopNEngine.from_model(
            fitted_movielens_model, chunk_size=chunk_size, dtype=dtype, pipeline=True
        )
        users = list(range(120))
        for _ in range(6):
            engine.topn(users, n_items=10)
            stats = engine.pool.stats()
            assert stats.allocations <= bound
            assert stats.outstanding == 0
        assert stats.reuses > 0

    def test_pipelined_matches_serial_exactly(self, fitted_movielens_model):
        serial_engine, piped_engine = (
            TopNEngine.from_model(fitted_movielens_model, chunk_size=16, pipeline=flag)
            for flag in (False, True)
        )
        users = list(range(120))
        serial = serial_engine.topn(users, n_items=12)
        piped = piped_engine.topn(users, n_items=12)
        np.testing.assert_array_equal(serial.items, piped.items)
        np.testing.assert_array_equal(serial.lengths, piped.lengths)
        with_scores = piped_engine.topn(users, n_items=12, with_scores=True)
        np.testing.assert_array_equal(serial.items, with_scores.items)

    def test_pipeline_flag_at_construction(self, fitted_movielens_model):
        engine = TopNEngine.from_model(
            fitted_movielens_model, chunk_size=16, pipeline=True
        )
        reference = TopNEngine.from_model(fitted_movielens_model)
        users = list(range(60))
        assert engine.topn(users, n_items=8) == reference.topn(users, n_items=8)

    def test_rank_scored_writable_parity(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        rng = np.random.default_rng(11)
        scores = rng.random((9, engine.n_items))
        seen = sp.random(9, engine.n_items, density=0.1, random_state=3, format="csr")
        copied = engine.rank_scored(scores.copy(), n_items=6, seen=seen)
        original = scores.copy()
        owned = scores.copy()
        in_place = engine.rank_scored(owned, n_items=6, seen=seen, writable=True)
        assert copied == in_place
        # writable=True may destroy its input...
        assert not np.array_equal(owned, original)
        # ...but the default must not.
        untouched = scores.copy()
        engine.rank_scored(untouched, n_items=6, seen=seen)
        np.testing.assert_array_equal(untouched, scores)

    def test_rank_scored_empty_rows(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        empty = np.zeros((0, engine.n_items))
        assert engine.rank_scored(empty, n_items=4) == []
        result = engine.rank_scored(empty, n_items=4, with_scores=True)
        assert isinstance(result, TopNResult) and result == []
        assert result.scores.shape == (0, 4)

    def test_invalid_serving_dtype_rejected(self, fitted_movielens_model):
        with pytest.raises(ConfigurationError):
            TopNEngine.from_model(fitted_movielens_model, dtype="int32")

    def test_engine_pickles_with_fresh_pool(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model, dtype="float32")
        engine.topn(range(10), n_items=5)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.serving_dtype == np.dtype(np.float32)
        assert clone.pool.stats().allocations == 0
        assert clone.topn(range(10), n_items=5) == engine.topn(range(10), n_items=5)


# --------------------------------------------------------------------------- #
# Float32 serving parity (satellite S3)
# --------------------------------------------------------------------------- #
class TestFloat32Parity:
    OVERLAP_FLOOR = 0.9

    @pytest.mark.parametrize("exclude_seen", [True, False])
    def test_float32_vs_float64_overlap(self, fitted_movielens_model, exclude_seen):
        f64 = TopNEngine.from_model(fitted_movielens_model)
        f32 = TopNEngine.from_model(fitted_movielens_model, dtype="float32")
        assert f32.serving_dtype == np.dtype(np.float32)
        # The trained factors are untouched; only the serving copies cast.
        assert f32.factors.dtype == np.dtype(np.float64)
        assert f32.serving_user_factors.dtype == np.dtype(np.float32)
        users = list(range(fitted_movielens_model.train_matrix.n_users))
        a = f64.topn(users, n_items=20, exclude_seen=exclude_seen)
        b = f32.topn(users, n_items=20, exclude_seen=exclude_seen)
        assert _ranking_overlap(a, b) >= self.OVERLAP_FLOOR

    def test_float32_native_factors_are_bit_exact_default(self, float32_model):
        engine = TopNEngine.from_model(float32_model)
        assert engine.serving_dtype == np.dtype(np.float32)
        # Native dtype: no cast copy at all.
        assert engine.serving_user_factors is engine.factors.user_factors

    def test_float32_fold_in_overlap(self, fitted_movielens_model):
        f64 = TopNEngine.from_model(fitted_movielens_model)
        f32 = TopNEngine.from_model(fitted_movielens_model, dtype="float32")
        interactions = [[0, 3, 9], [1, 2], [5]]
        a = recommend_folded(f64, interactions, model=fitted_movielens_model, n_items=15)
        b = recommend_folded(f32, interactions, model=fitted_movielens_model, n_items=15)
        assert isinstance(a, TopNResult)
        assert _ranking_overlap(a, b) >= self.OVERLAP_FLOOR

    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_float32_sharded_process_serving(self, fitted_movielens_model, n_shards):
        from repro.parallel import SharedMemoryProcessExecutor

        engine = TopNEngine.from_model(fitted_movielens_model, dtype="float32")
        users = list(range(fitted_movielens_model.train_matrix.n_users))
        shard_size = -(-len(users) // n_shards)
        local = engine.topn(users, n_items=10)
        with SharedMemoryProcessExecutor(max_workers=2) as executor:
            sharded = serve_sharded(
                engine, users, n_items=10, executor=executor, shard_size=shard_size
            )
        assert sharded.n_shards == n_shards
        # Workers attach the very float32 bytes the publisher serves, so the
        # process-sharded rankings are exactly the local float32 ones.
        assert sharded.rankings == local
        f64 = TopNEngine.from_model(fitted_movielens_model).topn(users, n_items=10)
        assert _ranking_overlap(f64, sharded.rankings) >= self.OVERLAP_FLOOR


# --------------------------------------------------------------------------- #
# Flat results through serve_sharded
# --------------------------------------------------------------------------- #
class TestShardedFlatResults:
    def test_serve_sharded_returns_flat_result(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model)
        users = list(range(30))
        outcome = serve_sharded(engine, users, n_items=8, shard_size=7)
        assert isinstance(outcome.rankings, TopNResult)
        reference = engine.topn(users, n_items=8)
        assert outcome.rankings == reference

    def test_scatter_results_slices_flat_blocks(self):
        from repro.serving.batch import merge_request_lists, scatter_results

        merged, spans = merge_request_lists([[0, 1], [2], [3, 4, 5]])
        result = TopNResult.from_rows([np.array([i, i + 1]) for i in merged])
        scattered = scatter_results(result, spans)
        assert all(isinstance(part, TopNResult) for part in scattered)
        assert [len(part) for part in scattered] == [2, 1, 3]
        np.testing.assert_array_equal(scattered[2][0], [3, 4])


# --------------------------------------------------------------------------- #
# Mask kernel (satellite S1)
# --------------------------------------------------------------------------- #
class TestMaskSeen:
    def test_masks_exactly_the_row_positives(self):
        rng = np.random.default_rng(5)
        dense = (rng.random((7, 11)) < 0.3).astype(float)
        csr = sp.csr_matrix(dense)
        neg_scores = rng.standard_normal((7, 11))
        expected = neg_scores.copy()
        expected[dense.astype(bool)] = np.inf
        TopNEngine._mask_seen(neg_scores, np.arange(7), csr)
        np.testing.assert_array_equal(neg_scores, expected)

    def test_row_subset_masking(self):
        dense = np.zeros((5, 6))
        dense[3, [1, 4]] = 1.0
        dense[4, 2] = 1.0
        csr = sp.csr_matrix(dense)
        neg_scores = np.zeros((2, 6))
        TopNEngine._mask_seen(neg_scores, np.array([3, 4]), csr)
        assert np.isinf(neg_scores[0, 1]) and np.isinf(neg_scores[0, 4])
        assert np.isinf(neg_scores[1, 2])
        assert np.isfinite(neg_scores).sum() == 12 - 3


# --------------------------------------------------------------------------- #
# Kernel parity: the negated-and-masked block against a plain reference
# --------------------------------------------------------------------------- #
def _reference_mask(neg_scores, rows, csr):
    """One slice write per row: the loop ``_mask_seen`` replaced by a scatter."""
    indptr, indices = csr.indptr, csr.indices
    for i, row in enumerate(np.asarray(rows).tolist()):
        neg_scores[i, indices[indptr[row] : indptr[row + 1]]] = np.inf


def _reference_neg_scores(engine, users):
    """``-(g @ F.T)`` -> ``exp`` -> ``- 1``: the sign applied after the product."""
    gathered = engine.serving_user_factors[users]
    block = np.negative(gathered @ engine.serving_item_factors.T)
    np.exp(block, out=block)
    np.subtract(block, 1.0, out=block)
    return block


def _bits(array):
    """The array's bytes as integers, so ``0.0`` and ``-0.0`` compare unequal."""
    return array.view(np.int64 if array.dtype == np.float64 else np.int32)


@pytest.fixture(scope="module", params=["float64", "float32"])
def kernel_engine(request):
    """Random factors with exact zeros, over a corpus with empty user rows.

    Users ``0..9`` have all-zero factors (every affinity is exactly zero) and
    every fifth user has no training positives.
    """
    from repro.core.factors import FactorModel
    from repro.data.interactions import InteractionMatrix

    rng = np.random.default_rng(42)
    n_users, n_items, k = 90, 70, 6
    user_factors = rng.random((n_users, k)) * (rng.random((n_users, k)) < 0.6)
    item_factors = rng.random((n_items, k)) * (rng.random((n_items, k)) < 0.6)
    user_factors[:10] = 0.0
    dense = (rng.random((n_users, n_items)) < 0.15).astype(float)
    dense[::5] = 0.0
    dtype = np.dtype(request.param)
    factors = FactorModel(user_factors.astype(dtype), item_factors.astype(dtype))
    # One chunk holds every user set below: a BLAS product's last bits can
    # depend on the block's row count, and the reference scores in one call.
    return TopNEngine.from_factors(
        factors, InteractionMatrix.from_dense(dense), chunk_size=128, pipeline=False
    )


def _user_sets():
    rng = np.random.default_rng(7)
    return {
        "none": np.arange(0),
        "one": np.array([13]),
        "one-empty-row": np.array([5]),
        "four": np.array([41, 3, 77, 20]),
        "four-contiguous": np.arange(4, 8),
        # Either side of the row count at which the mask becomes a scatter.
        "eight": np.array([8, 70, 2, 33, 5, 61, 19, 40]),
        "nine": np.array([8, 70, 2, 33, 5, 61, 19, 40, 0]),
        "nine-contiguous": np.arange(30, 39),
        "contiguous": np.arange(17, 66),
        "contiguous-from-zero": np.arange(90),
        "random": rng.permutation(90)[:40],
        "duplicates": rng.integers(0, 90, size=50),
        "descending": np.arange(60, 20, -1),
    }


class TestKernelParity:
    @pytest.mark.parametrize("name", list(_user_sets()))
    def test_block_equals_reference(self, kernel_engine, name):
        engine = kernel_engine
        users = _user_sets()[name]
        csr = engine.train_matrix.csr()
        want = _reference_neg_scores(engine, users)
        _reference_mask(want, users, csr)
        got = engine._neg_scores_pooled(users)
        try:
            engine._mask_seen(got, users, csr)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)  # infinities included
        finally:
            engine.pool.release(got)

    @pytest.mark.parametrize("name", list(_user_sets()))
    def test_topn_equals_selection_of_the_reference_block(self, kernel_engine, name):
        engine = kernel_engine
        users = _user_sets()[name]
        csr = engine.train_matrix.csr()
        block = _reference_neg_scores(engine, users)
        raw = np.negative(block)
        _reference_mask(block, users, csr)
        n = 9
        want_items = np.full((len(users), n), -1, dtype=np.int32)
        want_lengths = np.empty(len(users), dtype=np.int32)
        if len(users):
            TopNEngine._select_rows(block, n, want_items, want_lengths, None, row0=0)
        # Array, list and tuple inputs take different conversions in topn.
        for form in (users, users.tolist(), tuple(users.tolist())):
            got = engine.topn(form, n_items=n, with_scores=True)
            assert np.array_equal(got.items, want_items)
            assert np.array_equal(got.lengths, want_lengths)
        # Scores are the bits of 1 - exp(-aff), the sign of zero included:
        # a zero affinity scores -0.0 on both paths (the negation of the
        # +0.0 that exp(-0) - 1 leaves).
        for row, (items, scores) in enumerate(zip(got, got.score_rows())):
            want_scores = raw[row, items]
            assert np.array_equal(_bits(scores), _bits(want_scores))
            assert np.array_equal(np.signbit(scores), np.signbit(want_scores))

    def test_zero_affinity_rows_are_exercised(self, kernel_engine):
        # Guards the fixture: the sign-of-zero case above must not be vacuous.
        users = np.arange(10)
        result = kernel_engine.topn(users, n_items=5, with_scores=True)
        scores = np.concatenate(result.score_rows())
        assert scores.size and not scores.any()
        assert np.signbit(scores).all()

    def test_rank_scored_on_a_read_only_strided_block(self, kernel_engine):
        engine = kernel_engine
        rng = np.random.default_rng(3)
        wide = rng.random((23, 2 * engine.n_items)).astype(engine.serving_dtype)
        scores = wide[:, ::2]
        scores.flags.writeable = False
        assert not scores.flags.c_contiguous
        seen = sp.random(23, engine.n_items, density=0.2, random_state=9, format="csr")
        block = np.negative(scores)
        _reference_mask(block, np.arange(23), seen)
        want_items = np.full((23, 8), -1, dtype=np.int32)
        want_lengths = np.empty(23, dtype=np.int32)
        TopNEngine._select_rows(block, 8, want_items, want_lengths, None, row0=0)
        kept = scores.copy()
        got = engine.rank_scored(scores, n_items=8, seen=seen)
        assert np.array_equal(got.items, want_items)
        assert np.array_equal(got.lengths, want_lengths)
        assert np.array_equal(scores, kept)

    def test_rank_scored_writable_strided_block(self, kernel_engine):
        # The flat scatter needs a C-contiguous block; a strided one the
        # caller gave up is therefore ranked from a pooled copy.
        engine = kernel_engine
        rng = np.random.default_rng(4)
        wide = rng.random((12, 2 * engine.n_items)).astype(engine.serving_dtype)
        seen = sp.random(12, engine.n_items, density=0.2, random_state=2, format="csr")
        want = engine.rank_scored(wide[:, ::2].copy(), n_items=6, seen=seen)
        got = engine.rank_scored(wide[:, ::2], n_items=6, seen=seen, writable=True)
        assert got == want


# --------------------------------------------------------------------------- #
# Prefetch executor fork hygiene
# --------------------------------------------------------------------------- #
class TestPrefetchForkSafety:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires fork")
    def test_child_does_not_inherit_executor(self, fitted_movielens_model):
        engine = TopNEngine.from_model(fitted_movielens_model, chunk_size=16, pipeline=True)
        engine.topn(range(60), n_items=5)  # warm the executor
        assert engine_module._PREFETCH is not None
        pid = os.fork()
        if pid == 0:  # child
            status = 1
            try:
                if engine_module._PREFETCH is None:
                    child = TopNEngine.from_model(
                        fitted_movielens_model, chunk_size=16, pipeline=True
                    )
                    child.topn(range(60), n_items=5)
                    status = 0
            finally:
                os._exit(status)
        _, raw_status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(raw_status) == 0
