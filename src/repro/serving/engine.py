"""Chunked top-N serving engine.

The paper's deployment (Section VIII) is a nightly batch job: score every
client against every product, rank, and ship the top lists to the sellers.
Doing that one user at a time — a Python loop over
:meth:`~repro.base.Recommender.recommend` — spends almost all of its time in
per-call overhead.  :class:`TopNEngine` instead scores users in configurable
chunks:

* one BLAS matrix product per chunk against the item factors (falling back
  to :meth:`~repro.base.Recommender.score_users` for models without a
  factor representation, so every recommender is served by the same path),
* already-seen training items masked by one flat scatter built from the CSR
  structure (``indptr``/``indices``), never densifying the interaction
  matrix,
* top-N selection with :func:`numpy.argpartition` followed by a stable sort
  of only the selected entries, instead of a full per-row sort.

Every chunk's dense score block comes from a
:class:`~repro.serving.buffers.ScoreBufferPool` (the gather of the chunk's
user factors too), the chunk size autotunes so ``chunk × n_items ×
itemsize`` stays inside a fixed 128 MiB budget
(:data:`~repro.serving.buffers.SCORE_BUFFER_BUDGET_BYTES`), and results land
directly in the flat :class:`~repro.serving.results.TopNResult` blocks
instead of per-user list objects.  The hot path is still not
allocation-free: :func:`numpy.argpartition` returns a fresh
``(chunk, n_items)`` int64 array per chunk — 9.8 MB for a 1024-user chunk
on a 1200-item catalogue, as large as the float64 score block — next to
the selection's ``(chunk, n)`` arrays and the mask's index arrays (as long
as the chunk has training positives).  The end-to-end benchmark's allocator
pin (glibc keeps freed blocks on its heap) hides the page-fault cost of
those fresh arrays; its ``alloc.*`` layer metrics exist to show what the
pin hides.  On
multi-core hosts the BLAS product of chunk ``k+1`` overlaps the
masking/selection of chunk ``k`` on a prefetch thread (NumPy releases the
GIL inside the gemm) unless the engine is built with ``pipeline=False``;
chunks are independent and write disjoint output rows, so pipelined
rankings are bitwise the serial ones.

Engines can also serve at a reduced precision: ``dtype="float32"`` casts
the factor matrices once at construction and scores every chunk at half the
memory bandwidth.  The default serving dtype is the factors' own, keeping
the float64 path bit-exact against the per-user reference.

The selection kernel is operation-for-operation the one used by
:meth:`Recommender.recommend`, and the post-matmul arithmetic is bitwise
equivalent, so the chunked rankings match the per-user ones except in the
measure-zero case where two scores land within one unit-in-the-last-place
of each other and the BLAS gemm/gemv accumulation orders disagree.  Exact
ties (e.g. both scores exactly 0) are bitwise identical in both paths and
resolve identically.  The test-suite asserts exact agreement on all
fixtures.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.core.factors import FactorModel
from repro.data.interactions import InteractionMatrix
from repro.exceptions import ConfigurationError, NotFittedError
from repro.serving.buffers import SCORE_BUFFER_BUDGET_BYTES, ScoreBufferPool
from repro.serving.results import TopNResult
from repro.utils.validation import as_index_array, check_positive_int

#: Default number of users scored per BLAS call — an upper bound; the
#: effective chunk additionally honours the score-buffer byte budget (see
#: :meth:`TopNEngine.effective_chunk_size`).
DEFAULT_CHUNK_SIZE = 1024

#: Serving dtypes the engine accepts (scores are ranked, not summed, so
#: half-width floats keep ranking quality; see the float32 parity tests).
_SERVING_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

#: Calls of at most this many rows mask by direct slice writes: building the
#: flat scatter costs more than the loop it replaces until about eight rows.
_DIRECT_MASK_ROWS = 8


# --------------------------------------------------------------------------- #
# Shared prefetch executor for pipelined chunking
# --------------------------------------------------------------------------- #
# One small module-level pool rather than a thread per engine: test suites
# and notebooks create hundreds of engines, and the prefetch stage is a
# single GIL-releasing BLAS call, so a couple of threads serve everyone.
_PREFETCH_LOCK = threading.Lock()
_PREFETCH: Optional[ThreadPoolExecutor] = None


def _prefetch_executor() -> ThreadPoolExecutor:
    global _PREFETCH
    if _PREFETCH is None:
        with _PREFETCH_LOCK:
            if _PREFETCH is None:
                workers = max(1, min(4, os.cpu_count() or 1))
                _PREFETCH = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="topn-prefetch"
                )
    return _PREFETCH


def _reset_prefetch_after_fork() -> None:
    # A forked child must not inherit the parent's executor threads (they do
    # not exist in the child) or a lock captured mid-acquire.
    global _PREFETCH, _PREFETCH_LOCK
    _PREFETCH = None
    _PREFETCH_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix in CI
    os.register_at_fork(after_in_child=_reset_prefetch_after_fork)


class TopNEngine:
    """Vectorised batch top-N ranking over a fitted recommender.

    Construct with :meth:`from_model` (any fitted
    :class:`~repro.base.Recommender`) or :meth:`from_factors` (a
    :class:`~repro.core.factors.FactorModel` plus its training matrix, the
    fast path used for serving and fold-in cold-start).

    Parameters
    ----------
    dtype:
        Serving dtype (``"float32"`` / ``"float64"``).  ``None`` (default)
        serves in the factors' own dtype — bit-exact.  ``"float32"`` on
        float64-trained factors casts serving copies once and scores at
        half bandwidth; rankings then agree with float64 up to score ties
        within float32 resolution (see the parity tests).
    pipeline:
        ``True``/``False`` forces pipelined chunking on/off; ``None``
        (default) enables it on multi-core hosts for factor-path engines.

    The engine holds only plain arrays / sparse matrices (the buffer pool
    resets on pickling), so it pickles and can be shipped to worker
    processes by :func:`repro.serving.batch.serve_sharded`.
    """

    def __init__(
        self,
        train_matrix: InteractionMatrix,
        factors: Optional[FactorModel] = None,
        model=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        dtype: Optional[Union[str, np.dtype]] = None,
        pipeline: Optional[bool] = None,
    ) -> None:
        if factors is None and model is None:
            raise ConfigurationError("TopNEngine needs a FactorModel or a fitted model")
        if factors is not None and factors.n_items != train_matrix.n_items:
            raise ConfigurationError(
                f"factors have {factors.n_items} items but the training matrix has "
                f"{train_matrix.n_items}"
            )
        self.train_matrix = train_matrix
        self.factors = factors
        self.model = model
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        if dtype is None:
            serving_dtype = (
                factors.dtype if factors is not None else np.dtype(np.float64)
            )
        else:
            serving_dtype = np.dtype(dtype)
        if np.dtype(serving_dtype) not in _SERVING_DTYPES:
            raise ConfigurationError(
                f"serving dtype must be float32 or float64, got {serving_dtype}"
            )
        self.serving_dtype = np.dtype(serving_dtype)
        if factors is not None and factors.dtype != self.serving_dtype:
            # One cast at construction buys half-bandwidth scoring on every
            # chunk; the original factors stay untouched (fold-in and
            # publication of the training-precision model read them).
            self._serving_user_factors = factors.user_factors.astype(self.serving_dtype)
            self._serving_item_factors = factors.item_factors.astype(self.serving_dtype)
        elif factors is not None:
            self._serving_user_factors = factors.user_factors
            self._serving_item_factors = factors.item_factors
        else:
            self._serving_user_factors = None
            self._serving_item_factors = None
        self.pipeline = pipeline
        self.pool = ScoreBufferPool()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_model(
        cls,
        model,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        dtype: Optional[Union[str, np.dtype]] = None,
        pipeline: Optional[bool] = None,
    ) -> "TopNEngine":
        """Build an engine for any fitted recommender.

        Models declaring ``serving_factors_`` — a :class:`FactorModel` whose
        probability formula is exactly the model's scoring (OCuLaR and its
        variants, including the bias-augmented factors of ``BiasedOCuLaR``)
        — are served through the direct BLAS path; everything else is scored
        chunk-wise via ``model.score_users``.
        """
        if not getattr(model, "is_fitted", False):
            raise NotFittedError("TopNEngine requires a fitted recommender")
        settings = dict(chunk_size=chunk_size, dtype=dtype, pipeline=pipeline)
        factors = getattr(model, "serving_factors_", None)
        if isinstance(factors, FactorModel):
            return cls(model.train_matrix, factors=factors, **settings)
        return cls(model.train_matrix, model=model, **settings)

    @classmethod
    def from_factors(
        cls,
        factors: FactorModel,
        train_matrix: InteractionMatrix,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        dtype: Optional[Union[str, np.dtype]] = None,
        pipeline: Optional[bool] = None,
    ) -> "TopNEngine":
        """Build an engine directly from factor matrices (the serving path)."""
        return cls(
            train_matrix, factors=factors, chunk_size=chunk_size, dtype=dtype, pipeline=pipeline
        )

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    @property
    def n_items(self) -> int:
        """Catalogue size."""
        return self.train_matrix.n_items

    @property
    def serving_user_factors(self) -> Optional[np.ndarray]:
        """User factors in the serving dtype (factor path only)."""
        return self._serving_user_factors

    @property
    def serving_item_factors(self) -> Optional[np.ndarray]:
        """Item factors in the serving dtype (factor path only)."""
        return self._serving_item_factors

    def effective_chunk_size(self) -> int:
        """Rows per chunk after the score-buffer budget cap.

        ``min(chunk_size, floor(budget / row_bytes))`` with a floor of one
        row, where ``row_bytes = n_items × itemsize`` of the serving dtype.
        A 100k-item float64 catalogue under the 128 MiB budget serves
        ~160-row chunks instead of 800 MB blocks.
        """
        row_bytes = max(1, self.n_items) * self.serving_dtype.itemsize
        return max(1, min(self.chunk_size, SCORE_BUFFER_BUDGET_BYTES // row_bytes))

    def score_chunk(self, users: np.ndarray) -> np.ndarray:
        """Dense score block for a chunk of users, shape ``(len(users), n_items)``.

        The factor path computes ``1 - exp(-F_u[users] @ F_i^T)`` in one
        matrix product; the generic path delegates to the model's
        ``score_users``.  The caller owns the returned block.
        """
        users = np.asarray(users, dtype=np.int64)
        neg = self._neg_scores_pooled(users)
        block = np.negative(neg)
        self.pool.release(neg)
        return block

    def _neg_scores_pooled(self, users: np.ndarray) -> np.ndarray:
        """*Negated* score block (the form the selection kernel consumes).

        The factor path gathers the chunk's user factors and computes
        ``exp(-aff) - 1`` with in-place ufuncs into a pooled block: one BLAS
        product, zero fresh allocations in steady state.  The sign goes on
        the gathered ``(rows, K)`` factors, not on the ``(rows, n_items)``
        product: rounding to nearest is symmetric, so ``(-g) @ F.T`` is
        bitwise ``-(g @ F.T)`` (fused multiply-adds included) except for the
        sign of an exact zero, which ``exp`` maps to the same ``1.0``.  IEEE
        subtraction is antisymmetric (``fl(e - 1) == -fl(1 - e)`` exactly),
        so the block is bitwise the negation of the probability
        ``1 - exp(-aff)`` that the per-user reference path ranks by.  The
        caller must release the returned block back to :attr:`pool`.
        """
        rows = users.shape[0]
        if self._serving_user_factors is not None:
            gather = self.pool.take(
                rows, self._serving_user_factors.shape[1], self.serving_dtype
            )
            np.take(self._serving_user_factors, users, axis=0, out=gather)
            np.negative(gather, out=gather)
            block = self.pool.take(rows, self.n_items, self.serving_dtype)
            np.matmul(gather, self._serving_item_factors.T, out=block)
            self.pool.release(gather)
            np.exp(block, out=block)
            np.subtract(block, 1.0, out=block)
            return block
        scores = np.asarray(self.model.score_users(users), dtype=self.serving_dtype)
        if scores.shape != (rows, self.n_items):
            raise ConfigurationError(
                f"score_users must return shape ({rows}, {self.n_items}), "
                f"got {scores.shape}"
            )
        block = self.pool.take(rows, self.n_items, self.serving_dtype)
        np.negative(scores, out=block)
        return block

    # ------------------------------------------------------------------ #
    # Ranking
    # ------------------------------------------------------------------ #
    def topn(
        self,
        users: Sequence[int],
        n_items: int = 10,
        exclude_seen: bool = True,
        with_scores: bool = False,
    ) -> TopNResult:
        """Flat top-``n_items`` rankings for many users — the one ranking entry point.

        Returns a :class:`~repro.serving.results.TopNResult` aligned with
        ``users``; rows may be shorter than ``n_items`` when a user has
        fewer unseen items than requested (exactly like
        :meth:`Recommender.recommend`, which never pads with excluded
        items).  With ``with_scores`` the ranked entries' scores ride along
        in the result's flat score block — gathered from the block already
        computed for the selection, no rescoring pass.
        """
        check_positive_int(n_items, "n_items")
        # An integer index array (the shards the runtime cuts) is taken as it is.
        user_array = as_index_array(users, "users")
        n = min(n_items, self.n_items)
        if user_array.size == 0:
            return TopNResult.empty(width=n, with_scores=with_scores)
        if user_array.min() < 0 or user_array.max() >= self.train_matrix.n_users:
            raise ConfigurationError(
                f"user indices must lie in [0, {self.train_matrix.n_users})"
            )
        size = self.effective_chunk_size()
        total = int(user_array.size)
        out_items = np.full((total, n), -1, dtype=np.int32)
        out_lengths = np.empty(total, dtype=np.int32)
        out_scores = (
            np.empty((total, n), dtype=self.serving_dtype) if with_scores else None
        )
        csr = self.train_matrix.csr() if exclude_seen else None
        starts = list(range(0, total, size))
        if self._pipelined() and len(starts) > 1:
            executor = _prefetch_executor()
            future = executor.submit(
                self._neg_scores_pooled, user_array[starts[0] : starts[0] + size]
            )
            for index, start in enumerate(starts):
                neg_scores = future.result()
                if index + 1 < len(starts):
                    nxt = starts[index + 1]
                    future = executor.submit(
                        self._neg_scores_pooled, user_array[nxt : nxt + size]
                    )
                chunk = user_array[start : start + size]
                self._select_chunk(
                    neg_scores, chunk, csr, start, out_items, out_lengths, out_scores
                )
                self.pool.release(neg_scores)
        else:
            for start in starts:
                chunk = user_array[start : start + size]
                neg_scores = self._neg_scores_pooled(chunk)
                self._select_chunk(
                    neg_scores, chunk, csr, start, out_items, out_lengths, out_scores
                )
                self.pool.release(neg_scores)
        return TopNResult(out_items, out_lengths, out_scores)

    def rank_scored(
        self,
        scores: np.ndarray,
        n_items: int = 10,
        seen: Optional[sp.csr_matrix] = None,
        with_scores: bool = False,
        writable: bool = False,
    ) -> TopNResult:
        """Rank externally computed score rows (the fold-in serving path).

        Returns a :class:`~repro.serving.results.TopNResult` aligned with
        the score rows, like :meth:`topn`.

        Parameters
        ----------
        scores:
            Dense score block, shape ``(n_rows, n_items)``.  Not modified
            unless ``writable`` is set.
        n_items:
            List length.
        seen:
            Optional CSR matrix of shape ``(n_rows, n_items)`` whose
            non-zeros are excluded from the rankings — for fold-in users
            this is their interaction vector, playing the role the training
            row plays for in-matrix users.
        with_scores:
            Also return the score of every ranked entry, in the result's
            flat score block.
        writable:
            The caller owns ``scores`` and the engine may negate it in
            place instead of copying into a pooled buffer — the zero-copy
            path for freshly computed fold-in blocks.  The array's contents
            are destroyed.
        """
        check_positive_int(n_items, "n_items")
        raw = np.asarray(scores)
        if raw.dtype not in _SERVING_DTYPES:
            raw = raw.astype(np.float64)
            writable = True  # the cast copy is ours to negate
        if raw.ndim != 2 or raw.shape[1] != self.n_items:
            raise ConfigurationError(
                f"scores must have shape (n_rows, {self.n_items}), got {raw.shape}"
            )
        n_rows = raw.shape[0]
        n = min(n_items, self.n_items)
        if seen is not None:
            seen = sp.csr_matrix(seen)
            if seen.shape != raw.shape:
                raise ConfigurationError(
                    f"seen matrix shape {seen.shape} does not match scores {raw.shape}"
                )
        if n_rows == 0:
            return TopNResult.empty(width=n, with_scores=with_scores)
        if writable and raw.flags.writeable and raw.flags.c_contiguous:
            neg_scores = np.negative(raw, out=raw)
            pooled = None
        else:
            pooled = self.pool.take(n_rows, self.n_items, raw.dtype)
            neg_scores = np.negative(raw, out=pooled)
        if seen is not None:
            self._mask_seen(neg_scores, np.arange(n_rows), seen)
        out_items = np.full((n_rows, n), -1, dtype=np.int32)
        out_lengths = np.empty(n_rows, dtype=np.int32)
        out_scores = np.empty((n_rows, n), dtype=neg_scores.dtype) if with_scores else None
        self._select_rows(neg_scores, n, out_items, out_lengths, out_scores, row0=0)
        if pooled is not None:
            self.pool.release(pooled)
        return TopNResult(out_items, out_lengths, out_scores)

    # ------------------------------------------------------------------ #
    # Kernels
    # ------------------------------------------------------------------ #
    def _pipelined(self) -> bool:
        """Whether a call overlaps scoring with selection.

        The engine's construction flag, else auto: multi-core hosts pipeline
        factor-path engines (the model path may not be thread-safe, so it
        never pipelines implicitly).
        """
        if self.pipeline is None:
            return self._serving_user_factors is not None and (os.cpu_count() or 1) > 1
        return bool(self.pipeline)

    @staticmethod
    def _mask_seen(neg_scores: np.ndarray, rows: np.ndarray, csr: sp.csr_matrix) -> None:
        """Write ``+inf`` over the training positives of ``rows``, in place.

        ``neg_scores`` holds negated scores, so ``+inf`` here plays the role
        ``-inf`` plays in the per-user reference path.  The positives come
        straight out of the CSR ``indptr``/``indices`` arrays — no densified
        mask — and go in as one scatter through the flat view of the block,
        which must be C-contiguous (pooled blocks are).  An ascending
        contiguous row range, which every shard of a batch pass is, reads
        its columns as a single ``indices`` view; any other row set gathers
        them.  The temporaries are ``len(rows)``-long pointer arrays and
        ``nnz(rows)``-long index arrays.  A call of a few rows writes each
        row's slice directly instead.
        """
        indptr, indices = csr.indptr, csr.indices
        rows = np.asarray(rows, dtype=np.int64)
        n_rows = rows.shape[0]
        if n_rows <= _DIRECT_MASK_ROWS:
            for i, row in enumerate(rows.tolist()):
                start, stop = indptr[row], indptr[row + 1]
                if start != stop:
                    neg_scores[i, indices[start:stop]] = np.inf
            return
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
        if (np.diff(rows) == 1).all():
            columns = indices[starts[0] : indptr[rows[-1] + 1]]
        else:
            ends = np.cumsum(counts)
            columns = indices[
                np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
            ]
        flat = np.repeat(np.arange(n_rows) * neg_scores.shape[1], counts)
        flat += columns
        neg_scores.reshape(-1)[flat] = np.inf

    def _select_chunk(
        self,
        neg_scores: np.ndarray,
        chunk_users: np.ndarray,
        csr: Optional[sp.csr_matrix],
        row0: int,
        out_items: np.ndarray,
        out_lengths: np.ndarray,
        out_scores: Optional[np.ndarray],
    ) -> None:
        """Mask and select one scored chunk into the flat output blocks."""
        if csr is not None:
            self._mask_seen(neg_scores, chunk_users, csr)
        self._select_rows(neg_scores, out_items.shape[1], out_items, out_lengths, out_scores, row0)

    @staticmethod
    def _select_rows(
        neg_scores: np.ndarray,
        n: int,
        out_items: np.ndarray,
        out_lengths: np.ndarray,
        out_scores: Optional[np.ndarray],
        row0: int,
    ) -> None:
        """Per-row top-N selection, identical to ``Recommender.recommend``.

        Operates on *negated* scores: ``argpartition`` pulls the ``n``
        smallest entries of every row without a full sort (the same
        partition the reference path runs on ``-scores``), then a stable
        ascending sort orders just those entries.  Masked (``+inf``)
        entries sort to each row's tail, so a row's valid ranking is a
        prefix: its length is the finite count, and padding positions hold
        ``-1`` (items) / ``-inf`` (scores).  Results are written into the
        flat blocks at ``row0`` — no per-row list objects.
        """
        rows = neg_scores.shape[0]
        top = np.argpartition(neg_scores, n - 1, axis=1)[:, :n]
        top_scores = np.take_along_axis(neg_scores, top, axis=1)
        order = np.argsort(top_scores, axis=1, kind="stable")
        ranked = np.take_along_axis(top, order, axis=1)
        ranked_scores = np.take_along_axis(top_scores, order, axis=1)
        finite = np.isfinite(ranked_scores)
        block = out_items[row0 : row0 + rows]
        block[...] = ranked
        out_lengths[row0 : row0 + rows] = finite.sum(axis=1, dtype=np.int32)
        if not finite.all():
            block[~finite] = -1
        if out_scores is not None:
            np.negative(ranked_scores, out=ranked_scores)
            out_scores[row0 : row0 + rows] = ranked_scores

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        path = "factors" if self.factors is not None else type(self.model).__name__
        return (
            f"TopNEngine(path={path!r}, n_users={self.train_matrix.n_users}, "
            f"n_items={self.n_items}, chunk_size={self.chunk_size}, "
            f"dtype={self.serving_dtype.name})"
        )
