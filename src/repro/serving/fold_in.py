"""Fold-in of unseen users: cold-start serving without refitting.

A deployed nightly batch (Section VIII) constantly meets clients that were
not in the last training run.  Refitting the whole model per new client is
out of the question; the standard factor-model answer is *fold-in*: hold the
fitted item factors fixed and solve the single-user subproblem for the new
interaction vector.

For the OCuLaR objective that subproblem is convex (the positive-example
term ``-log(1 - exp(-<f, v_i>))`` is convex in ``f`` and the unknown and
penalty terms are linear/quadratic), so a few projected-gradient sweeps with
Armijo backtracking — the exact machinery of training, with the same fixed
constants (:mod:`repro.core.objective`) — reach the block optimum.  Only the
regularisation is read off the model.  The sweeps run the vectorised kernel
(:class:`~repro.core.backends.VectorizedBackend`) on the calling thread,
whatever backend the model trained with: each batch is one K-dimensional
subproblem per row, far cheaper than a dispatch to a worker pool, and every
backend sweeps bit-identically to the vectorised one.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.backends import SweepSide, VectorizedBackend
from repro.core.factors import FactorModel
from repro.core.optimizer import check_binary
from repro.data.interactions import InteractionMatrix, one_class_csr
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.utils.validation import check_non_negative_float, check_positive_int

InteractionsLike = Union[sp.spmatrix, InteractionMatrix, Sequence[Sequence[int]], np.ndarray]


def _interactions_to_csr(
    interactions: InteractionsLike, n_items: int, entity: str = "item"
) -> sp.csr_matrix:
    """Normalise the accepted interaction forms to a binary CSR of width ``n_items``.

    Every form ends in :func:`~repro.data.interactions.one_class_csr`, the
    step :class:`InteractionMatrix` runs too, so both accept and refuse the
    same values.

    ``entity`` names what the columns are in error messages — ``"item"`` for
    the user fold-in, ``"user"`` for the symmetric item fold-in.
    """
    if isinstance(interactions, InteractionMatrix):
        csr = interactions.csr().copy()
    elif sp.issparse(interactions):
        # A copy: a float64 CSR input would otherwise share its buffers.
        csr = sp.csr_matrix(interactions, dtype=np.float64, copy=True)
    elif isinstance(interactions, np.ndarray) and interactions.ndim == 2:
        # A dense 0/1 matrix of shape (m, n_items), like the sparse form —
        # must not be mistaken for per-user lists of item indices.
        csr = sp.csr_matrix(np.asarray(interactions, dtype=np.float64))
    else:
        rows: list[int] = []
        cols: list[int] = []
        item_lists = list(interactions)
        for row, items in enumerate(item_lists):
            try:
                columns = np.asarray(items, dtype=np.int64).ravel()
            except OverflowError as error:  # an index no int64 holds
                raise DataError(
                    f"interaction {entity} index out of range [0, {n_items})"
                ) from error
            for item in columns:
                item = int(item)
                if not 0 <= item < n_items:
                    raise DataError(
                        f"interaction {entity} index {item} out of range [0, {n_items})"
                    )
                rows.append(row)
                cols.append(item)
        csr = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(len(item_lists), n_items)
        )
    if csr.shape[1] != n_items:
        raise DataError(
            f"interaction vectors have {csr.shape[1]} {entity}s, the model has {n_items}"
        )
    if csr.nnz and (csr.indices.min() < 0 or csr.indices.max() >= n_items):
        raise DataError(f"interaction {entity} indices out of range")
    return one_class_csr(csr)


#: Exact zeros of an :func:`extend_factors` seed are lifted to this fraction
#: of the mean positive entry of their factor block.
INTERIOR_LIFT = 0.01


def _fitted_factors(model, caller: str) -> FactorModel:
    factors = getattr(model, "factors_", None)
    if not isinstance(factors, FactorModel):
        raise NotFittedError(f"{caller} requires a fitted factor model")
    return factors


def _solver_constants(model) -> dict:
    """The regularisation ``model`` trained with (the line search's Armijo
    constants are fixed, in :mod:`repro.core.objective`)."""
    return dict(regularization=getattr(model, "regularization", 0.0))


#: LRU cache of prebuilt fold-in sweep sides.  A serving process that folds
#: many small batches against the same item factors frequently re-presents
#: identical interaction batches (retries, polling clients, fixed evaluation
#: cohorts); rebuilding the ``SweepSide`` costs O(nnz) per call, so identical
#: batches reuse the prior plan instead.  Keyed on a content digest of the
#: batch's CSR arrays plus the training dtype, so any change to the
#: interactions (or a float32 vs float64 model) misses cleanly.
#:
#: The cache is shared by every thread of a serving runtime, so all access
#: goes through :data:`_SIDE_CACHE_LOCK` — a plain dict-based LRU corrupts
#: (lost inserts, ``move_to_end`` on evicted keys) when concurrent
#: ``fold_in_users`` calls race on it.
_SIDE_CACHE: "OrderedDict[Tuple, SweepSide]" = OrderedDict()
_SIDE_CACHE_SIZE = 16
_SIDE_CACHE_LOCK = threading.Lock()


def _side_cache_key(interactions: sp.csr_matrix, dtype: np.dtype) -> Tuple:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(interactions.indptr).tobytes())
    digest.update(np.ascontiguousarray(interactions.indices).tobytes())
    digest.update(np.ascontiguousarray(interactions.data).tobytes())
    return (tuple(interactions.shape), np.dtype(dtype).str, digest.hexdigest())


def _cached_sweep_side(interactions: sp.csr_matrix, dtype: np.dtype) -> SweepSide:
    """Return the sweep side for a fold-in batch, reusing identical batches.

    Thread-safe: the digest is computed outside the lock (pure function of
    the inputs), the lookup/insert/evict critical sections hold it.  Two
    threads presenting the same new batch may both build a side; the second
    insert simply wins — both sides are equivalent, so correctness is
    unaffected and the build happens outside the lock.

    Cached sides also carry a warm
    :class:`~repro.core.backends.workspace.SweepWorkspaceStore`: repeated
    fold-ins of an identical batch (the cold-start retry pattern) reuse the
    pooled sweep arenas, so the per-sweep allocation cost is paid once per
    cached side, not once per request.  The store hands arenas out
    exclusively, so concurrent fold-ins through one cached side stay isolated.
    """
    key = _side_cache_key(interactions, dtype)
    with _SIDE_CACHE_LOCK:
        side = _SIDE_CACHE.get(key)
        if side is not None:
            _SIDE_CACHE.move_to_end(key)
            return side
    # Build from a private copy: SweepSide.build may alias the caller's
    # CSR buffers, and a cached side must stay frozen at the digested
    # content even if the caller later mutates their matrix in place.
    side = SweepSide.build(interactions.copy(), dtype=dtype)
    with _SIDE_CACHE_LOCK:
        _SIDE_CACHE[key] = side
        while len(_SIDE_CACHE) > _SIDE_CACHE_SIZE:
            _SIDE_CACHE.popitem(last=False)
    return side


def clear_fold_in_plan_cache() -> None:
    """Drop every cached fold-in sweep side (e.g. between unrelated models)."""
    with _SIDE_CACHE_LOCK:
        _SIDE_CACHE.clear()


def fold_in_factors(
    item_factors: np.ndarray,
    interactions: sp.csr_matrix,
    regularization: float,
    n_sweeps: int = 30,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """Solve the fixed-item-factor subproblem for a batch of new users.

    Parameters
    ----------
    item_factors:
        Fitted item affiliations, shape ``(n_items, K)`` — held fixed.
    interactions:
        Binary CSR of the new users' positives, shape ``(m, n_items)``:
        every stored value 1.0, as training requires (else
        :class:`~repro.exceptions.ConfigurationError`).
    regularization:
        The L2 penalty ``lambda`` the model was trained with.
    n_sweeps:
        Maximum projected-gradient steps; each sweep updates all ``m`` rows
        at once.  The subproblem is convex, so a few dozen suffice.
    tolerance:
        Early-stop threshold on the relative factor change between sweeps.

    Returns
    -------
    np.ndarray
        Non-negative folded-in user factors, shape ``(m, K)``.
    """
    # Preserve a float32 model's precision end to end; coerce anything that
    # is not already a supported float dtype to float64.
    item_factors = np.asarray(item_factors)
    if item_factors.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        item_factors = np.asarray(item_factors, dtype=float)
    if item_factors.ndim != 2:
        raise ConfigurationError("item_factors must be a 2-D array")
    regularization = check_non_negative_float(regularization, "regularization")
    check_positive_int(n_sweeps, "n_sweeps")

    n_items, n_coclusters = item_factors.shape
    interactions = sp.csr_matrix(interactions)
    if interactions.shape[1] != n_items:
        raise ConfigurationError(
            f"interactions have {interactions.shape[1]} columns, expected {n_items}"
        )
    check_binary(interactions, "fold_in_factors")
    m = interactions.shape[0]
    if m == 0:
        return np.zeros((0, n_coclusters), dtype=item_factors.dtype)

    # Start at a small interior point.  Exactly zero is infeasible (the
    # positive-term gradient ratio diverges there), and a *large* start is
    # dangerous too: the first Armijo candidate can land on exactly zero,
    # which is an absorbing artifact of the clamped objective.  A start
    # well below the typical fitted factor magnitude converges cleanly.
    mean_item = float(item_factors.mean()) if item_factors.size else 0.0
    scale = 1.0 / max(n_coclusters * max(mean_item, 1e-12), 1e-6)
    factors = np.full(
        (m, n_coclusters), min(max(scale, 1e-3), 0.1), dtype=item_factors.dtype
    )

    # The sweep structure of the fixed interaction matrix is static across
    # the convex sweeps — and across *calls* presenting the same batch, so
    # it comes from the keyed plan cache rather than being rebuilt.
    side = _cached_sweep_side(interactions, factors.dtype)
    kernel = VectorizedBackend()
    for _ in range(n_sweeps):
        previous = factors
        factors, _ = kernel.sweep(
            None, factors, item_factors, regularization=regularization, plan=side
        )
        change = np.linalg.norm(factors - previous)
        reference = max(np.linalg.norm(previous), 1.0)
        if change / reference < tolerance:
            break
    return factors


def fold_in_users(
    model,
    interactions: InteractionsLike,
    n_sweeps: int = 30,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """Fold a batch of unseen users into a fitted OCuLaR-family model.

    Reads the regularisation off the fitted model so the subproblem matches
    the one training solved.

    Parameters
    ----------
    model:
        A fitted model exposing ``factors_`` (OCuLaR, R-OCuLaR, ...).
    interactions:
        The new users' positives: a list of item-index sequences, a sparse
        matrix of shape ``(m, n_items)``, or an :class:`InteractionMatrix`.
    n_sweeps, tolerance:
        See :func:`fold_in_factors`.

    Returns
    -------
    np.ndarray
        Folded user factors, shape ``(m, K)``.
    """
    factors = _fitted_factors(model, "fold_in_users")
    csr = _interactions_to_csr(interactions, factors.n_items)
    return fold_in_factors(
        factors.item_factors,
        csr,
        n_sweeps=n_sweeps, tolerance=tolerance, **_solver_constants(model),
    )


def fold_in_user(
    model,
    items: Sequence[int],
    n_sweeps: int = 30,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """Fold a single unseen user in; returns their factor vector, shape ``(K,)``."""
    return fold_in_users(model, [list(items)], n_sweeps=n_sweeps, tolerance=tolerance)[0]


def fold_in_items(
    model,
    interactions: InteractionsLike,
    n_sweeps: int = 30,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """Fold a batch of unseen *items* into a fitted OCuLaR-family model.

    The mirror of :func:`fold_in_users`: hold the fitted **user** factors
    fixed and solve the per-item convex subproblem for each new item's
    interaction vector.  The objective is symmetric in the two factor blocks
    — ``-log(1 - exp(-<f_i, f_u>))`` is the same function of whichever side
    is free — so the exact sweep machinery applies with the roles swapped.

    Parameters
    ----------
    model:
        A fitted model exposing ``factors_``.
    interactions:
        The new items' positives, *item-major*: a list of user-index
        sequences (one per new item), a sparse matrix of shape
        ``(m, n_users)``, or a dense 0/1 array of that shape.
    n_sweeps, tolerance:
        See :func:`fold_in_factors`.

    Returns
    -------
    np.ndarray
        Folded item factors, shape ``(m, K)``.
    """
    factors = _fitted_factors(model, "fold_in_items")
    csr = _interactions_to_csr(interactions, factors.n_users, entity="user")
    return fold_in_factors(
        factors.user_factors,
        csr,
        n_sweeps=n_sweeps, tolerance=tolerance, **_solver_constants(model),
    )


def extend_factors(
    model,
    matrix,
    n_sweeps: int = 30,
    tolerance: float = 1e-8,
) -> FactorModel:
    """Extend a fitted model's factors to a grown interaction matrix.

    The warm-start seed for an incremental refit: existing rows carry the
    previous generation's factors, new **user** rows are folded in against
    the old item catalogue (their interactions restricted to the old
    columns), and new **item** rows are folded in against the *extended*
    user factors — so late items see their early adopters, including
    just-folded new users.  The result is a feasible (non-negative) point of
    the training program on the grown matrix, ready for
    ``fit(..., initial_factors=...)``.

    Exact zeros in the seed are then lifted to :data:`INTERIOR_LIFT` times
    the mean positive entry of their factor block.  A converged generation
    is mostly exact zeros, and zero is an absorbing artifact of the clamped
    objective — the projected sweeps cannot regrow a coordinate whose
    (clamped) gradient is non-negative at the boundary, so restarting from
    the previous factors verbatim stalls at a partially absorbed critical
    point well above what a cold fit reaches.  A tiny interior lift restores
    trainability while staying within rounding distance of the previous
    generation.

    Parameters
    ----------
    model:
        A fitted model exposing ``factors_`` plus the ``regularization`` it
        trained with.
    matrix:
        The grown corpus — an :class:`InteractionMatrix` (e.g. from
        :meth:`~repro.data.interactions.InteractionMatrix.extended_with`) or
        CSR whose shape is at least the fitted one in both dimensions; a
        CSR of counts is binarised like :class:`InteractionMatrix` input.
    n_sweeps, tolerance:
        Fold-in sweep budget, as in :func:`fold_in_factors`.

    Returns
    -------
    FactorModel
        Factors of the grown shape ``(matrix.n_users, K)`` / ``(matrix.n_items, K)``.
    """
    factors = _fitted_factors(model, "extend_factors")
    if isinstance(matrix, InteractionMatrix):
        csr = matrix.csr()
    else:
        csr = one_class_csr(sp.csr_matrix(matrix, dtype=np.float64, copy=True))
    n_users, n_items = csr.shape
    if n_users < factors.n_users or n_items < factors.n_items:
        raise ConfigurationError(
            f"extend_factors needs a matrix at least as large as the fitted one; "
            f"got ({n_users}, {n_items}) vs fitted ({factors.n_users}, {factors.n_items})"
        )
    dtype = factors.user_factors.dtype
    n_coclusters = factors.user_factors.shape[1]

    user_out = np.zeros((n_users, n_coclusters), dtype=dtype)
    user_out[: factors.n_users] = factors.user_factors
    if n_users > factors.n_users:
        # New users' positives restricted to the items the model knows.
        new_user_rows = sp.csr_matrix(csr[factors.n_users :, : factors.n_items])
        user_out[factors.n_users :] = fold_in_users(
            model, new_user_rows, n_sweeps=n_sweeps, tolerance=tolerance
        ).astype(dtype, copy=False)

    item_out = np.zeros((n_items, n_coclusters), dtype=dtype)
    item_out[: factors.n_items] = factors.item_factors
    if n_items > factors.n_items:
        # New items' positives, item-major, against the extended user block.
        new_item_rows = sp.csr_matrix(csr[:, factors.n_items :].T)
        item_out[factors.n_items :] = fold_in_factors(
            user_out,
            new_item_rows,
            n_sweeps=n_sweeps, tolerance=tolerance, **_solver_constants(model),
        ).astype(dtype, copy=False)

    for block in (user_out, item_out):
        positive = block[block > 0]
        if positive.size:
            np.maximum(block, INTERIOR_LIFT * float(positive.mean()), out=block)

    return FactorModel(user_out, item_out)


def recommend_folded(
    engine,
    interactions: InteractionsLike,
    model,
    n_items: int = 10,
    exclude_seen: bool = True,
    n_sweeps: int = 30,
    tolerance: float = 1e-8,
):
    """Serve top-N lists for users that are not in the training matrix.

    Folds the interaction vectors into the engine's factor model and ranks
    with the same chunked kernel as in-matrix serving, masking the provided
    interactions the way training positives are masked for known users.
    Returns a flat :class:`~repro.serving.results.TopNResult` aligned with
    the interaction rows.

    Parameters
    ----------
    engine:
        A :class:`~repro.serving.engine.TopNEngine` built on the factor path.
    interactions:
        The cold users' positives (see :func:`fold_in_users`).
    model:
        The fitted model the engine serves (or its publish-time solver
        snapshot): the fold-in reads its factors and solver constants
        (regularisation, line-search).
    """
    if engine.factors is None:
        raise ConfigurationError("cold-start serving requires a factor-path TopNEngine")
    csr = _interactions_to_csr(interactions, engine.n_items)
    scores = fold_in_scores(engine, csr, model=model, n_sweeps=n_sweeps, tolerance=tolerance)
    # The score block was computed for this call — hand its buffer to the
    # ranking kernel (``writable``) instead of paying a full negated copy.
    return engine.rank_scored(
        scores, n_items=n_items, seen=csr if exclude_seen else None, writable=True
    )


def fold_in_scores(
    engine,
    csr: sp.csr_matrix,
    model,
    n_sweeps: int = 30,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """Fold a cold-start CSR batch in and return its dense score block.

    The fold-and-score half of :func:`recommend_folded`, shared with the
    runtime's cold-start path (which ranks with the request's score
    option).  ``csr`` must already be validated against the catalogue of
    ``engine``, the engine the block is ranked on
    (:func:`_interactions_to_csr`); the scores come from ``model`` alone.
    """
    folded = fold_in_users(model, csr, n_sweeps=n_sweeps, tolerance=tolerance)
    # Score with the same item factors the users were folded against
    # (``model.factors_``).  For bias-extended models these are the plain
    # co-cluster columns: cold users have no learned bias, so cold-start
    # serving ranks by pure co-cluster affinity.
    item_factors = model.factors_.item_factors
    # One allocation (the matmul result); the probability transform runs in
    # place on it.  ``1 - exp(-aff)`` computed via negate/exp/subtract is
    # bitwise the straightforward expression.
    affinities = folded @ item_factors.T
    np.negative(affinities, out=affinities)
    np.exp(affinities, out=affinities)
    np.subtract(1.0, affinities, out=affinities)
    return affinities
