"""Pooled sweep workspaces: legacy bit-exactness, lifecycle, dtype rules.

Four contracts of the zero-allocation training rewrite:

* **Bit-exactness** — the pooled kernels produce float64 factors
  ``np.array_equal`` to the pre-rewrite allocating kernel (frozen verbatim
  below as ``_LegacySweepBackend``) at every shard count, under every
  executor, weighted and unweighted.
* **Zero allocations after warm-up** — repeated sweeps through one plan
  reuse their arenas; the store counters are the witness.
* **Lifecycle** — workspaces live exactly as long as their plan: reused
  across the sweeps of a fit, never leaked across fits, rebuilt fresh in
  process-executor workers (stores pickle empty), handed out exclusively
  under concurrency.
* **Dtype consistency** — float32 training keeps objective reductions in
  float32 (the old ``np.bincount`` / ``np.zeros`` silently upcast), and the
  in-place objective helpers are bitwise equal to their allocating forms.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Tuple

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backends import (
    ParallelBackend,
    SweepStats,
    SweepWorkspaceStore,
    VectorizedBackend,
    workspace,
)
from repro.core.backends.base import Backend
from repro.core.backends.plan import SweepPlan, SweepSide
from repro.core.backends.workspace import csr_matmul_into, csr_row_sums_into
from repro.core.objective import (
    ARMIJO_BETA,
    ARMIJO_SIGMA,
    MAX_BACKTRACKS,
    affinity_block_entries,
    gradient_ratio,
    gradient_ratio_into,
    relative_user_weights,
    safe_log1mexp,
    safe_log1mexp_into,
)
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.exceptions import ConfigurationError


def _random_problem(seed, n_rows=23, n_cols=14, k=4, density=0.3):
    """A reproducible sweep problem with guaranteed empty rows."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < density).astype(float)
    dense[0] = 0.0
    dense[rng.integers(1, n_rows)] = 0.0
    matrix = sp.csr_matrix(dense)
    row_factors = rng.uniform(0.05, 0.9, size=(n_rows, k))
    col_factors = rng.uniform(0.05, 0.9, size=(n_cols, k))
    row_weights = rng.uniform(0.5, 2.5, n_rows)
    return matrix, row_factors, col_factors, row_weights


def _sweep_kwargs(matrix, regularization, row_weights, weighted):
    """Sweep arguments over ``matrix``'s side, ``row_weights`` baked in if ``weighted``."""
    side = SweepSide.build(matrix, row_positive_weights=row_weights if weighted else None)
    return dict(regularization=regularization, plan=side)


# --------------------------------------------------------------------------- #
# The frozen legacy kernel
# --------------------------------------------------------------------------- #
class _LegacySweepBackend(Backend):
    """The pre-rewrite vectorized sweep kernel, kept verbatim as the baseline.

    Per sweep: fancy-index ``(nnz, k)`` gathers for the affinity pass, two
    ``sp.csr_matrix`` constructions (validation included — one of them, the
    positives operator, has data that never changes during a fit), fresh
    nnz-sized temporaries for ratios and log terms, a float64
    ``np.bincount`` reduction, and per-backtrack ``np.arange``/``np.repeat``
    entry-position machinery in ``_candidate_objectives``.  This is what
    :class:`~repro.core.backends.vectorized.VectorizedBackend` shipped
    before the workspace rewrite; the tests below pin the rewrite against
    it on the same bytes.
    """

    name = "legacy-vectorized"

    def _sweep_rows(
        self,
        plan: SweepSide,
        row_factors: np.ndarray,
        col_factors: np.ndarray,
        regularization: float,
        start: int,
        stop: int,
        total_col_sum: np.ndarray,
    ) -> Tuple[np.ndarray, SweepStats]:
        indptr = plan.matrix.indptr
        first, last = int(indptr[start]), int(indptr[stop])
        n_local = stop - start
        local_factors = row_factors[start:stop]

        entry_rows = plan.row_index[first:last] - start
        entry_cols = plan.matrix.indices[first:last]
        entry_weights = (
            None if plan.entry_weights is None else plan.entry_weights[first:last]
        )
        local_indptr = indptr[start : stop + 1] - first
        local_shape = (n_local, plan.n_cols)

        affinities = np.einsum(
            "ij,ij->i", local_factors[entry_rows], col_factors[entry_cols]
        )
        ratios = gradient_ratio(affinities)
        if entry_weights is not None:
            ratios = ratios * entry_weights
        scatter = sp.csr_matrix((ratios, entry_cols, local_indptr), shape=local_shape)
        gradient_positive = scatter @ col_factors

        positives = sp.csr_matrix(
            (plan.matrix.data[first:last], entry_cols, local_indptr), shape=local_shape
        )
        positive_sums = positives @ col_factors
        unknown_sums = total_col_sum[np.newaxis, :] - positive_sums

        gradients = (
            -gradient_positive + unknown_sums + 2.0 * regularization * local_factors
        )

        log_terms = safe_log1mexp(affinities)
        if entry_weights is not None:
            log_terms = log_terms * entry_weights
        positive_part = -np.bincount(entry_rows, weights=log_terms, minlength=n_local)
        unknown_part = np.einsum("ij,ij->i", local_factors, unknown_sums)
        penalty = regularization * np.einsum("ij,ij->i", local_factors, local_factors)
        current_values = positive_part + unknown_part + penalty

        new_factors = local_factors.copy()
        step_sizes = np.ones(n_local, dtype=row_factors.dtype)
        active = np.ones(n_local, dtype=bool)
        n_backtracks = 0

        for _ in range(MAX_BACKTRACKS + 1):
            if not active.any():
                break
            active_rows = np.flatnonzero(active)
            candidates = np.maximum(
                0.0,
                local_factors[active_rows]
                - step_sizes[active_rows, np.newaxis] * gradients[active_rows],
            )
            candidate_values = self._candidate_objectives(
                plan,
                candidates,
                active_rows,
                start,
                col_factors,
                unknown_sums,
                regularization,
            )
            differences = candidates - local_factors[active_rows]
            armijo_rhs = ARMIJO_SIGMA * np.einsum(
                "ij,ij->i", gradients[active_rows], differences
            )
            accepted = (candidate_values - current_values[active_rows]) <= armijo_rhs

            accepted_rows = active_rows[accepted]
            new_factors[accepted_rows] = candidates[accepted]
            active[accepted_rows] = False
            n_backtracks += int(np.count_nonzero(~accepted))
            step_sizes[active] *= ARMIJO_BETA

        n_accepted = int(n_local - np.count_nonzero(active))
        stats = SweepStats(
            n_rows=n_local, n_accepted=n_accepted, n_backtracks=n_backtracks
        )
        return new_factors, stats

    @staticmethod
    def _candidate_objectives(
        plan: SweepSide,
        candidate_factors: np.ndarray,
        active_rows: np.ndarray,
        start: int,
        col_factors: np.ndarray,
        unknown_sums: np.ndarray,
        regularization: float,
    ) -> np.ndarray:
        n_active = len(active_rows)
        indptr, indices = plan.matrix.indptr, plan.matrix.indices
        global_rows = active_rows + start
        counts = (indptr[global_rows + 1] - indptr[global_rows]).astype(np.int64)
        total_entries = int(counts.sum())

        if total_entries:
            starts = indptr[global_rows].astype(np.int64)
            offsets = np.arange(total_entries) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            entry_positions = np.repeat(starts, counts) + offsets
            rows_entries = np.repeat(np.arange(n_active), counts)
            cols_entries = indices[entry_positions]

            affinities = np.einsum(
                "ij,ij->i",
                candidate_factors[rows_entries],
                col_factors[cols_entries],
            )
            log_terms = safe_log1mexp(affinities)
            if plan.entry_weights is not None:
                log_terms = log_terms * plan.entry_weights[entry_positions]
            positive_part = -np.bincount(
                rows_entries, weights=log_terms, minlength=n_active
            )
        else:
            positive_part = np.zeros(n_active)

        unknown_part = np.einsum(
            "ij,ij->i", candidate_factors, unknown_sums[active_rows]
        )
        penalty = regularization * np.einsum(
            "ij,ij->i", candidate_factors, candidate_factors
        )
        return positive_part + unknown_part + penalty


# --------------------------------------------------------------------------- #
# Bit-exactness against the frozen legacy kernel
# --------------------------------------------------------------------------- #
class TestLegacyParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_pooled_matches_legacy_serial(self, seed, weighted):
        matrix, row_factors, col_factors, row_weights = _random_problem(
            seed, n_rows=17 + 5 * seed, n_cols=9 + 3 * seed, k=3 + seed
        )
        kwargs = _sweep_kwargs(matrix, 0.4, row_weights, weighted)
        legacy, legacy_stats = _LegacySweepBackend().sweep(
            None, row_factors, col_factors, **kwargs
        )
        pooled, pooled_stats = VectorizedBackend().sweep(
            None, row_factors, col_factors, **kwargs
        )
        assert np.array_equal(legacy, pooled)
        assert legacy_stats == pooled_stats  # workspace fields excluded

    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_pooled_matches_legacy_sharded(self, n_shards, executor, weighted):
        matrix, row_factors, col_factors, row_weights = _random_problem(3)
        kwargs = _sweep_kwargs(matrix, 0.3, row_weights, weighted)
        legacy, _ = _LegacySweepBackend().sweep(
            None, row_factors, col_factors, **kwargs
        )
        with ParallelBackend(
            n_workers=2, n_shards=n_shards, executor=executor
        ) as backend:
            sharded, _ = backend.sweep(None, row_factors, col_factors, **kwargs)
        assert np.array_equal(legacy, sharded)

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="requires a /dev/shm mount"
    )
    @pytest.mark.parametrize("weighted", [False, True])
    def test_pooled_matches_legacy_process(self, weighted):
        matrix, row_factors, col_factors, row_weights = _random_problem(4)
        kwargs = _sweep_kwargs(matrix, 0.3, row_weights, weighted)
        legacy, _ = _LegacySweepBackend().sweep(
            None, row_factors, col_factors, **kwargs
        )
        with ParallelBackend(n_workers=2, n_shards=3, executor="process") as backend:
            sharded, _ = backend.sweep(None, row_factors, col_factors, **kwargs)
        assert np.array_equal(legacy, sharded)

    def test_pooled_matches_legacy_on_row_range(self):
        # Partial ranges exercise the rebased workspace (start > 0) and the
        # shrinking-active-set sub-CSR machinery on a shard boundary.
        matrix, row_factors, col_factors, _ = _random_problem(5)
        plan_legacy = SweepSide.build(matrix)
        plan_pooled = SweepSide.build(matrix)
        legacy, _ = _LegacySweepBackend().sweep(
            None, row_factors, col_factors, 0.2,
            plan=plan_legacy, row_range=(4, 15),
        )  # fmt: skip
        pooled, _ = VectorizedBackend().sweep(
            None, row_factors, col_factors, 0.2,
            plan=plan_pooled, row_range=(4, 15),
        )  # fmt: skip
        assert legacy.shape == (11, row_factors.shape[1])
        assert np.array_equal(legacy, pooled)

    def test_multi_sweep_trajectory_stays_exact(self):
        # Errors would compound across alternating sweeps if any single
        # sweep diverged by even one ulp.
        matrix, row_factors, col_factors, _ = _random_problem(6)
        legacy_rows, legacy_cols = row_factors, col_factors
        pooled_rows, pooled_cols = row_factors, col_factors
        legacy = _LegacySweepBackend()
        pooled = VectorizedBackend()
        plan_l = SweepSide.build(matrix)
        plan_p = SweepSide.build(matrix)
        for _ in range(4):
            legacy_rows, _ = legacy.sweep(
                None, legacy_rows, legacy_cols, 0.1, plan=plan_l
            )
            pooled_rows, _ = pooled.sweep(
                None, pooled_rows, pooled_cols, 0.1, plan=plan_p
            )
            assert np.array_equal(legacy_rows, pooled_rows)


# --------------------------------------------------------------------------- #
# The trainer's inner loop on its own plan, against the frozen legacy kernel
# --------------------------------------------------------------------------- #
def _trainer_problem(seed=7, n_users=120, n_items=50, k=8, density=0.1):
    """A corpus with empty users plus the random start factors of a fit."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_users, n_items)) < density).astype(float)
    dense[:3] = 0.0
    matrix = sp.csr_matrix(dense)
    users = rng.random((n_users, k)) * 0.5
    items = rng.random((n_items, k)) * 0.5
    return matrix, users, items


def _trainer_plan(matrix, weighted, dtype=np.float64):
    weights = relative_user_weights(matrix) if weighted else None
    return SweepPlan.build(matrix, user_weights=weights, dtype=dtype)


def _alternating_passes(backend, plan, users, items, n_passes, regularization=0.05):
    """Item sweep then user sweep, ``n_passes`` times; every state and stat."""
    states, stats = [], []
    for _ in range(n_passes):
        items, item_stats = backend.sweep(
            None, items, users, regularization, plan=plan.item_side
        )
        users, user_stats = backend.sweep(
            None, users, items, regularization, plan=plan.user_side
        )
        states += [items, users]
        stats += [item_stats, user_stats]
    return states, stats


class TestLegacyTrajectory:
    """Alternating item/user sweeps on a :class:`SweepPlan` — R-OCuLaR
    weights on both sides, the item side's varying per entry — stay
    bit-exact to the legacy kernel at every step, under every executor."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_alternating_trajectory_matches_legacy(self, executor, weighted):
        if executor == "process" and not os.path.isdir("/dev/shm"):
            pytest.skip("requires a /dev/shm mount")
        matrix, users, items = _trainer_problem()
        legacy, legacy_stats = _alternating_passes(
            _LegacySweepBackend(), _trainer_plan(matrix, weighted), users, items, 3
        )
        plan = _trainer_plan(matrix, weighted)
        if executor == "serial":
            got, got_stats = _alternating_passes(
                VectorizedBackend(), plan, users, items, 3
            )
        else:
            with ParallelBackend(n_workers=2, n_shards=3, executor=executor) as backend:
                got, got_stats = _alternating_passes(backend, plan, users, items, 3)
        assert len(got) == len(legacy) == 6
        for want, have in zip(legacy, got):
            assert have.dtype == np.float64
            assert np.array_equal(want, have)
        assert got_stats == legacy_stats  # workspace fields excluded

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_warm_trajectory_builds_no_workspace(self, dtype, weighted):
        matrix, users, items = _trainer_problem(seed=8)
        plan = _trainer_plan(matrix, weighted, dtype=dtype)
        users, items = users.astype(dtype), items.astype(dtype)
        sides = (plan.item_side, plan.user_side)
        backend = VectorizedBackend()
        _alternating_passes(backend, plan, users, items, 1)
        warm = [side.workspaces.stats() for side in sides]
        assert [stats.allocations for stats in warm] == [1, 1]

        states, _ = _alternating_passes(backend, plan, users, items, 3)
        assert all(state.dtype == dtype for state in states)
        for before, side in zip(warm, sides):
            after = side.workspaces.stats()
            assert after.allocations == before.allocations
            assert after.reuses == before.reuses + 3
            assert after.outstanding == 0


# --------------------------------------------------------------------------- #
# Pruned line search and blocked gathers on a heavy-backtrack problem
# --------------------------------------------------------------------------- #
def _heavy_backtrack_problem(seed=0, n_rows=40, n_cols=150, k=50):
    """lambda=10 at K=50 from small factors: ~9 halvings before any row accepts."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_rows, n_cols)) < 0.3).astype(float)
    dense[0] = 0.0
    matrix = sp.csr_matrix(dense)
    row_factors = rng.uniform(0.0, 0.02, size=(n_rows, k))
    col_factors = rng.uniform(0.0, 0.02, size=(n_cols, k))
    row_weights = rng.uniform(0.5, 2.5, n_rows)
    return matrix, row_factors, col_factors, row_weights


class TestPrunedLineSearch:
    REGULARIZATION = 10.0

    def _kwargs(self, matrix, weighted, row_weights):
        return _sweep_kwargs(matrix, self.REGULARIZATION, row_weights, weighted)

    def _fitted_model(self):
        matrix = make_netflix_like(n_users=80, n_items=30, random_state=0)
        model = OCuLaR(
            n_coclusters=50,
            regularization=self.REGULARIZATION,
            max_iterations=2,
            tolerance=0.0,
            random_state=0,
        )
        with pytest.warns(Warning):
            model.fit(matrix)
        return model

    @pytest.mark.parametrize("weighted", [False, True])
    def test_pruning_skips_evaluations_but_not_backtracks(self, weighted):
        matrix, row_factors, col_factors, row_weights = _heavy_backtrack_problem()
        kwargs = self._kwargs(matrix, weighted, row_weights)
        legacy, legacy_stats = _LegacySweepBackend().sweep(
            None, row_factors, col_factors, **kwargs
        )
        pruned, stats = VectorizedBackend().sweep(
            None, row_factors, col_factors, **kwargs
        )
        assert np.array_equal(legacy, pruned)
        # The problem is what it claims to be: >= 8 halvings per row.
        assert stats.n_backtracks >= 8 * stats.n_rows
        # Rejected-by-bound rows count as backtracks exactly as before ...
        assert stats.n_backtracks == legacy_stats.n_backtracks
        assert stats.n_accepted == legacy_stats.n_accepted == stats.n_rows
        # ... but most never reach the nnz-wide objective.  Unpruned, every
        # accepted row and every backtrack is one row-level evaluation.
        assert 0 < stats.n_evaluated_rows < stats.n_rows + stats.n_backtracks
        assert stats.n_evaluated_rows >= stats.n_accepted

    @pytest.mark.parametrize("weighted", [False, True])
    def test_evaluation_count_is_pinned(self, weighted):
        # A deterministic perf gate: evaluation counts repeat exactly, so a
        # weaker bound shows here without timing noise.  The Jensen bound
        # lets only the 40 accepted candidates through; the tail-only bound
        # evaluated 62 (65 weighted).
        matrix, row_factors, col_factors, row_weights = _heavy_backtrack_problem()
        _, stats = VectorizedBackend().sweep(
            None, row_factors, col_factors, **self._kwargs(matrix, weighted, row_weights)
        )
        assert stats.n_accepted == stats.n_rows == 40
        assert stats.n_evaluated_rows == 40

    def test_negative_column_factors_keep_the_tail_only_bound(self, monkeypatch):
        # Jensen holds for non-negative affinities only; a direct sweep handed
        # a negative column factor must not consult the bound at all.
        matrix, row_factors, col_factors, _ = _heavy_backtrack_problem(4)
        col_factors = col_factors.copy()
        col_factors[::3, 0] = -0.01
        legacy, _ = _LegacySweepBackend().sweep(
            matrix, row_factors, col_factors, self.REGULARIZATION
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the Jensen bound ran on negative column factors")

        monkeypatch.setattr(VectorizedBackend, "_positive_bounds", staticmethod(refuse))
        pruned, stats = VectorizedBackend().sweep(
            matrix, row_factors, col_factors, self.REGULARIZATION
        )
        assert np.array_equal(legacy, pruned)
        assert stats.n_evaluated_rows > stats.n_accepted

    def test_non_binary_plan_data_takes_its_own_jensen_product(self):
        # The bound's P sums each entry's column once; the ``positives``
        # product weighs it by the stored value.  Stored zeros (or any value
        # below 1) would make that product too small and the bound too high.
        matrix, row_factors, col_factors, _ = _heavy_backtrack_problem(5)
        matrix = matrix.copy()
        matrix.data[::2] = 0.0
        legacy, _ = _LegacySweepBackend().sweep(
            matrix, row_factors, col_factors, self.REGULARIZATION
        )
        side = SweepSide.build(matrix)
        pruned, _ = VectorizedBackend().sweep(
            None, row_factors, col_factors, self.REGULARIZATION, plan=side
        )
        assert np.array_equal(legacy, pruned)
        arena = side.workspaces.acquire(side, 0, side.n_rows, 50, np.float64)
        assert np.array_equal(arena.jensen_weights, np.ones(side.nnz))
        side.workspaces.release(arena)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_sharded_parity_on_every_executor(self, executor, weighted):
        if executor == "process" and not os.path.isdir("/dev/shm"):
            pytest.skip("requires a /dev/shm mount")
        matrix, row_factors, col_factors, row_weights = _heavy_backtrack_problem(1)
        kwargs = self._kwargs(matrix, weighted, row_weights)
        legacy, legacy_stats = _LegacySweepBackend().sweep(
            None, row_factors, col_factors, **kwargs
        )
        _, serial_stats = VectorizedBackend().sweep(
            None, row_factors, col_factors, **kwargs
        )
        with ParallelBackend(n_workers=2, n_shards=3, executor=executor) as backend:
            sharded, stats = backend.sweep(None, row_factors, col_factors, **kwargs)
        assert np.array_equal(legacy, sharded)
        assert stats == legacy_stats
        # Pruning is row-local too: shards skip exactly the serial sweep's rows.
        assert stats.n_evaluated_rows == serial_stats.n_evaluated_rows

    @pytest.mark.parametrize("alternating", [False, True])
    def test_multi_sweep_trajectory_and_evaluation_count_repeat(self, alternating):
        # ``alternating`` is the trainer's inner loop: each pass sweeps the
        # columns against the current rows, then the rows against the fresh
        # columns, so a one-ulp divergence on either side would compound.
        matrix, row_factors, col_factors, _ = _heavy_backtrack_problem(2)
        plan_l, plan_p = SweepPlan.build(matrix), SweepPlan.build(matrix)

        def trajectory(backend, plan):
            rows, cols, path, counts = row_factors, col_factors, [], []
            for _ in range(4):
                if alternating:
                    cols, _ = backend.sweep(
                        None, cols, rows, self.REGULARIZATION, plan=plan.item_side
                    )
                rows, stats = backend.sweep(
                    None, rows, cols, self.REGULARIZATION, plan=plan.user_side
                )
                path += [rows, cols]
                counts.append(stats.n_evaluated_rows)
            return path, counts

        def allocations(plan):
            sides = (plan.user_side, plan.item_side)
            return [side.workspaces.stats().allocations for side in sides]

        legacy, _ = trajectory(_LegacySweepBackend(), plan_l)
        pruned, counts = trajectory(VectorizedBackend(), plan_p)
        for want, got in zip(legacy, pruned):
            assert np.array_equal(want, got)
        # A rerun through the warm plan repeats every count (a count, not a
        # timing) and builds no workspace: every sweep reuses its side's arena.
        warm = allocations(plan_p)
        assert trajectory(VectorizedBackend(), plan_p)[1] == counts
        assert allocations(plan_p) == warm

    def test_fold_in_users_unchanged_by_the_new_kernel(self, monkeypatch):
        from repro.serving import fold_in
        from repro.serving.fold_in import clear_fold_in_plan_cache, fold_in_users

        model = self._fitted_model()
        new_users = [[2, 5, 7], [], [0, 1, 2, 3, 11, 29]]
        clear_fold_in_plan_cache()
        with monkeypatch.context() as patch:
            patch.setattr(fold_in, "VectorizedBackend", _LegacySweepBackend)
            before = fold_in_users(model, new_users)
        clear_fold_in_plan_cache()
        after = fold_in_users(model, new_users)
        clear_fold_in_plan_cache()
        assert np.array_equal(before, after)

    def test_history_totals_evaluated_rows(self):
        model = self._fitted_model()
        history = model.history_
        sweeps = (*history.item_sweep_stats, *history.user_sweep_stats)
        assert history.total_evaluated_rows == sum(s.n_evaluated_rows for s in sweeps)
        unpruned = sum(s.n_accepted for s in sweeps) + history.total_backtracks
        assert 0 < history.total_evaluated_rows < unpruned

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_arena_is_not_nnz_times_k(self, dtype):
        # Wide K and many entries: an (nnz, k) gather pair alone would be
        # 2 * nnz * k * itemsize bytes; the arena must stay within
        # O(nnz + n*k + block*k).
        rng = np.random.default_rng(0)
        n_rows, n_cols, k = 300, 400, 64
        matrix = sp.csr_matrix((rng.random((n_rows, n_cols)) < 0.2).astype(float))
        side = SweepSide.build(matrix, dtype=dtype)
        arena = side.workspaces.acquire(side, 0, n_rows, k, dtype)
        itemsize = np.dtype(dtype).itemsize
        block = affinity_block_entries(k, dtype)
        assert arena.gather_rows.shape == arena.gather_cols.shape == (block, k)
        assert matrix.nnz > 4 * block  # the bound below is not vacuous
        budget = (
            (8 * 8 + 3 * itemsize) * matrix.nnz  # int64 index scratch + entry floats
            + 8 * n_rows * k * itemsize  # per-row (n, k) blocks
            + 2 * block * k * itemsize  # the gather pair
            + 32 * 8 * (n_rows + n_cols + 1)  # per-row / per-column vectors
        )
        assert arena.nbytes <= budget
        assert arena.nbytes < 2 * matrix.nnz * k * itemsize
        side.workspaces.release(arena)

    def test_blocked_gathers_span_many_blocks_exactly(self, monkeypatch):
        # Shrink the block so even this small problem crosses dozens of block
        # boundaries (including a ragged last block) in every gather pass.
        from repro.core import objective

        monkeypatch.setattr(objective, "_AFFINITY_BLOCK_BYTES", 7 * 2 * 50 * 8)
        matrix, row_factors, col_factors, row_weights = _heavy_backtrack_problem(3)
        plan = SweepSide.build(matrix, row_positive_weights=row_weights)
        legacy, _ = _LegacySweepBackend().sweep(None, row_factors, col_factors, 10.0, plan=plan)
        blocked, _ = VectorizedBackend().sweep(
            None, row_factors, col_factors, 10.0, plan=plan
        )
        arena = plan.workspaces.acquire(plan, 0, plan.n_rows, 50, np.float64)
        assert arena.gather_rows.shape == (7, 50)
        assert np.array_equal(legacy, blocked)


# --------------------------------------------------------------------------- #
# Dtype consistency (the float32 reduction fix) and in-place helpers
# --------------------------------------------------------------------------- #
class TestDtypeConsistency:
    def test_float32_sweep_stays_float32(self):
        matrix, row_factors, col_factors, _ = _random_problem(7)
        plan = SweepSide.build(matrix, dtype=np.float32)
        new_factors, _ = VectorizedBackend().sweep(
            None,
            row_factors.astype(np.float32),
            col_factors.astype(np.float32),
            0.2,
            plan=plan,
        )
        assert new_factors.dtype == np.float32

    def test_float32_tracks_float64_closely(self):
        matrix, row_factors, col_factors, _ = _random_problem(8)
        full, _ = VectorizedBackend().sweep(matrix, row_factors, col_factors, 0.2)
        plan = SweepSide.build(matrix, dtype=np.float32)
        half, _ = VectorizedBackend().sweep(
            None,
            row_factors.astype(np.float32),
            col_factors.astype(np.float32),
            0.2,
            plan=plan,
        )
        np.testing.assert_allclose(full, half, rtol=1e-3, atol=1e-4)

    def test_mixed_dtype_raises_configuration_error(self):
        # float64 factors against a float32 plan: no supported path produces
        # it, and the one (pooled, single-dtype) kernel refuses it with a
        # typed error before touching the store.
        matrix, row_factors, col_factors, _ = _random_problem(9)
        plan = SweepSide.build(matrix, dtype=np.float32)
        with pytest.raises(ConfigurationError, match="share one dtype"):
            VectorizedBackend().sweep(None, row_factors, col_factors, 0.2, plan=plan)
        with pytest.raises(ConfigurationError, match="share one dtype"):
            VectorizedBackend().sweep(
                None, row_factors.astype(np.float32), col_factors, 0.2, plan=plan
            )
        assert plan.workspaces.stats().allocations == 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_sums_keep_dtype_and_match_bincount(self, dtype):
        rng = np.random.default_rng(0)
        matrix = sp.csr_matrix((rng.random((9, 6)) < 0.4).astype(float)).astype(dtype)
        data = rng.standard_normal(matrix.nnz).astype(dtype)
        rows = np.repeat(np.arange(9), np.diff(matrix.indptr))
        out = np.empty(9, dtype=dtype)
        csr_row_sums_into(
            matrix.indptr.astype(np.int64),
            matrix.indices.astype(np.int64),
            data,
            (9, 6),
            np.ones(6, dtype=dtype),
            out,
        )
        assert out.dtype == dtype
        reference = np.bincount(rows, weights=data.astype(np.float64), minlength=9)
        if dtype == np.float64:
            # bincount reduces in float64; on float64 data the pooled
            # reduction must be bit-identical to it.
            assert np.array_equal(out, reference)
        else:
            np.testing.assert_allclose(out, reference.astype(dtype), rtol=1e-5)

    def test_csr_matmul_into_is_bitwise_scipy(self):
        rng = np.random.default_rng(1)
        matrix = sp.csr_matrix((rng.random((12, 8)) < 0.4).astype(float))
        matrix.data[:] = rng.standard_normal(matrix.nnz)
        dense = rng.standard_normal((8, 5))
        out = np.empty((12, 5))
        csr_matmul_into(
            matrix.indptr.astype(np.int64),
            matrix.indices.astype(np.int64),
            matrix.data,
            (12, 8),
            dense,
            out,
        )
        assert np.array_equal(out, matrix @ dense)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_inplace_objective_helpers_are_bitwise(self, dtype):
        rng = np.random.default_rng(2)
        affinity = rng.uniform(0.0, 3.0, size=257).astype(dtype)
        affinity[:5] = [0.0, 1e-12, 60.0, 0.5, 2.0]

        out = np.empty_like(affinity)
        assert np.array_equal(
            safe_log1mexp_into(affinity.copy(), out=out), safe_log1mexp(affinity)
        )
        # Aliased form (the kernel overwrites the affinities in place).
        aliased = affinity.copy()
        assert np.array_equal(
            safe_log1mexp_into(aliased, out=aliased), safe_log1mexp(affinity)
        )

        scratch = np.empty_like(affinity)
        assert np.array_equal(
            gradient_ratio_into(affinity.copy(), out=out, scratch=scratch),
            gradient_ratio(affinity),
        )


# --------------------------------------------------------------------------- #
# Workspace store lifecycle
# --------------------------------------------------------------------------- #
class TestWorkspaceStore:
    def test_repeated_sweeps_allocate_once(self):
        matrix, row_factors, col_factors, _ = _random_problem(10)
        plan = SweepSide.build(matrix)
        backend = VectorizedBackend()
        for _ in range(5):
            row_factors, _ = backend.sweep(
                None, row_factors, col_factors, 0.2, plan=plan
            )
        stats = plan.workspaces.stats()
        assert stats.allocations == 1
        assert stats.reuses == 4
        assert stats.outstanding == 0
        assert stats.peak_bytes > 0

    def test_sweep_stats_carry_workspace_counters(self):
        matrix, row_factors, col_factors, _ = _random_problem(11)
        plan = SweepSide.build(matrix)
        backend = VectorizedBackend()
        _, first = backend.sweep(None, row_factors, col_factors, 0.2, plan=plan)
        _, second = backend.sweep(None, row_factors, col_factors, 0.2, plan=plan)
        assert first.workspace_allocations == 1 and first.workspace_reuses == 0
        assert second.workspace_allocations == 0 and second.workspace_reuses == 1
        assert first.workspace_bytes == second.workspace_bytes > 0

    def test_workspace_fields_do_not_break_stats_equality(self):
        a = SweepStats(n_rows=5, n_accepted=4, n_backtracks=1)
        b = SweepStats(
            n_rows=5,
            n_accepted=4,
            n_backtracks=1,
            workspace_bytes=1234,
            workspace_allocations=1,
            workspace_reuses=7,
        )
        assert a == b  # diagnostics, not results

    def test_combined_sums_workspace_counters(self):
        parts = [
            SweepStats(1, 1, 0, workspace_bytes=10, workspace_allocations=1),
            SweepStats(2, 1, 3, workspace_bytes=20, workspace_reuses=2),
        ]
        total = SweepStats.combined(parts)
        assert total.workspace_bytes == 30
        assert total.workspace_allocations == 1
        assert total.workspace_reuses == 2

    def test_acquire_is_exclusive(self):
        matrix, *_ = _random_problem(12)
        plan = SweepSide.build(matrix)
        store = plan.workspaces
        first = store.acquire(plan, 0, plan.n_rows, 4, np.float64)
        second = store.acquire(plan, 0, plan.n_rows, 4, np.float64)
        assert first is not second
        assert store.stats().outstanding == 2
        store.release(first)
        store.release(second)
        assert store.stats().outstanding == 0
        assert store.acquire(plan, 0, plan.n_rows, 4, np.float64) in (first, second)

    def test_distinct_ranges_get_distinct_arenas(self):
        matrix, *_ = _random_problem(13)
        plan = SweepSide.build(matrix)
        store = plan.workspaces
        full = store.acquire(plan, 0, plan.n_rows, 3, np.float64)
        half = store.acquire(plan, 0, plan.n_rows // 2, 3, np.float64)
        assert full.n_local != half.n_local
        store.release(full)
        store.release(half)
        assert store.stats().allocations == 2

    def test_free_list_cap_drops_extras(self, monkeypatch):
        monkeypatch.setattr(workspace, "MAX_CACHED_WORKSPACES", 1)
        matrix, *_ = _random_problem(14)
        plan = SweepSide.build(matrix)
        store = SweepWorkspaceStore()
        arenas = [store.acquire(plan, 0, plan.n_rows, 3, np.float64) for _ in range(3)]
        for arena in arenas:
            store.release(arena)
        stats = store.stats()
        assert stats.cached == 1
        assert stats.bytes_in_use == arenas[0].nbytes

    def test_clear_drops_cached_arenas(self):
        matrix, *_ = _random_problem(15)
        plan = SweepSide.build(matrix)
        store = plan.workspaces
        store.release(store.acquire(plan, 0, plan.n_rows, 3, np.float64))
        assert store.stats().cached == 1
        store.clear()
        assert store.stats().cached == 0
        assert store.stats().bytes_in_use == 0

    def test_store_pickles_fresh(self):
        # Process-executor workers receive plan sides by pickle; their
        # stores must arrive empty (worker-local arenas, no dead buffers).
        matrix, row_factors, col_factors, _ = _random_problem(16)
        plan = SweepSide.build(matrix)
        VectorizedBackend().sweep(None, row_factors, col_factors, 0.2, plan=plan)
        assert plan.workspaces.stats().allocations == 1
        clone = pickle.loads(pickle.dumps(plan))
        stats = clone.workspaces.stats()
        assert stats.allocations == 0
        assert stats.cached == 0
        assert stats.bytes_in_use == 0

    def test_concurrent_sweeps_share_one_plan_safely(self):
        # Eight threads sweeping one warm side concurrently: every result
        # must equal the serial sweep (arenas are exclusive, never shared).
        matrix, row_factors, col_factors, _ = _random_problem(17, n_rows=40)
        plan = SweepSide.build(matrix)
        backend = VectorizedBackend()
        expected, _ = backend.sweep(None, row_factors, col_factors, 0.2, plan=plan)
        results: list = [None] * 8
        errors: list = []

        def sweep(index: int) -> None:
            try:
                got, _ = backend.sweep(
                    None, row_factors, col_factors, 0.2, plan=plan
                )
                results[index] = got
            except Exception as exc:  # pragma: no cover - failure mode
                errors.append(exc)

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        for got in results:
            assert np.array_equal(got, expected)
        assert plan.workspaces.stats().outstanding == 0


# --------------------------------------------------------------------------- #
# Fit lifecycle: history plumbing and cross-fit isolation
# --------------------------------------------------------------------------- #
class TestFitLifecycle:
    @pytest.fixture(scope="class")
    def corpus(self):
        matrix = make_netflix_like(n_users=80, n_items=30, random_state=0)
        return matrix

    def _fit(self, corpus, seed=0):
        model = OCuLaR(
            n_coclusters=4,
            regularization=5.0,
            max_iterations=3,
            tolerance=0.0,
            random_state=seed,
        )
        with pytest.warns(Warning):
            model.fit(corpus)
        return model

    def test_history_records_workspace_stats(self, corpus):
        model = self._fit(corpus)
        history = model.history_
        assert history.peak_workspace_bytes > 0
        # One arena per side, built on the first sweep, reused afterwards.
        assert history.total_workspace_allocations >= 2
        assert history.total_workspace_reuses > 0
        assert history.item_sweep_stats[0].workspace_allocations == 1
        assert history.item_sweep_stats[-1].workspace_reuses == 1

    def test_no_cross_fit_leakage(self, corpus):
        # Each fit builds its own plan (and with it, fresh stores): the
        # second fit's first sweeps must allocate again, proving the first
        # fit's arenas were dropped with its plan rather than inherited.
        model = self._fit(corpus)
        first_fit_allocations = model.history_.total_workspace_allocations
        with pytest.warns(Warning):
            model.fit(corpus)
        assert model.history_.total_workspace_allocations == first_fit_allocations
        assert model.history_.item_sweep_stats[0].workspace_allocations == 1

    def test_refit_and_fold_in_share_nothing_with_training_plans(self, corpus):
        from repro.serving.fold_in import clear_fold_in_plan_cache, fold_in_factors

        model = self._fit(corpus)
        clear_fold_in_plan_cache()
        interactions = sp.csr_matrix(
            (np.ones(3), ([0, 0, 1], [2, 5, 7])), shape=(2, corpus.shape[1])
        )
        first = fold_in_factors(
            model.factors_.item_factors, interactions, model.regularization
        )
        # Same batch again rides the cached side's warm workspaces and must
        # reproduce the identical factors.
        second = fold_in_factors(
            model.factors_.item_factors, interactions, model.regularization
        )
        assert np.array_equal(first, second)
        clear_fold_in_plan_cache()
