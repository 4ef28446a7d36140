"""Training hot-path experiment: pooled sweep kernels versus the legacy loop.

The zero-allocation sweep rewrite claims two things: (1) after warm-up a
projected-gradient sweep performs **zero** large scratch allocations —
every gather block, nnz temporary and sparse operator comes from the plan
side's pooled workspace — and (2) the float64 factors are bit-for-bit what
the pre-rewrite allocating kernel produced, because identical operations
run in identical order and only the storage is reused.  This experiment
pins both against :class:`_LegacySweepBackend`, a faithful replica of the
pre-rewrite ``VectorizedBackend`` hot loop (two ``sp.csr_matrix``
constructions per sweep, fancy-index gathers, ``np.arange``/``np.repeat``
machinery per backtrack), frozen here.

Both engines run the same alternating item/user sweep trajectory from the
same random non-negative factors, so they perform identical mathematics on
identical bytes; the run asserts ``np.array_equal`` on the final factors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.backends import VectorizedBackend
from repro.core.backends.base import Backend, SweepStats
from repro.core.backends.plan import SweepPlan, SweepSide
from repro.core.objective import gradient_ratio, safe_log1mexp
from repro.utils.rng import RandomStateLike, ensure_rng
from repro.utils.tables import format_table


class _LegacySweepBackend(Backend):
    """The pre-rewrite vectorized sweep kernel, kept verbatim as the baseline.

    Per sweep: fancy-index ``(nnz, k)`` gathers for the affinity pass, two
    ``sp.csr_matrix`` constructions (validation included — one of them, the
    positives operator, has data that never changes during a fit), fresh
    nnz-sized temporaries for ratios and log terms, a float64
    ``np.bincount`` reduction, and per-backtrack ``np.arange``/``np.repeat``
    entry-position machinery in ``_candidate_objectives``.  This is what
    :class:`~repro.core.backends.vectorized.VectorizedBackend` shipped
    before the workspace rewrite; the benchmark measures the rewrite
    against it on the same bytes.
    """

    name = "legacy-vectorized"

    def _sweep_rows(
        self,
        plan: SweepSide,
        row_factors: np.ndarray,
        col_factors: np.ndarray,
        regularization: float,
        sigma: float,
        beta: float,
        max_backtracks: int,
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

        for _ in range(max_backtracks + 1):
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
            armijo_rhs = sigma * np.einsum(
                "ij,ij->i", gradients[active_rows], differences
            )
            accepted = (candidate_values - current_values[active_rows]) <= armijo_rhs

            accepted_rows = active_rows[accepted]
            new_factors[accepted_rows] = candidates[accepted]
            active[accepted_rows] = False
            n_backtracks += int(np.count_nonzero(~accepted))
            step_sizes[active] *= beta

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


@dataclass
class TrainingHotPathResult:
    """Measurements of the sweep-kernel comparison on one synthetic corpus.

    Attributes
    ----------
    n_users, n_items, n_coclusters, nnz:
        Corpus shape: user/item counts, factor rank, positive entries.
    n_sweeps:
        Alternating (item + user) sweep pairs per timed pass.
    weighted:
        Whether per-user R-OCuLaR weights were active.
    legacy_seconds, pooled_seconds:
        Median wall-clock seconds for one full trajectory through the
        legacy replica and the pooled kernels.
    float64_exact:
        Whether the pooled trajectory's final factors (both sides) are
        ``np.array_equal`` to the legacy replica's — the bit-exactness
        claim.
    workspace_allocations_after_warmup:
        Workspace arenas built during the timed passes (must be 0 — the
        zero-allocation claim).
    workspace_reuses:
        Pooled-arena reuses over the timed passes (must be positive).
    peak_workspace_bytes:
        High-water scratch footprint across both plan sides.
    evaluated_rows, line_search_rows:
        Per timed pass: row-level nnz-wide objective evaluations the pooled
        kernel performed, and what an unpruned line search would have
        performed (accepted rows + backtracks).  Counts, not timings.
    """

    n_users: int
    n_items: int
    n_coclusters: int
    nnz: int
    n_sweeps: int
    weighted: bool
    legacy_seconds: float
    pooled_seconds: float
    float64_exact: bool
    workspace_allocations_after_warmup: int
    workspace_reuses: int
    peak_workspace_bytes: int
    evaluated_rows: int = 0
    line_search_rows: int = 0
    per_run_legacy_seconds: List[float] = field(default_factory=list)
    per_run_pooled_seconds: List[float] = field(default_factory=list)

    @property
    def rows_per_pass(self) -> int:
        """Row subproblems solved in one timed pass (both sweep directions)."""
        return (self.n_users + self.n_items) * self.n_sweeps

    @property
    def nnz_per_pass(self) -> int:
        """Positive entries visited in one timed pass (both directions)."""
        return 2 * self.nnz * self.n_sweeps

    def _rate(self, per_pass: int, seconds: float) -> float:
        return per_pass / seconds if seconds > 0 else float("inf")

    def legacy_rows_per_second(self) -> float:
        return self._rate(self.rows_per_pass, self.legacy_seconds)

    def pooled_rows_per_second(self) -> float:
        return self._rate(self.rows_per_pass, self.pooled_seconds)

    def legacy_nnz_per_second(self) -> float:
        return self._rate(self.nnz_per_pass, self.legacy_seconds)

    def pooled_nnz_per_second(self) -> float:
        return self._rate(self.nnz_per_pass, self.pooled_seconds)

    def speedup(self) -> float:
        """Headline: pooled sweep throughput over the legacy replica."""
        if self.pooled_seconds <= 0:
            return float("inf")
        return self.legacy_seconds / self.pooled_seconds

    def to_text(self) -> str:
        rows = [
            [
                "legacy (alloc per sweep)",
                f"{self.legacy_seconds:.3f}",
                f"{self.legacy_rows_per_second():,.0f}",
                f"{self.legacy_nnz_per_second():,.0f}",
                "1.0x",
            ],
            [
                "pooled workspaces",
                f"{self.pooled_seconds:.3f}",
                f"{self.pooled_rows_per_second():,.0f}",
                f"{self.pooled_nnz_per_second():,.0f}",
                f"{self.speedup():.2f}x",
            ],
        ]
        weighting = "R-OCuLaR weighted" if self.weighted else "unweighted"
        header = (
            f"Training hot path — {self.n_users:,} users x {self.n_items:,} items, "
            f"K={self.n_coclusters}, {self.nnz:,} positives, "
            f"{self.n_sweeps} sweep pairs, {weighting}"
        )
        table = format_table(
            ["kernel", "seconds", "rows/s", "nnz/s", "speedup"], rows
        )
        verdict = (
            f"float64 exact: {self.float64_exact}, "
            f"workspace allocations after warm-up: "
            f"{self.workspace_allocations_after_warmup} "
            f"(reuses: {self.workspace_reuses}, "
            f"peak scratch: {self.peak_workspace_bytes / 1e6:.1f} MB), "
            f"nnz-wide row evaluations: {self.evaluated_rows:,} of "
            f"{self.line_search_rows:,} line-search rows"
        )
        return "\n".join([header, table, verdict])


def make_training_corpus(
    n_users: int,
    n_items: int,
    positives_per_user: int,
    rng: np.random.Generator,
) -> sp.csr_matrix:
    """A sparse random binary corpus with ~``positives_per_user`` per row."""
    counts = rng.integers(1, 2 * positives_per_user + 1, size=n_users)
    indptr = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    for user in range(n_users):
        start, stop = indptr[user], indptr[user + 1]
        indices[start:stop] = rng.choice(n_items, size=stop - start, replace=False)
        indices[start:stop].sort()
    data = np.ones(indptr[-1], dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(n_users, n_items))


def run_sweep_trajectory(
    backend: Backend,
    plan: SweepPlan,
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    n_sweeps: int,
    regularization: float,
    max_backtracks: int = 20,
) -> Tuple[np.ndarray, np.ndarray, SweepStats]:
    """``n_sweeps`` alternating item/user sweeps — the trainer's inner loop.

    Returns the final factors and the summed stats of every sweep.
    """
    users = user_factors.copy()
    items = item_factors.copy()
    stats = []
    for _ in range(n_sweeps):
        items, item_stats = backend.sweep(
            None,
            items,
            users,
            regularization,
            max_backtracks=max_backtracks,
            plan=plan.item_side,
        )
        users, user_stats = backend.sweep(
            None,
            users,
            items,
            regularization,
            max_backtracks=max_backtracks,
            plan=plan.user_side,
        )
        stats += [item_stats, user_stats]
    return users, items, SweepStats.combined(stats)


def _store_totals(plan: SweepPlan) -> Tuple[int, int, int]:
    """(allocations, reuses, peak bytes) summed over both plan sides."""
    item = plan.item_side.workspaces.stats()
    user = plan.user_side.workspaces.stats()
    return (
        item.allocations + user.allocations,
        item.reuses + user.reuses,
        item.peak_bytes + user.peak_bytes,
    )


def run_training_hotpath(
    n_users: int = 1_500,
    n_items: int = 600,
    n_coclusters: int = 16,
    n_sweeps: int = 4,
    n_repeats: int = 2,
    positives_per_user: int = 12,
    regularization: float = 0.05,
    weighted: bool = False,
    random_state: RandomStateLike = 0,
) -> TrainingHotPathResult:
    """Time the pooled sweep kernels against the legacy allocating replica.

    Both kernels run the identical alternating sweep trajectory from the
    same random non-negative factors; the pooled side gets one un-timed
    warm-up pass (workspace construction is a once-per-fit cost), after
    which the timed passes must allocate nothing.  Median of ``n_repeats``
    timed passes per kernel; final factors asserted ``np.array_equal``.
    """
    rng = ensure_rng(random_state)
    matrix = make_training_corpus(n_users, n_items, positives_per_user, rng)
    user_weights: Optional[np.ndarray] = None
    if weighted:
        from repro.core.objective import relative_user_weights

        user_weights = relative_user_weights(matrix)
    user0 = rng.random((n_users, n_coclusters)) * 0.5
    item0 = rng.random((n_items, n_coclusters)) * 0.5

    legacy = _LegacySweepBackend()
    pooled = VectorizedBackend()
    # Separate plans per kernel: identical content (same matrix, weights,
    # dtype), but the pooled plan's sides own the workspace stores whose
    # counters the zero-allocation assertion reads.
    legacy_plan = SweepPlan.build(matrix, user_weights=user_weights)
    pooled_plan = SweepPlan.build(matrix, user_weights=user_weights)

    # Warm-up: builds both sides' workspaces (and spins BLAS threads up for
    # both kernels alike).
    run_sweep_trajectory(legacy, legacy_plan, user0, item0, 1, regularization)
    run_sweep_trajectory(pooled, pooled_plan, user0, item0, 1, regularization)
    allocations_at_warmup, reuses_at_warmup, _ = _store_totals(pooled_plan)

    legacy_times: List[float] = []
    legacy_users = legacy_items = None
    for _ in range(n_repeats):
        start = time.perf_counter()
        legacy_users, legacy_items, _ = run_sweep_trajectory(
            legacy, legacy_plan, user0, item0, n_sweeps, regularization
        )
        legacy_times.append(time.perf_counter() - start)

    pooled_times: List[float] = []
    pooled_users = pooled_items = None
    for _ in range(n_repeats):
        start = time.perf_counter()
        pooled_users, pooled_items, pooled_stats = run_sweep_trajectory(
            pooled, pooled_plan, user0, item0, n_sweeps, regularization
        )
        pooled_times.append(time.perf_counter() - start)

    float64_exact = np.array_equal(pooled_users, legacy_users) and np.array_equal(
        pooled_items, legacy_items
    )

    allocations, reuses, peak_bytes = _store_totals(pooled_plan)

    return TrainingHotPathResult(
        n_users=n_users,
        n_items=n_items,
        n_coclusters=n_coclusters,
        nnz=int(matrix.nnz),
        n_sweeps=n_sweeps,
        weighted=weighted,
        legacy_seconds=float(np.median(legacy_times)),
        pooled_seconds=float(np.median(pooled_times)),
        float64_exact=bool(float64_exact),
        workspace_allocations_after_warmup=int(allocations - allocations_at_warmup),
        workspace_reuses=int(reuses - reuses_at_warmup),
        peak_workspace_bytes=int(peak_bytes),
        evaluated_rows=pooled_stats.n_evaluated_rows,
        line_search_rows=pooled_stats.n_accepted + pooled_stats.n_backtracks,
        per_run_legacy_seconds=legacy_times,
        per_run_pooled_seconds=pooled_times,
    )
