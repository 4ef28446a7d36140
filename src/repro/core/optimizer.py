"""Block-coordinate trainer for the OCuLaR objective.

Section IV-B: alternate between updating all item factors (users fixed) and
all user factors (items fixed); each block is improved by a *single*
projected-gradient step with Armijo backtracking rather than solved to
optimality, because inexact block updates converge faster in wall-clock time.
Convergence is declared when the objective stops decreasing (relative change
below a tolerance).  The step sizes follow the Armijo rule with the fixed
constants of :mod:`repro.core.objective` (``ARMIJO_SIGMA``, ``ARMIJO_BETA``,
``MAX_BACKTRACKS``), which every backend reads where its line search runs.

The trainer obtains one :class:`~repro.core.backends.plan.SweepPlan` at
the top of ``train`` — both sweep directions' CSR matrices, per-entry row
indices, and R-OCuLaR entry weights — from its backend, which may keep the
plan of its last fit on the same matrix, and drives every sweep through
it, so no per-sweep ``tocoo()`` / transpose / weight recomputation
survives in the hot loop.  The sweeps run on the fit's copies of the
plan's sides, so each starts from the affinities the previous one left at
the point it returned (:mod:`repro.core.backends.plan`).  It is agnostic to
which backend performs the sweeps: a name is built at that backend's
defaults and shut down after the fit, an instance (a sized or process
pool, ``ParallelBackend(n_workers=..., executor=...)``) is borrowed.  It
records the objective trajectory, per-sweep timings and
:class:`~repro.core.backends.SweepStats` (consumed by the Figure 7 and
Figure 8 benchmarks), and guarantees the objective is monotonically
non-increasing across accepted iterations — a property the test-suite
checks.

**One start.**  A cold start (:func:`~repro.core.init.random_init`) and a
warm one (a previous generation's factors) both arrive as ``train``'s two
factor arguments, and ``train`` alone checks them — rows against the
matrix, a shared ``K`` and dtype, finite and non-negative values — before
it makes the fit's one copy.

**Where the objective comes from.**  The trainer makes no pass over the
positive entries of its own.  Section IV-B splits ``Q`` into row
objectives, ``Q = sum_i Q(f_i) + lambda sum_u ||f_u||^2`` (eq. 5), and
every sweep already evaluates ``Q(f_i)`` for each of its rows at its start
and for each candidate it accepts; the backends sum those values over the
side (:attr:`SweepStats.row_objective_sums
<repro.core.backends.SweepStats.row_objective_sums>`).  Summed over a side,
the row objectives are the negative log-likelihood plus that side's
penalty, so with ``S`` such a sum only K-wide factor norms remain (``L``
is ``-log L``):

* ``Q_0 = S + lambda ||U_0||^2`` and ``L_0 = S - lambda ||V_0||^2``, with
  ``S`` the first item sweep's start sum;
* ``Q_t = S + lambda ||V_t||^2`` and ``L_t = S - lambda ||U_t||^2``, with
  ``S`` the last user sweep's end sum of iteration ``t``.

This is the same quantity :func:`~repro.core.objective.full_objective`
evaluates, reassociated: the unknown term is a sum of per-row ``<f_i,
unknown_i>`` instead of ``<sum f_u, sum f_i>`` minus the positive
affinities.  The two agree to a relative ``1e-12`` in float64 (measured
gaps are below ``1e-15``) and ``1e-5`` in float32, which the test-suite
and the paper harness check.  The fitted factors never read the recorded
objective; only the stopping rule does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.backends import Backend, SweepStats, get_backend
from repro.exceptions import ConfigurationError
from repro.utils.validation import (
    check_array_2d,
    check_non_negative_float,
    check_positive_int,
)

# Consecutive below-``plateau_tolerance`` iterations before the plateau rule
# fires: one under-improving sweep of a warm start is noise, two are a plateau.
_PLATEAU_PATIENCE = 2


def check_binary(matrix: sp.csr_matrix, caller: str) -> None:
    """Refuse a matrix with any stored value other than ``1.0``.

    The sweeps' unknown sums come from the plan's data while the positive
    term counts each stored entry once: on any other value the two disagree
    and the sweeps optimise no single objective.  Training and fold-in both
    solve with those sweeps.
    """
    if np.any(matrix.data != 1.0):
        raise ConfigurationError(
            f"{caller} requires a binary matrix whose stored values are all 1.0; "
            "wrap counts or ratings in repro.data.InteractionMatrix, which "
            "binarises them"
        )


@dataclass
class TrainingHistory:
    """Trajectory of a training run.

    Attributes
    ----------
    objective_values:
        Value of the regularised objective ``Q`` after every outer iteration
        (index 0 is the value at initialisation), summed from the row
        objectives the sweeps evaluated (module docstring) — equal to
        :func:`~repro.core.objective.full_objective` of the iterate up to
        reassociation (relative ``1e-12`` in float64).
    log_likelihoods:
        Negative log-likelihood (unregularised) after every outer iteration,
        from the same sums minus the penalty of the side they cover.
    iteration_seconds:
        Wall-clock seconds spent in each outer iteration (both sweeps).
    elapsed_seconds:
        Cumulative wall-clock time at the end of each outer iteration.
    item_sweep_stats, user_sweep_stats:
        :class:`~repro.core.backends.SweepStats` of every executed item /
        user sweep, in execution order (``inner_sweeps`` entries per outer
        iteration).  Acceptance rates and backtrack counts diagnose the
        line search: a collapsing acceptance rate flags an ill-conditioned
        block long before the objective plateaus.
    converged:
        Whether the relative-improvement stopping rule fired before the
        iteration budget ran out.
    n_iterations:
        Number of completed outer iterations.
    warm_started:
        Whether the fit started from caller-provided ``initial_factors`` (a
        previous generation's factors) rather than a fresh initialisation.
        The model's ``fit`` records it; the trainer sees only a start.
    stopped_on_plateau:
        Whether the *plateau* rule — two consecutive
        iterations with relative improvement below ``plateau_tolerance`` —
        ended the run rather than the strict tolerance rule.  Either rule
        stopping the run sets ``converged``, so this flag says which one did.
    plateau_tolerance:
        The plateau tolerance the run used (``None`` when the rule was off —
        the cold-path default, which keeps seed parity bit-exact).
    """

    objective_values: List[float] = field(default_factory=list)
    log_likelihoods: List[float] = field(default_factory=list)
    iteration_seconds: List[float] = field(default_factory=list)
    elapsed_seconds: List[float] = field(default_factory=list)
    item_sweep_stats: List[SweepStats] = field(default_factory=list)
    user_sweep_stats: List[SweepStats] = field(default_factory=list)
    converged: bool = False
    n_iterations: int = 0
    warm_started: bool = False
    stopped_on_plateau: bool = False
    plateau_tolerance: Optional[float] = None

    @property
    def final_objective(self) -> float:
        """Objective value at the end of training."""
        if not self.objective_values:
            raise ValueError("training has not produced any objective values")
        return self.objective_values[-1]

    @property
    def mean_seconds_per_iteration(self) -> float:
        """Average wall-clock seconds per outer iteration."""
        if not self.iteration_seconds:
            return 0.0
        return float(np.mean(self.iteration_seconds))

    @property
    def mean_item_acceptance_rate(self) -> float:
        """Mean Armijo acceptance rate across all item sweeps (0 when none ran)."""
        if not self.item_sweep_stats:
            return 0.0
        return float(np.mean([stats.acceptance_rate for stats in self.item_sweep_stats]))

    @property
    def mean_user_acceptance_rate(self) -> float:
        """Mean Armijo acceptance rate across all user sweeps (0 when none ran)."""
        if not self.user_sweep_stats:
            return 0.0
        return float(np.mean([stats.acceptance_rate for stats in self.user_sweep_stats]))

    @property
    def total_backtracks(self) -> int:
        """Total step-size halvings across every sweep of the run."""
        return sum(
            stats.n_backtracks
            for stats in (*self.item_sweep_stats, *self.user_sweep_stats)
        )

    @property
    def total_evaluated_rows(self) -> int:
        """Row-level nnz-wide objective evaluations across every sweep of the run.

        ``total_backtracks`` plus the accepted rows is what an unpruned line
        search would evaluate; the gap is the work the lower bound saved.
        """
        return sum(
            stats.n_evaluated_rows
            for stats in (*self.item_sweep_stats, *self.user_sweep_stats)
        )

    @property
    def peak_workspace_bytes(self) -> int:
        """Largest pooled sweep-workspace footprint any sweep of the run used.

        Summed across the shards of a sweep (see
        :class:`~repro.core.backends.SweepStats`); 0 for backends without
        pooled workspaces.
        """
        return max(
            (
                stats.workspace_bytes
                for stats in (*self.item_sweep_stats, *self.user_sweep_stats)
            ),
            default=0,
        )

    @property
    def total_workspace_allocations(self) -> int:
        """Workspace arenas built across the run (should stop growing fast)."""
        return sum(
            stats.workspace_allocations
            for stats in (*self.item_sweep_stats, *self.user_sweep_stats)
        )

    @property
    def total_workspace_reuses(self) -> int:
        """Workspace acquisitions served from the free list across the run."""
        return sum(
            stats.workspace_reuses
            for stats in (*self.item_sweep_stats, *self.user_sweep_stats)
        )


class BlockCoordinateTrainer:
    """Alternating projected-gradient trainer for the OCuLaR objective.

    Parameters
    ----------
    regularization:
        L2 penalty ``lambda`` (must be non-negative; the paper notes strong
        convexity of the subproblems requires ``lambda > 0``).
    max_iterations:
        Maximum number of outer iterations (one item sweep + one user sweep).
    tolerance:
        Relative objective improvement below which training stops.
    backend:
        Backend instance or name (``"vectorized"`` / ``"reference"`` /
        ``"parallel"``).  When given a *name*, the trainer owns the backend
        it builds and releases its pools and shared memory via
        :meth:`shutdown`; an *instance* — e.g. a sized
        ``ParallelBackend(n_workers=..., executor=...)`` — is borrowed and
        left untouched.
    inner_sweeps:
        Number of consecutive projected-gradient sweeps applied to a block
        before switching to the other block.  The paper argues (Section IV-B)
        that ``1`` — i.e. only *approximately* solving each subproblem — is
        the fastest choice in wall-clock terms; larger values solve each
        block more exactly and exist mainly for the ablation benchmark.
    plateau_tolerance:
        Optional *plateau* stopping rule for warm-started refits: when the
        relative objective improvement stays below this value for two
        consecutive iterations, training stops and the history records
        ``stopped_on_plateau``.  ``None`` (the default) disables the rule
        entirely, so cold fits remain bit-identical to the seed trainer.
        Unlike ``tolerance`` — which is a strict convergence criterion
        checked against a single iteration — the plateau rule tolerates the
        noisy first iterations of a warm start where one sweep can
        under-improve before the objective settles.
    """

    def __init__(
        self,
        regularization: float = 1.0,
        max_iterations: int = 100,
        tolerance: float = 1e-4,
        backend: Backend | str = "vectorized",
        inner_sweeps: int = 1,
        plateau_tolerance: Optional[float] = None,
    ) -> None:
        self.regularization = check_non_negative_float(regularization, "regularization")
        self.max_iterations = check_positive_int(max_iterations, "max_iterations")
        self.tolerance = check_non_negative_float(tolerance, "tolerance")
        # A backend built here from a name is the trainer's to shut down; an
        # instance (a runtime's warm pool) is borrowed and outlives the fit.
        self.owns_backend = not isinstance(backend, Backend)
        self.backend = get_backend(backend)
        self.inner_sweeps = check_positive_int(inner_sweeps, "inner_sweeps")
        if plateau_tolerance is not None:
            plateau_tolerance = check_non_negative_float(
                plateau_tolerance, "plateau_tolerance"
            )
        self.plateau_tolerance = plateau_tolerance

    def shutdown(self) -> None:
        """Release the backend's pools and shared memory, if the trainer owns it.

        Callers that construct the trainer with a backend *name* should call
        this when done fitting (``OCuLaR.fit`` does); process-executor
        backends hold worker processes and ``/dev/shm`` segments that must
        not outlive the fit.  Borrowed backend instances are not touched —
        their owner controls their lifecycle.  Idempotent.
        """
        if self.owns_backend:
            self.backend.shutdown()

    def train(
        self,
        matrix: sp.csr_matrix,
        user_factors: np.ndarray,
        item_factors: np.ndarray,
        user_weights: Optional[np.ndarray] = None,
        callback=None,
        constant_columns: Optional[Tuple[int, int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, TrainingHistory]:
        """Run alternating sweeps until convergence or the iteration budget.

        Parameters
        ----------
        matrix:
            CSR interaction matrix of shape ``(n_users, n_items)``.
        user_factors, item_factors:
            The start: finite, non-negative factors with one row per user /
            item of ``matrix`` and a shared ``K``, cold
            (:func:`~repro.core.init.random_init`) or warm (a previous
            generation's factors extended by
            :func:`repro.serving.fold_in.extend_factors`).  Checked here and
            copied once; the caller's arrays are not modified.  Their shared
            dtype — float64 by default, float32 supported — is the dtype
            training runs in and the fitted factors keep.
        user_weights:
            Optional per-user positive-example weights (R-OCuLaR).
        callback:
            Optional callable invoked as ``callback(iteration, history)``
            after every completed outer iteration, the one that stops
            training included; returning ``True`` stops training early (used
            by time-budgeted benchmarks).
        constant_columns:
            Optional ``(user_column, item_column)`` pair of factor columns
            held at 1.0: the sweeps update them like any other column, and
            they are reset to 1.0 right after each iteration's objective is
            recorded.  The bias-extended model
            (:class:`~repro.core.bias.BiasedOCuLaR`) carries its biases
            against these columns.

        Returns
        -------
        (user_factors, item_factors, history)
        """
        if matrix is None:
            raise ConfigurationError("train requires a matrix")
        matrix = sp.csr_matrix(matrix)
        check_binary(matrix, "train")
        if user_weights is not None and len(user_weights) != matrix.shape[0]:
            raise ConfigurationError("user_weights must have one entry per user")
        user_factors, item_factors = self._checked_start(
            matrix.shape, user_factors, item_factors
        )

        # All static sweep structure — both CSR orientations, per-entry row
        # indices, and R-OCuLaR entry weights — is computed once per fit, or
        # once per matrix by a backend that keeps its last plan.  The fit
        # sweeps its own copies of the sides: they carry each sweep's end
        # affinities into the next sweep's start.
        with self.backend._fit_sides(matrix, user_weights, user_factors.dtype) as sides:
            return self._sweep_sides(*sides, user_factors, item_factors, callback, constant_columns)

    def _sweep_sides(
        self, item_side, user_side, user_factors, item_factors, callback, constant_columns
    ) -> Tuple[np.ndarray, np.ndarray, TrainingHistory]:
        """:meth:`train`'s loop over the fit's two plan sides."""
        history = TrainingHistory(plateau_tolerance=self.plateau_tolerance)
        # Q_0 needs the first item sweep's start values; the penalties of
        # the starting factors are taken before that sweep replaces them.
        start_penalties = (self._penalty(user_factors), self._penalty(item_factors))

        start_time = time.perf_counter()
        plateau_streak = 0
        for iteration in range(1, self.max_iterations + 1):
            iteration_start = time.perf_counter()

            # Item sweeps: rows are items, columns are users; the per-user
            # R-OCuLaR weight (baked into the plan side) rides on the columns.
            for _ in range(self.inner_sweeps):
                item_factors, item_stats = self.backend.sweep(
                    None,
                    item_factors,
                    user_factors,
                    regularization=self.regularization,
                    plan=item_side,
                )
                history.item_sweep_stats.append(item_stats)
            # User sweeps: rows are users, columns are items; the weight is
            # constant within a row and rides on the row side.
            for _ in range(self.inner_sweeps):
                user_factors, user_stats = self.backend.sweep(
                    None,
                    user_factors,
                    item_factors,
                    regularization=self.regularization,
                    plan=user_side,
                )
                history.user_sweep_stats.append(user_stats)

            iteration_seconds = time.perf_counter() - iteration_start
            if iteration == 1:
                row_sum = self._row_objective_sum(history.item_sweep_stats[0], 0)
                history.objective_values.append(row_sum + start_penalties[0])
                history.log_likelihoods.append(row_sum - start_penalties[1])
            previous = history.objective_values[-1]
            row_sum = self._row_objective_sum(user_stats, 1)
            objective = row_sum + self._penalty(item_factors)
            history.objective_values.append(objective)
            history.log_likelihoods.append(row_sum - self._penalty(user_factors))
            history.iteration_seconds.append(iteration_seconds)
            history.elapsed_seconds.append(time.perf_counter() - start_time)
            history.n_iterations = iteration
            if constant_columns is not None:
                user_factors[:, constant_columns[0]] = 1.0
                item_factors[:, constant_columns[1]] = 1.0
                # The reset moved the point the carried affinities are of.
                item_side.carry.drop()

            if callback is not None and callback(iteration, history):
                break

            improvement = previous - objective
            relative = abs(improvement) / max(abs(previous), 1.0)
            if improvement >= 0 and relative < self.tolerance:
                history.converged = True
                break
            if self.plateau_tolerance is not None:
                if improvement >= 0 and relative < self.plateau_tolerance:
                    plateau_streak += 1
                else:
                    plateau_streak = 0
                if plateau_streak >= _PLATEAU_PATIENCE:
                    history.converged = True
                    history.stopped_on_plateau = True
                    break

        return user_factors, item_factors, history

    @staticmethod
    def _checked_start(shape, user_factors, item_factors):
        """The fit's one copy of a start, checked against a matrix of ``shape``.

        A negative entry lies outside the non-negative program, where the
        projected sweeps never move it.
        """
        start = []
        for side, factors, n_rows in zip(("user", "item"), (user_factors, item_factors), shape):
            factors = check_array_2d(factors, f"{side}_factors")
            if len(factors) != n_rows:
                raise ConfigurationError(
                    f"{side}_factors has {len(factors)} rows but the matrix has {n_rows} "
                    f"{side}s — extend the factors to the new matrix first "
                    "(repro.serving.extend_factors)"
                )
            if factors.size and factors.min() < 0:
                raise ConfigurationError(
                    f"initial {side}_factors contains negative entries; the trainer "
                    "requires a feasible (non-negative) starting point"
                )
            start.append(factors.copy())
        users, items = start
        if users.shape[1] != items.shape[1] or users.dtype != items.dtype:
            raise ConfigurationError(
                f"user_factors (K={users.shape[1]}, {users.dtype}) and item_factors "
                f"(K={items.shape[1]}, {items.dtype}) must share K and dtype"
            )
        return users, items

    def _penalty(self, factors: np.ndarray) -> float:
        """``lambda ||factors||^2``, accumulated in float64."""
        return self.regularization * float(np.sum(np.square(factors, dtype=np.float64)))

    def _row_objective_sum(self, stats: SweepStats, end: int) -> float:
        """A sweep's summed row objectives at its start (0) or end (1)."""
        if stats.row_objective_sums is None:
            raise ConfigurationError(
                f"backend {self.backend.name!r} reported no row objective values; "
                "the trainer records the objective from them (SweepStats.row_values)"
            )
        return stats.row_objective_sums[end]
