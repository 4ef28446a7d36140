"""Backend interface for the projected-gradient block sweeps."""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.core.backends.plan import SweepPlan, SweepSide
from repro.exceptions import ConfigurationError


@dataclass
class SweepStats:
    """Diagnostics of one block sweep.

    Attributes
    ----------
    n_rows:
        Number of row factors the sweep attempted to update.
    n_accepted:
        Number of rows whose Armijo line search accepted a step.
    n_backtracks:
        Total number of step-size halvings performed across all rows.
    n_evaluated_rows:
        Row-level evaluations of the nnz-wide positive-entry objective the
        line search actually performed.  Without pruning this would be
        ``n_accepted + n_backtracks``; the vectorized kernel skips every
        candidate whose K-wide lower bound — the Jensen bound of the
        positive part plus the unknown and penalty tail — already fails the
        Armijo test, so every accepted candidate and only some rejected ones
        are evaluated (21% of the unpruned count on the end-to-end
        ``train-cold`` fit).  Deterministic per problem, but a cost
        diagnostic rather than a result (0 for backends that do not count),
        so excluded from equality.
    workspace_bytes:
        Scratch bytes of the pooled sweep workspace(s) the sweep ran in
        (summed across shards).  Zero for backends without workspaces.
    workspace_allocations, workspace_reuses:
        How many of those workspaces were freshly built versus served from
        the plan side's free list.  After warm-up every sweep should be pure
        reuse — the zero-allocation property the benchmark asserts.  The
        workspace fields are diagnostics, not results, so they are excluded
        from equality: sharded and serial sweeps of identical factors
        compare equal even though their arena layouts differ.
    row_values:
        ``(start_values, end_values)``: every swept row's objective
        ``Q(f_i)`` (eq. 5 of the paper) at the sweep's start and for the
        factor the sweep returned, as the line search evaluated them.  A
        backend's row-range kernel reports them; :meth:`Backend.sweep`
        reduces them into ``row_objective_sums`` and drops them, so the
        stats a sweep returns hold no per-row data.
    row_objective_sums:
        ``(sum(start_values), sum(end_values))``, each one float64
        ``np.sum`` over all the sweep's rows — so identical for every shard
        count and executor.  Summed over a side the row objectives are the
        negative log-likelihood plus that side's penalty, which the trainer
        records its objective from.  ``None`` when the backend reported no
        row values.  Both fields are excluded from equality: reference and
        vectorized sweeps evaluate the same values in different orders.
    """

    n_rows: int
    n_accepted: int
    n_backtracks: int
    n_evaluated_rows: int = field(default=0, compare=False)
    workspace_bytes: int = field(default=0, compare=False)
    workspace_allocations: int = field(default=0, compare=False)
    workspace_reuses: int = field(default=0, compare=False)
    row_values: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, compare=False, repr=False
    )
    row_objective_sums: Optional[Tuple[float, float]] = field(
        default=None, compare=False
    )

    @property
    def acceptance_rate(self) -> float:
        """Fraction of rows that accepted a projected-gradient step."""
        if self.n_rows == 0:
            return 0.0
        return self.n_accepted / float(self.n_rows)

    @classmethod
    def combined(cls, parts: Iterable["SweepStats"]) -> "SweepStats":
        """Aggregate the stats of disjoint row shards of one sweep.

        Counters add up; the shards' row values are concatenated in shard
        order (``None`` unless every shard reported them).
        """
        parts = list(parts)
        row_values = [part.row_values for part in parts]
        return cls(
            **{
                spec.name: sum(getattr(part, spec.name) for part in parts)
                for spec in fields(cls)
                if spec.name not in ("row_values", "row_objective_sums")
            },
            row_values=(
                tuple(np.concatenate(side) for side in zip(*row_values))
                if parts and None not in row_values
                else None
            ),
        )


class Backend(abc.ABC):
    """A strategy for performing one projected-gradient sweep over one side.

    A *sweep* updates every row factor of one side (all items, or all users)
    by a single projected-gradient step with Armijo backtracking, holding the
    other side fixed — one half of the paper's alternating scheme.

    The sweep is expressed generically over "rows" and "columns": to update
    item factors, pass the item-major (transposed) interaction matrix with
    ``row_factors = item_factors`` and ``col_factors = user_factors``; to
    update user factors pass the user-major matrix with the roles swapped.

    Subclasses implement :meth:`_sweep_rows`, which receives a precomputed
    :class:`~repro.core.backends.plan.SweepSide` plus an explicit row range,
    so a sweep over rows ``[a, b)`` is a self-contained task — the unit of
    work the sharded parallel backend fans out.
    """

    #: Human-readable backend name, e.g. ``"reference"``.
    name: str = "abstract"

    def shutdown(self) -> None:
        """Release pooled resources (worker pools, shared-memory segments).

        A no-op for stateless backends.  Backends that own pools recreate
        them lazily, so a shut-down backend remains usable.
        """

    @contextmanager
    def _fit_sides(
        self, matrix, user_weights: Optional[np.ndarray], dtype
    ) -> Iterator[Tuple[SweepSide, SweepSide]]:
        """``(item_side, user_side)`` of one trainer fit of ``matrix``.

        The fit's copies (:meth:`SweepPlan.fit_sides`) of a plan built here
        and dropped with the fit; a backend that outlives fits may keep the
        plan for the next fit on the same matrix
        (:class:`~repro.core.backends.parallel.ParallelBackend` does).
        """
        yield SweepPlan.build(matrix, user_weights=user_weights, dtype=dtype).fit_sides()

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def sweep(
        self,
        matrix,
        row_factors: np.ndarray,
        col_factors: np.ndarray,
        regularization: float,
        plan: Optional[SweepSide] = None,
        row_range: Optional[Tuple[int, int]] = None,
    ) -> Tuple[np.ndarray, SweepStats]:
        """Perform one projected-gradient sweep over rows of one side.

        The line search runs with the Armijo constants of
        :mod:`repro.core.objective` (``ARMIJO_SIGMA``, ``ARMIJO_BETA``,
        ``MAX_BACKTRACKS``); a row that exhausts its backtracks keeps its
        previous factor.

        Parameters
        ----------
        matrix:
            CSR matrix of shape ``(n_rows, n_cols)`` whose non-zeros are the
            positive examples, with rows indexing the side being updated.
            May be ``None`` when ``plan`` is provided.
        row_factors:
            Current factors of the rows being updated, shape ``(n_rows, K)``.
            Not modified in place.
        col_factors:
            Fixed factors of the other side, shape ``(n_cols, K)``.
        regularization:
            The L2 penalty ``lambda``.
        plan:
            Optional precomputed :class:`~repro.core.backends.plan.SweepSide`.
            Without it an unweighted plan is built from ``matrix`` on every
            call; the trainer builds one plan per fit instead.  Positive
            weights (R-OCuLaR) exist only in a plan:
            ``SweepSide.build(matrix, row_positive_weights=...)``.
        row_range:
            Optional ``(start, stop)`` restricting the sweep to rows
            ``[start, stop)``.  The returned factor array then has shape
            ``(stop - start, K)`` — the updated factors of just those rows.
            ``None`` sweeps (and returns) all rows.

        Returns
        -------
        (new_row_factors, stats)
            ``stats.row_objective_sums`` holds the swept rows' summed
            objective before and after the sweep; ``stats.row_values`` is
            ``None``.
        """
        row_factors = np.asarray(row_factors)
        col_factors = np.asarray(col_factors)
        if plan is None:
            if matrix is None:
                raise ConfigurationError(
                    "sweep requires either a matrix or a precomputed plan"
                )
            dtype = (
                row_factors.dtype
                if np.issubdtype(row_factors.dtype, np.floating)
                else None
            )
            plan = SweepSide.build(matrix, dtype=dtype)
        elif matrix is not None:
            raise ConfigurationError(
                "pass either a matrix or a plan to sweep, not both — a plan "
                "already owns its matrix, so the extra one would be ignored"
            )
        if plan.n_rows != row_factors.shape[0]:
            raise ConfigurationError(
                f"row_factors has {row_factors.shape[0]} rows but the plan side has "
                f"{plan.n_rows}"
            )
        if plan.n_cols != col_factors.shape[0]:
            raise ConfigurationError(
                f"col_factors has {col_factors.shape[0]} rows but the plan side has "
                f"{plan.n_cols} columns"
            )
        start, stop = self._check_row_range(row_range, plan.n_rows)

        # The fixed side does not change within a sweep, so its column sum is
        # computed exactly once here and shared by every row shard.
        total_col_sum = col_factors.sum(axis=0)
        factors, stats = self._sweep_rows(
            plan,
            row_factors,
            col_factors,
            regularization,
            start,
            stop,
            total_col_sum,
        )
        if stats.row_values is not None:
            stats.row_objective_sums = tuple(
                float(np.sum(values, dtype=np.float64)) for values in stats.row_values
            )
            stats.row_values = None
        return factors, stats

    @staticmethod
    def _check_row_range(
        row_range: Optional[Tuple[int, int]], n_rows: int
    ) -> Tuple[int, int]:
        """Validate a ``(start, stop)`` range against the side's row count."""
        if row_range is None:
            return 0, n_rows
        try:
            start, stop = (int(bound) for bound in row_range)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"row_range must be a (start, stop) pair, got {row_range!r}"
            ) from exc
        if not 0 <= start <= stop <= n_rows:
            raise ConfigurationError(
                f"row_range {row_range!r} is not within [0, {n_rows}]"
            )
        return start, stop

    @abc.abstractmethod
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
        """Update rows ``[start, stop)`` and return their new factors + stats.

        ``row_factors`` is the full factor array of the side (global row
        indexing); the returned array has shape ``(stop - start, K)``.
        ``total_col_sum`` is the precomputed ``col_factors.sum(axis=0)``.
        The stats carry the rows' start and end objective values in
        ``row_values``; a backend that omits them cannot drive the trainer.
        """
