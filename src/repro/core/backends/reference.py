"""Reference (per-row loop) backend.

A direct transcription of Section IV-D: for each row factor ``f_i``, compute
the gradient (6) using the precomputed sum over unknown columns, take one
projected-gradient step, and pick the step size with the Armijo rule along
the projection arc.  The per-row Python loop makes this the slow-but-obvious
implementation — it stands in for the paper's single-threaded CPU code in the
Figure 8 comparison and acts as the ground truth the vectorized backend is
tested against.

Because each loop iteration only touches one row, sweeping a row range
``[a, b)`` is simply the loop restricted to those rows; the entry weights
and CSR structure come precomputed from the plan.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.backends.base import Backend, SweepStats
from repro.core.backends.plan import SweepSide
from repro.core.objective import (
    ARMIJO_BETA,
    ARMIJO_SIGMA,
    MAX_BACKTRACKS,
    armijo_accept,
    row_gradient,
    row_objective,
)


class ReferenceBackend(Backend):
    """Row-by-row projected gradient descent with Armijo backtracking."""

    name = "reference"

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
        indptr, indices = plan.matrix.indptr, plan.matrix.indices
        new_factors = row_factors[start:stop].copy()
        # Row objectives are Python floats here, whatever the factor dtype.
        start_values = np.empty(stop - start)
        end_values = np.empty(stop - start)

        n_accepted = 0
        n_backtracks = 0
        for local, row in enumerate(range(start, stop)):
            first, last = indptr[row], indptr[row + 1]
            positive_cols = indices[first:last]
            positive_col_factors = col_factors[positive_cols]

            weights = (
                None if plan.entry_weights is None else plan.entry_weights[first:last]
            )
            unknown_sum = total_col_sum - positive_col_factors.sum(axis=0)

            current = row_factors[row]
            gradient = row_gradient(
                current, positive_col_factors, weights, unknown_sum, regularization
            )
            current_value = row_objective(
                current, positive_col_factors, weights, unknown_sum, regularization
            )
            start_values[local] = end_values[local] = current_value

            step = 1.0
            accepted = False
            for _ in range(MAX_BACKTRACKS + 1):
                candidate = np.maximum(0.0, current - step * gradient)
                candidate_value = row_objective(
                    candidate, positive_col_factors, weights, unknown_sum, regularization
                )
                if armijo_accept(
                    current_value, candidate_value, gradient, candidate - current, ARMIJO_SIGMA
                ):
                    new_factors[local] = candidate
                    end_values[local] = candidate_value
                    accepted = True
                    break
                step *= ARMIJO_BETA
                n_backtracks += 1
            if accepted:
                n_accepted += 1

        stats = SweepStats(
            n_rows=stop - start,
            n_accepted=n_accepted,
            n_backtracks=n_backtracks,
            row_values=(start_values, end_values),
        )
        return new_factors, stats
