"""Bias-extended OCuLaR (the Section IV-A extension).

The paper mentions that user, item and overall biases can be incorporated by
modelling

    ``P[r_ui = 1] = 1 - exp(-<f_u, f_i> - b_u - b_i - b)``

but reports that the extension did not improve accuracy on its datasets and
drops it.  It is implemented here as an optional model so the claim can be
checked (the ablation benchmark does exactly that).

Implementation: the biases are folded into the factors by appending two
auxiliary co-cluster dimensions,

    ``f'_u = [f_u, b_u, 1]      f'_i = [f_i, 1, b_i + b]``

so that ``<f'_u, f'_i> = <f_u, f_i> + b_u + (b_i + b)``.  The columns holding
the constant 1 are clamped back to 1 after every training iteration, which
keeps the standard trainer and backends unchanged while the bias columns are
learned like any other non-negative factor.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.backends import SweepPlan
from repro.core.factors import FactorModel
from repro.core.init import initialize_factors
from repro.core.ocular import OCuLaR
from repro.data.interactions import InteractionMatrix


class BiasedOCuLaR(OCuLaR):
    """OCuLaR with non-negative user and item bias terms.

    The public interface is identical to :class:`~repro.core.ocular.OCuLaR`;
    after fitting, :attr:`user_biases_` and :attr:`item_biases_` expose the
    learned biases and :attr:`factors_` holds only the genuine co-cluster
    columns (the auxiliary bias columns are stripped), so co-cluster
    extraction and explanations keep working unchanged.
    """

    #: Number of auxiliary columns appended to carry the biases.
    _N_BIAS_COLUMNS = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.user_biases_: Optional[np.ndarray] = None
        self.item_biases_: Optional[np.ndarray] = None

    def fit(
        self,
        matrix: InteractionMatrix,
        callback=None,
        backend=None,
        initial_factors=None,
        plateau_tolerance: Optional[float] = None,
        plateau_patience: Optional[int] = None,
    ) -> "BiasedOCuLaR":
        """Fit with biases; ``backend`` is an optional borrowed instance
        override and ``initial_factors`` an optional warm start over the
        *plain* (bias-free) factors, exactly as in :meth:`OCuLaR.fit`.  A
        warm start reuses this instance's previously learned biases where
        they exist; rows beyond them (new users/items) start at the same
        small constant a cold fit uses."""
        csr = matrix.csr()
        n_users, n_items = csr.shape
        if initial_factors is not None:
            user_factors, item_factors = self._coerce_initial_factors(
                initial_factors, n_users=n_users, n_items=n_items
            )
        else:
            user_factors, item_factors = initialize_factors(
                csr,
                self.n_coclusters,
                method=self.init,
                scale=self.init_scale,
                random_state=self.random_state,
                dtype=self.dtype,
            )
        # Augment: user side gets [b_u, 1], item side gets [1, b_i].
        small = 0.01
        user_bias_init = self._warm_biases(
            self.user_biases_ if initial_factors is not None else None, n_users, small
        )
        item_bias_init = self._warm_biases(
            self.item_biases_ if initial_factors is not None else None, n_items, small
        )
        user_aug = np.hstack(
            [
                user_factors,
                user_bias_init[:, None],
                np.ones((n_users, 1), dtype=self.dtype),
            ]
        )
        item_aug = np.hstack(
            [
                item_factors,
                np.ones((n_items, 1), dtype=self.dtype),
                item_bias_init[:, None],
            ]
        )

        user_weights = self._user_weights(csr)

        bias_column_user_fixed = self.n_coclusters + 1  # the "1" column on the user side
        bias_column_item_fixed = self.n_coclusters  # the "1" column on the item side

        # The trainer copies its inputs, so we train in two phases: run the
        # trainer one iteration at a time and clamp between iterations.  One
        # trainer and one sweep plan serve every iteration — the backend
        # (and, for "parallel", its thread pool) and the precomputed sweep
        # structure are reused across the whole fit.
        plan = SweepPlan.build(csr, user_weights=user_weights, dtype=self.dtype)
        # The inner trainer runs exactly one iteration per call, so the
        # plateau rule — which needs a streak of iterations — lives in this
        # outer loop instead; it is disabled on the inner trainer.
        single_step_trainer = self._build_trainer(
            backend, max_iterations=1, tolerance=0.0, plateau_tolerance=None
        )
        plateau = self._plateau_overrides(plateau_tolerance, plateau_patience)
        effective_plateau = plateau["plateau_tolerance"]
        effective_patience = plateau["plateau_patience"]
        plateau_streak = 0
        user_aug_view = user_aug
        item_aug_view = item_aug
        history = None
        try:
            for _ in range(self.max_iterations):
                # The plan carries the matrix and the R-OCuLaR weights, so
                # neither is passed separately (train rejects the redundancy).
                user_aug_view, item_aug_view, step_history = single_step_trainer.train(
                    None, user_aug_view, item_aug_view, plan=plan
                )
                user_aug_view[:, bias_column_user_fixed] = 1.0
                item_aug_view[:, bias_column_item_fixed] = 1.0
                if history is None:
                    history = step_history
                    history.warm_started = initial_factors is not None
                    history.plateau_tolerance = effective_plateau
                else:
                    history.objective_values.extend(step_history.objective_values[1:])
                    history.log_likelihoods.extend(step_history.log_likelihoods[1:])
                    history.iteration_seconds.extend(step_history.iteration_seconds)
                    history.elapsed_seconds.extend(step_history.elapsed_seconds)
                    history.item_sweep_stats.extend(step_history.item_sweep_stats)
                    history.user_sweep_stats.extend(step_history.user_sweep_stats)
                    history.n_iterations += step_history.n_iterations
                if len(history.objective_values) >= 2:
                    previous, current = history.objective_values[-2], history.objective_values[-1]
                    improvement = previous - current
                    relative = abs(improvement) / max(abs(previous), 1.0)
                    if improvement >= 0 and relative < self.tolerance:
                        history.converged = True
                        break
                    if effective_plateau is not None:
                        if improvement >= 0 and relative < effective_plateau:
                            plateau_streak += 1
                        else:
                            plateau_streak = 0
                        if plateau_streak >= effective_patience:
                            history.converged = True
                            history.stopped_on_plateau = True
                            break
                if callback is not None and callback(history.n_iterations, history):
                    break
        finally:
            # One trainer serves every clamped iteration, so an owned
            # backend's pools and shared memory are released once, after the
            # whole fit; a borrowed (runtime-warm) backend is left running.
            single_step_trainer.shutdown()
        assert history is not None

        self.user_biases_ = user_aug_view[:, self.n_coclusters].copy()
        self.item_biases_ = item_aug_view[:, self.n_coclusters + 1].copy()
        self.factors_ = FactorModel(
            user_aug_view[:, : self.n_coclusters].copy(),
            item_aug_view[:, : self.n_coclusters].copy(),
        )
        self._augmented_factors = FactorModel(user_aug_view, item_aug_view)
        self.history_ = history
        self._set_train_matrix(matrix)
        self._warn_if_exhausted(history)
        return self

    def _warm_biases(
        self, previous: Optional[np.ndarray], n_rows: int, small: float
    ) -> np.ndarray:
        """Bias-column initialisation: previous biases where they exist,
        the cold-start constant for new rows (and for cold fits)."""
        biases = np.full(n_rows, small, dtype=self.dtype)
        if previous is not None:
            n_kept = min(len(previous), n_rows)
            biases[:n_kept] = np.asarray(previous[:n_kept], dtype=self.dtype)
        return biases

    @property
    def serving_factors_(self) -> FactorModel:
        """Augmented factors (bias columns included) — scoring with these is
        exactly ``1 - exp(-<f_u, f_i> - b_u - b_i - b)``, so engine-routed
        rankings keep the bias terms."""
        self._require_fitted()
        return self._augmented_factors

    def score_user(self, user: int) -> np.ndarray:
        """Probabilities including the bias terms."""
        self._require_fitted()
        return self._augmented_factors.user_scores(user)

    def predict_proba(self, user: int, item: int) -> float:
        """Probability that ``user`` is interested in ``item`` (with biases)."""
        self._require_fitted()
        return self._augmented_factors.predict_proba(user, item)
