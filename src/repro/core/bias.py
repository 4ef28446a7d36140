"""Bias-extended OCuLaR (the Section IV-A extension).

The paper mentions that user, item and overall biases can be incorporated by
modelling

    ``P[r_ui = 1] = 1 - exp(-<f_u, f_i> - b_u - b_i - b)``

but reports that the extension did not improve accuracy on its datasets and
drops it.  It is implemented here as an optional model so the claim can be
checked: ``test_ablation_bias_terms`` in
``benchmarks/bench_ablation_design_choices.py`` compares it with plain OCuLaR.

Implementation: the biases are folded into the factors by appending two
auxiliary co-cluster dimensions,

    ``f'_u = [f_u, b_u, 1]      f'_i = [f_i, 1, b_i + b]``

so that ``<f'_u, f'_i> = <f_u, f_i> + b_u + (b_i + b)``.  The fit is one
ordinary trainer run over the augmented factors: the trainer holds the two
constant columns at 1 (its ``constant_columns``), resetting them after every
iteration, while the bias columns are learned like any other non-negative
factor.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.factors import FactorModel
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
    ) -> "BiasedOCuLaR":
        """Fit with biases; ``backend`` is an optional borrowed instance
        override and ``initial_factors`` an optional warm start over the
        *plain* (bias-free) factors, exactly as in :meth:`OCuLaR.fit`.  A
        warm start reuses this instance's previously learned biases where
        they exist; rows beyond them (new users/items) start at the same
        small constant a cold fit uses."""
        csr = matrix.csr()
        k = self.n_coclusters
        user_factors, item_factors = self._initial_factors(csr, initial_factors)
        warm = initial_factors is not None
        # Augment: user side gets [b_u, 1], item side gets [1, b_i], sized by
        # the start so the trainer is what rejects a start of the wrong shape.
        n_users, n_items = len(user_factors), len(item_factors)
        user_aug = np.hstack(
            [
                user_factors,
                self._warm_biases(self.user_biases_ if warm else None, n_users),
                np.ones((n_users, 1), dtype=self.dtype),
            ]
        )
        item_aug = np.hstack(
            [
                item_factors,
                np.ones((n_items, 1), dtype=self.dtype),
                self._warm_biases(self.item_biases_ if warm else None, n_items),
            ]
        )
        user_aug, item_aug, history = self._train(
            csr,
            (user_aug, item_aug),
            backend=backend,
            callback=callback,
            plateau_tolerance=plateau_tolerance,
            constant_columns=(k + 1, k),  # the two "1" columns
        )
        self.user_biases_ = user_aug[:, k].copy()
        self.item_biases_ = item_aug[:, k + 1].copy()
        self.factors_ = FactorModel(user_aug[:, :k].copy(), item_aug[:, :k].copy())
        self._augmented_factors = FactorModel(user_aug, item_aug)
        history.warm_started = warm
        self.history_ = history
        self._set_train_matrix(matrix)
        self._warn_if_exhausted(history)
        return self

    def _warm_biases(self, previous: Optional[np.ndarray], n_rows: int) -> np.ndarray:
        """Bias column initialisation, shape ``(n_rows, 1)``: previous biases
        where they exist, the cold-start constant 0.01 for new rows (and for
        cold fits)."""
        biases = np.full((n_rows, 1), 0.01, dtype=self.dtype)
        if previous is not None:
            n_kept = min(len(previous), n_rows)
            biases[:n_kept, 0] = np.asarray(previous[:n_kept], dtype=self.dtype)
        return biases

    @property
    def serving_factors_(self) -> FactorModel:
        """Augmented factors (bias columns included) — scoring with these is
        exactly ``1 - exp(-<f_u, f_i> - b_u - b_i - b)``, so scores,
        probabilities and engine-routed rankings keep the bias terms."""
        self._require_fitted()
        return self._augmented_factors
