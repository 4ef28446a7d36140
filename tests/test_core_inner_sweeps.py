"""Tests for the inner-sweeps knob (the Section IV-B single-step design choice)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.init import random_init
from repro.core.ocular import OCuLaR
from repro.core.optimizer import BlockCoordinateTrainer
from repro.exceptions import ConfigurationError


@pytest.fixture
def problem():
    rng = np.random.default_rng(8)
    dense = (rng.random((25, 18)) < 0.25).astype(float)
    dense[0, 0] = 1.0
    matrix = sp.csr_matrix(dense)
    factors = random_init(matrix, 4, random_state=8)
    return matrix, factors


def test_inner_sweeps_must_be_positive():
    with pytest.raises(ConfigurationError):
        BlockCoordinateTrainer(inner_sweeps=0)
    with pytest.raises(ConfigurationError):
        OCuLaR(inner_sweeps=-1)


def test_more_inner_sweeps_never_worse_per_outer_iteration(problem):
    """Solving each block more exactly gives at least as much progress per outer iteration."""
    matrix, (user_factors, item_factors) = problem
    objectives = {}
    for inner in (1, 4):
        trainer = BlockCoordinateTrainer(
            regularization=1.0, max_iterations=2, tolerance=0.0, inner_sweeps=inner
        )
        _, _, history = trainer.train(matrix, user_factors, item_factors)
        objectives[inner] = history.final_objective
    assert objectives[4] <= objectives[1] + 1e-6


def test_inner_sweeps_objective_still_monotone(problem):
    matrix, (user_factors, item_factors) = problem
    trainer = BlockCoordinateTrainer(
        regularization=1.0, max_iterations=5, tolerance=0.0, inner_sweeps=3
    )
    _, _, history = trainer.train(matrix, user_factors, item_factors)
    values = history.objective_values
    assert all(later <= earlier + 1e-8 for earlier, later in zip(values, values[1:]))


def test_ocular_exposes_inner_sweeps_in_params(toy_dataset):
    model = OCuLaR(n_coclusters=3, max_iterations=5, inner_sweeps=2, random_state=0)
    assert model.get_params()["inner_sweeps"] == 2
    model.fit(toy_dataset.matrix)
    assert model.is_fitted
