"""The one factor initialisation a cold fit starts from.

The block-coordinate scheme needs a feasible (non-negative) pair of
starting factors.  A cold fit draws them here: uniform values scaled so the
expected affinity ``<f_u, f_i>`` roughly matches the empirical density of
the matrix, which keeps the first sweeps well-conditioned across corpora of
very different sparsity.  A warm fit brings its own pair instead.  Either
way the start reaches :meth:`BlockCoordinateTrainer.train
<repro.core.optimizer.BlockCoordinateTrainer.train>` as its two positional
factor arrays, and the trainer alone checks it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomStateLike, ensure_rng
from repro.utils.validation import check_float_dtype


def _target_affinity(matrix: sp.csr_matrix) -> float:
    """Affinity whose model probability equals the matrix density.

    Solving ``1 - exp(-a) = density`` for ``a``; floored to keep the
    initialisation away from zero on extremely sparse matrices.
    """
    density = matrix.nnz / float(matrix.shape[0] * matrix.shape[1])
    density = min(max(density, 1e-6), 0.99)
    return max(-np.log(1.0 - density), 1e-3)


def random_init(
    matrix: sp.csr_matrix,
    n_coclusters: int,
    random_state: RandomStateLike = None,
    dtype=np.float64,
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform random non-negative factors calibrated to the matrix density.

    Entries are drawn from ``U(0, 2m)`` where ``m`` is chosen so that the
    expected inner product of a random user/item pair equals the affinity
    matching the matrix density.  The factors are returned in ``dtype``
    (float64 default, float32 supported); the draw itself always happens in
    float64 so the float32 initialisation is the rounded float64 one, not a
    different random stream.

    ``random_state`` accepts an int seed, ``None``, or a pre-seeded
    :class:`numpy.random.Generator`.  A Generator is used **as-is** (not
    re-seeded or copied): successive calls advance the caller's stream, which
    is how warm-start and cold-refit paths share one RNG stream without any
    global state.  This is a contract — the incremental-refit experiments
    rely on it — covered by a regression test.
    """
    if n_coclusters <= 0:
        raise ConfigurationError(f"n_coclusters must be positive, got {n_coclusters}")
    dtype = check_float_dtype(dtype, "dtype")
    rng = ensure_rng(random_state)
    n_users, n_items = matrix.shape
    # E[<f_u, f_i>] = K * E[f]^2 = K * m^2 for entries ~ U(0, 2m).
    high = 2.0 * np.sqrt(_target_affinity(matrix) / n_coclusters)
    user_factors = rng.uniform(0.0, high, size=(n_users, n_coclusters))
    item_factors = rng.uniform(0.0, high, size=(n_items, n_coclusters))
    return (
        user_factors.astype(dtype, copy=False),
        item_factors.astype(dtype, copy=False),
    )
