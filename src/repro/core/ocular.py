"""The OCuLaR recommender (Overlapping co-CLuster Recommendation).

This is the paper's primary contribution (Section IV): a one-class
collaborative filtering model whose non-negative factors encode overlapping
co-cluster memberships, fitted by alternating single projected-gradient steps
with Armijo backtracking, and whose recommendations come with co-cluster
based explanations.

Typical use::

    from repro import OCuLaR
    from repro.data import make_movielens_like, train_test_split

    matrix = make_movielens_like()
    split = train_test_split(matrix, random_state=0)
    model = OCuLaR(n_coclusters=50, regularization=10.0, random_state=0)
    model.fit(split.train)
    top = model.recommend(user=3, n_items=10)
    explanation = model.explain(user=3, item=int(top[0]))
    print(explanation.to_text())
"""

from __future__ import annotations

import warnings
from typing import List, Optional

import numpy as np

from repro.base import Recommender
from repro.core.backends import Backend
from repro.core.coclusters import CoCluster, extract_coclusters
from repro.core.factors import FactorModel
from repro.core.init import random_init
from repro.core.objective import (
    ARMIJO_BETA,
    ARMIJO_SIGMA,
    MAX_BACKTRACKS,
    relative_user_weights,
)
from repro.core.optimizer import BlockCoordinateTrainer, TrainingHistory
from repro.data.interactions import InteractionMatrix
from repro.exceptions import ConfigurationError, ConvergenceWarning
from repro.utils.rng import RandomStateLike
from repro.utils.validation import (
    check_float_dtype,
    check_non_negative_float,
    check_positive_int,
)


class OCuLaR(Recommender):
    """Overlapping co-cluster recommender for one-class feedback.

    Parameters
    ----------
    n_coclusters:
        Number of co-clusters ``K``.  The paper selects it (together with
        ``regularization``) by cross-validated grid search; 100-200 works
        well on MovieLens-scale data.
    regularization:
        L2 penalty ``lambda`` on the factors.  ``lambda > 0`` makes every
        block subproblem strongly convex; ``lambda = 0`` is allowed but both
        the paper (Figure 6) and our tests show it hurts accuracy.
    max_iterations:
        Cap on the number of outer iterations (item sweep + user sweep).
    tolerance:
        Relative objective improvement below which training stops
        ("convergence is declared if Q stops decreasing").
    backend:
        ``"vectorized"`` (default, batched NumPy — the GPU-style kernel),
        ``"reference"`` (per-row loop — the CPU-style transcription), or
        ``"parallel"`` (nnz-balanced row shards of the vectorized sweeps
        fanned across a thread pool of the CPU count, built and shut down
        by each fit; factors are bit-identical to ``"vectorized"`` for
        every executor and shard count).  A sized or process pool is a
        :class:`~repro.core.backends.Backend` instance the fits borrow,
        ``ParallelBackend(n_workers=8, executor="process")``, whose
        owner shuts it down.
    dtype:
        Training precision, ``"float64"`` (default) or ``"float32"``.
        float32 halves factor memory for large fits; the fitted factors
        keep this dtype.
    inner_sweeps:
        Projected-gradient sweeps per block before alternating (default 1,
        the paper's recommendation; larger values solve each block more
        exactly and are used by the ablation benchmark).
    user_weighting:
        ``None`` for the plain OCuLaR likelihood; ``"relative"`` for the
        R-OCuLaR weighting of Section V (see :class:`~repro.core.r_ocular.ROCuLaR`).
    random_state:
        Seed or pre-seeded :class:`numpy.random.Generator` controlling the
        cold start, :func:`~repro.core.init.random_init` (a Generator is used
        as-is, so warm and cold paths can share one RNG stream).

    Attributes
    ----------
    sigma, beta, max_backtracks:
        The fixed Armijo constants of the line search (paper Section IV-D),
        :data:`~repro.core.objective.ARMIJO_SIGMA`,
        :data:`~repro.core.objective.ARMIJO_BETA` and
        :data:`~repro.core.objective.MAX_BACKTRACKS`; read-only class
        attributes, not settings.
    factors_:
        The fitted :class:`~repro.core.factors.FactorModel`.
    history_:
        :class:`~repro.core.optimizer.TrainingHistory` of the fit.
    """

    sigma = ARMIJO_SIGMA
    beta = ARMIJO_BETA
    max_backtracks = MAX_BACKTRACKS

    def __init__(
        self,
        n_coclusters: int = 50,
        regularization: float = 10.0,
        max_iterations: int = 100,
        tolerance: float = 1e-4,
        backend: Backend | str = "vectorized",
        dtype: str = "float64",
        inner_sweeps: int = 1,
        user_weighting: Optional[str] = None,
        random_state: RandomStateLike = None,
    ) -> None:
        self.n_coclusters = check_positive_int(n_coclusters, "n_coclusters")
        self.regularization = check_non_negative_float(regularization, "regularization")
        self.max_iterations = check_positive_int(max_iterations, "max_iterations")
        self.tolerance = check_non_negative_float(tolerance, "tolerance")
        self.inner_sweeps = check_positive_int(inner_sweeps, "inner_sweeps")
        if user_weighting not in (None, "relative"):
            raise ConfigurationError(
                f"user_weighting must be None or 'relative', got {user_weighting!r}"
            )
        self.backend = backend
        self.dtype = check_float_dtype(dtype, "dtype")
        self.user_weighting = user_weighting
        self.random_state = random_state

        self.factors_: Optional[FactorModel] = None
        self.history_: Optional[TrainingHistory] = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(
        self,
        matrix: InteractionMatrix,
        callback=None,
        backend: Optional[Backend] = None,
        initial_factors=None,
        plateau_tolerance: Optional[float] = None,
    ) -> "OCuLaR":
        """Fit the co-cluster affiliation factors to a one-class matrix.

        Parameters
        ----------
        matrix:
            Training interactions.
        callback:
            Optional ``callback(iteration, history)``; returning ``True``
            stops training early (used by the time-budgeted benchmarks).
        backend:
            Optional :class:`~repro.core.backends.Backend` *instance* that
            overrides the configured backend for this fit only.  It is
            **borrowed** — never shut down by the fit — which is how
            :class:`~repro.runtime.RecommenderRuntime` threads one warm
            worker pool through every fit it runs.  The model's configured
            ``backend`` is left untouched.
        initial_factors:
            Optional warm start: a fitted
            :class:`~repro.core.factors.FactorModel` or a
            ``(user_factors, item_factors)`` tuple whose shapes match
            ``matrix`` and ``n_coclusters``.  The factors are cast to this
            model's ``dtype`` and must be finite and non-negative; the
            trainer checks and copies them (the source model is never
            mutated) — previous-generation factors extended via
            :func:`repro.serving.fold_in.extend_factors` qualify.  When
            ``None`` (default) the fit starts from
            :func:`~repro.core.init.random_init`.
        plateau_tolerance:
            Optional plateau early-stop for this fit: stop once the relative
            objective improvement stays below this value for two consecutive
            iterations (the trainer's fixed patience).  ``None`` (default)
            disables the rule; the runtime's warm refits pass
            :data:`~repro.runtime.service.DEFAULT_WARM_PLATEAU_TOLERANCE`
            (``3e-4``) so they stop after the few sweeps they need.  See
            :class:`~repro.core.optimizer.BlockCoordinateTrainer`.
        """
        csr = matrix.csr()
        user_factors, item_factors, history = self._train(
            csr,
            self._initial_factors(csr, initial_factors),
            backend=backend,
            callback=callback,
            plateau_tolerance=plateau_tolerance,
        )
        history.warm_started = initial_factors is not None
        self.factors_ = FactorModel(user_factors, item_factors)
        self.history_ = history
        self._set_train_matrix(matrix)
        self._warn_if_exhausted(history)
        return self

    def _warn_if_exhausted(self, history: TrainingHistory) -> None:
        """Warn once per fit that used every iteration without converging."""
        if not history.converged and history.n_iterations >= self.max_iterations:
            warnings.warn(
                "OCuLaR training reached max_iterations without meeting the "
                "convergence tolerance",
                ConvergenceWarning,
                stacklevel=3,
            )

    def _initial_factors(self, csr, initial_factors):
        """The fit's start: the warm start ``initial_factors`` unpacked into
        this model's dtype, or this model's fresh initialisation."""
        if initial_factors is not None:
            return self._coerce_initial_factors(initial_factors)
        return random_init(
            csr, self.n_coclusters, random_state=self.random_state, dtype=self.dtype
        )

    def _coerce_initial_factors(self, initial_factors):
        """A warm start as a ``(user_factors, item_factors)`` pair in this
        model's dtype.

        Accepts a :class:`~repro.core.factors.FactorModel` or a pair and
        checks ``K`` against ``n_coclusters``; the trainer checks the rest
        (rows, finiteness, non-negativity) and makes the fit's one copy.
        """
        if isinstance(initial_factors, FactorModel):
            pair = (initial_factors.user_factors, initial_factors.item_factors)
        else:
            try:
                pair = tuple(initial_factors)
            except TypeError:
                pair = ()
            if len(pair) != 2:
                raise ConfigurationError(
                    "initial_factors must be a FactorModel or a "
                    "(user_factors, item_factors) tuple"
                )
        pair = tuple(np.asarray(side, dtype=self.dtype) for side in pair)
        for name, array in zip(("user_factors", "item_factors"), pair):
            if array.ndim != 2 or array.shape[1] != self.n_coclusters:
                raise ConfigurationError(
                    f"initial {name} has shape {array.shape}, expected "
                    f"{self.n_coclusters} columns (n_coclusters)"
                )
        return pair

    def _train(
        self,
        csr,
        start,
        backend: Optional[Backend],
        callback,
        plateau_tolerance: Optional[float],
        constant_columns=None,
    ):
        """One trainer run from the ``(user, item)`` factors ``start``.

        The trainer checks and copies ``start`` whether it is cold or warm.
        With ``backend=None`` the trainer resolves the model's configured
        backend (and owns it when that is a name); with an instance the
        trainer borrows it.  A non-``Backend`` override is rejected here,
        so every fit entry point (:class:`OCuLaR` and its subclasses)
        enforces the borrowed-instance-only contract identically.
        """
        if backend is not None and not isinstance(backend, Backend):
            raise ConfigurationError(
                "the fit backend override must be a Backend instance (a borrowed "
                f"warm backend), got {backend!r}; configure names on the model"
            )
        trainer = BlockCoordinateTrainer(
            regularization=self.regularization,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            backend=self.backend if backend is None else backend,
            inner_sweeps=self.inner_sweeps,
            plateau_tolerance=plateau_tolerance,
        )
        try:
            user_factors, item_factors, history = trainer.train(
                csr,
                *start,
                user_weights=self._user_weights(csr),
                callback=callback,
                constant_columns=constant_columns,
            )
        finally:
            # A name-configured backend is owned by this fit (pools and
            # shared-memory segments must not outlive it), while an instance
            # — including a runtime's warm backend — is borrowed and
            # survives.
            trainer.shutdown()
        return user_factors, item_factors, history

    def _user_weights(self, csr) -> Optional[np.ndarray]:
        """Positive-term weights; ``None`` for OCuLaR, ``w_u`` for R-OCuLaR."""
        if self.user_weighting == "relative":
            return relative_user_weights(csr)
        return None

    # ------------------------------------------------------------------ #
    # Scoring / recommending
    # ------------------------------------------------------------------ #
    @property
    def serving_factors_(self) -> FactorModel:
        """The factor model whose probability formula *is* this model's scoring.

        :meth:`score_user`, :meth:`score_users`, :meth:`predict_proba` and
        the serving engine (one BLAS call per chunk) all score through these
        factors.  A subclass whose scoring differs from the plain
        ``1 - exp(-<f_u, f_i>)`` over :attr:`factors_` (e.g. the
        bias-extended model) overrides this property alone.
        """
        self._require_fitted()
        assert self.factors_ is not None
        return self.factors_

    def _score_user(self, user: int) -> np.ndarray:
        """Probabilities ``P[r_ui = 1]`` for every item for ``user``."""
        return self.serving_factors_.user_scores(user)

    def _score_users(self, users: np.ndarray) -> np.ndarray:
        """Probabilities for a batch of users, one matrix product."""
        return self.serving_factors_.score_matrix(users)

    def predict_proba(self, user: int, item: int) -> float:
        """Probability that ``user`` is interested in ``item``."""
        matrix = self.train_matrix
        return self.serving_factors_.predict_proba(
            matrix._check_user(user), matrix._check_item(item)
        )

    # ------------------------------------------------------------------ #
    # Interpretability
    # ------------------------------------------------------------------ #
    def coclusters(self, membership_threshold: Optional[float] = None) -> List[CoCluster]:
        """Extract the overlapping co-clusters implied by the fitted factors.

        See :func:`repro.core.coclusters.extract_coclusters` for the
        thresholding rule and the returned structure.
        """
        self._require_fitted()
        assert self.factors_ is not None
        return extract_coclusters(
            self.factors_, self.train_matrix, membership_threshold=membership_threshold
        )

    def explain(self, user: int, item: int):
        """Explain why ``item`` would be recommended to ``user``.

        Returns an :class:`~repro.core.explain.Explanation`; its
        :meth:`~repro.core.explain.Explanation.to_text` renders the paper's
        Figure 3 style rationale.
        """
        from repro.core.explain import explain_recommendation

        self._require_fitted()
        return explain_recommendation(self, user, item)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def user_factors_(self) -> np.ndarray:
        """Fitted user affiliation matrix, shape ``(n_users, K)``."""
        self._require_fitted()
        assert self.factors_ is not None
        return self.factors_.user_factors

    @property
    def item_factors_(self) -> np.ndarray:
        """Fitted item affiliation matrix, shape ``(n_items, K)``."""
        self._require_fitted()
        assert self.factors_ is not None
        return self.factors_.item_factors

    def get_params(self) -> dict:
        """Hyper-parameters as a dictionary (mirrors scikit-learn's convention)."""
        return {
            "n_coclusters": self.n_coclusters,
            "regularization": self.regularization,
            "max_iterations": self.max_iterations,
            "tolerance": self.tolerance,
            "backend": self.backend if isinstance(self.backend, str) else self.backend.name,
            "dtype": self.dtype.name,
            "inner_sweeps": self.inner_sweeps,
            "user_weighting": self.user_weighting,
            "random_state": self.random_state,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_coclusters={self.n_coclusters}, "
            f"regularization={self.regularization}, backend={self.backend!r})"
        )
