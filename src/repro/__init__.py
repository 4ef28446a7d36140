"""repro — reproduction of "Scalable and Interpretable Product Recommendations
via Overlapping Co-Clustering" (Heckel, Vlachos, Parnell, Duenner; ICDE 2017).

The package implements the OCuLaR family of recommenders, the baselines the
paper compares against, the community-detection comparators of its Figure 2,
and the full evaluation/benchmark harness that regenerates every table and
figure of the paper's experimental section.

Quick start::

    from repro import OCuLaR
    from repro.data import make_movielens_like, train_test_split
    from repro.evaluation import evaluate_recommender

    matrix = make_movielens_like()
    split = train_test_split(matrix, random_state=0)
    model = OCuLaR(n_coclusters=50, regularization=10.0, random_state=0).fit(split.train)
    print(evaluate_recommender(model, split, m=50).as_dict())
    print(model.explain(user=0, item=int(model.recommend(0, 1)[0])).to_text())
"""

from repro.api import RecommendRequest, RecommendResponse
from repro.base import Recommender
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.core.bias import BiasedOCuLaR
from repro.core.factors import FactorModel
from repro.core.io import load_model, save_model
from repro.data.interactions import InteractionMatrix
from repro.exceptions import (
    ReproError,
    DataError,
    ConfigurationError,
    NotFittedError,
    EvaluationError,
)

__version__ = "1.0.0"

__all__ = [
    "Recommender",
    "RecommendRequest",
    "RecommendResponse",
    "OCuLaR",
    "ROCuLaR",
    "BiasedOCuLaR",
    "FactorModel",
    "InteractionMatrix",
    "save_model",
    "load_model",
    "ReproError",
    "DataError",
    "ConfigurationError",
    "NotFittedError",
    "EvaluationError",
    "__version__",
]
