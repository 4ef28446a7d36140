"""Core of the reproduction: the OCuLaR family of overlapping co-cluster recommenders."""

from repro.core.factors import FactorModel
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.core.coclusters import CoCluster, extract_coclusters, cocluster_statistics
from repro.core.explain import (
    Explanation,
    RecommendationReport,
    batch_reports,
    explain_recommendation,
)
from repro.core.optimizer import TrainingHistory
from repro.core.io import save_model, load_model

__all__ = [
    "save_model",
    "load_model",
    "FactorModel",
    "OCuLaR",
    "ROCuLaR",
    "CoCluster",
    "extract_coclusters",
    "cocluster_statistics",
    "Explanation",
    "explain_recommendation",
    "RecommendationReport",
    "batch_reports",
    "TrainingHistory",
]
