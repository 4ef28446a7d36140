"""A census of the settable surface of serving, training, runtime, cluster and explanations.

A change that adds (or removes) a public name, a constructor or method
argument or an environment variable has to edit this file, and so has to
say so — instead of every CHANGES.md entry re-counting them by hand."""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro.core
import repro.runtime
from repro.core import io, objective
from repro.core.backends import Backend, SweepWorkspaceStore, get_backend
from repro.core.bias import BiasedOCuLaR
from repro.core.coclusters import extract_coclusters
from repro.core.explain import batch_reports, explain_recommendation
from repro.core.ocular import OCuLaR
from repro.core.optimizer import BlockCoordinateTrainer
from repro.core.r_ocular import ROCuLaR
from repro.data import make_movielens_like
from repro.exceptions import ConvergenceWarning
from repro.parallel.cluster import ClusterExecutor
from repro.runtime import (
    BatchingFrontEnd,
    RecommendResponse,
    RecommenderRuntime,
    ServingGateway,
    WeightedFairQueue,
)
from repro.serving import ScoreBufferPool, TopNEngine, fold_in

SRC = Path(repro.runtime.__file__).resolve().parents[2]


def _parameters(obj) -> tuple:
    return tuple(
        name for name in inspect.signature(obj).parameters if name not in ("self", "cls")
    )


def test_runtime_exports():
    assert sorted(repro.runtime.__all__) == [
        "BatchingFrontEnd",
        "BatchingStats",
        "GatewayClient",
        "GatewayError",
        "GatewayThread",
        "IngestStats",
        "RecommendRequest",
        "RecommendResponse",
        "RecommenderRuntime",
        "ServingGateway",
        "ServingSession",
        "WeightedFairQueue",
    ]


def test_serving_exports():
    import repro.serving

    # One fold-in entry point per input: users by fold_in_users, a grown
    # corpus's new rows by extend_factors.
    assert sorted(repro.serving.__all__) == [
        "BatchServingResult",
        "BufferPoolStats",
        "ScoreBufferPool",
        "SharedCsrSpec",
        "SharedEngineSpec",
        "TopNEngine",
        "TopNResult",
        "attach_engine",
        "clear_fold_in_plan_cache",
        "extend_factors",
        "fold_in_factors",
        "fold_in_users",
        "publish_engine",
        "recommend_folded",
        "serve_sharded",
        "unpublish_engine",
    ]


def test_constructor_arguments():
    assert _parameters(BatchingFrontEnd) == (
        "runtime", "max_delay_ms", "max_batch_users", "adaptive",
    )
    assert _parameters(ServingGateway) == (
        "front", "host", "port", "max_inflight", "max_connection_inflight",
        "max_frame_bytes",
    )
    # Every tenant has the same share: the fair queue has no setting, and
    # the gateway calls nothing of it but push, pop and len.
    assert _parameters(WeightedFairQueue) == ()
    assert sorted(
        name for name in vars(WeightedFairQueue) if not name.startswith("_")
    ) == ["pop", "push"]
    assert _parameters(RecommenderRuntime) == ("executor", "max_workers")
    assert _parameters(TopNEngine) == (
        "train_matrix", "factors", "model", "chunk_size", "dtype", "pipeline",
    )
    assert _parameters(ScoreBufferPool) == ()
    assert _parameters(SweepWorkspaceStore) == ()
    assert _parameters(ClusterExecutor) == (
        "n_nodes", "addresses", "authkey", "task_timeout", "max_task_retries",
        "max_objects",
    )


def test_method_arguments():
    assert _parameters(TopNEngine.from_model) == ("model", "chunk_size", "dtype", "pipeline")
    assert _parameters(TopNEngine.from_factors) == (
        "factors", "train_matrix", "chunk_size", "dtype", "pipeline",
    )
    assert _parameters(TopNEngine.topn) == ("users", "n_items", "exclude_seen", "with_scores")
    assert _parameters(TopNEngine.rank_scored) == (
        "scores", "n_items", "seen", "with_scores", "writable",
    )
    assert _parameters(TopNEngine.effective_chunk_size) == ()
    assert _parameters(RecommenderRuntime.refit) == ("matrix", "callback", "mode")
    assert _parameters(RecommenderRuntime.worker_pids) == ()
    # A serving call leaves a count behind (the e2e SUT reads it), no stats.
    with RecommenderRuntime(executor="serial") as runtime:
        assert runtime.serving_calls == 0
        assert not hasattr(runtime, "last_serving_stats")
    # BiasedOCuLaR scores through serving_factors_ alone, like OCuLaR.
    assert {"score_user", "predict_proba"}.isdisjoint(vars(BiasedOCuLaR))


def test_one_ranking_shape():
    # A served ranking is one TopNResult that carries its own scores: the
    # engine has one ranking entry point per input (users, or score rows),
    # and a response holds no second, parallel score list.
    assert sorted(
        name
        for name, member in inspect.getmembers(TopNEngine)
        if not name.startswith("_") and callable(member)
    ) == [
        "effective_chunk_size", "from_factors", "from_model", "rank_scored",
        "score_chunk", "topn",
    ]
    assert [field.name for field in dataclasses.fields(RecommendResponse)] == [
        "rankings", "generation", "queue_ms", "serve_ms", "batch_id",
        "batch_requests", "batch_users",
    ]


def test_training_arguments():
    # The Armijo constants live in core.objective; a sized or process pool
    # is a ParallelBackend instance passed as ``backend``.
    assert _parameters(OCuLaR) == (
        "n_coclusters", "regularization", "max_iterations", "tolerance", "backend",
        "dtype", "inner_sweeps", "user_weighting", "random_state",
    )
    fit = ("matrix", "callback", "backend", "initial_factors", "plateau_tolerance")
    assert _parameters(OCuLaR.fit) == fit
    assert _parameters(BiasedOCuLaR.fit) == fit
    assert _parameters(BlockCoordinateTrainer) == (
        "regularization", "max_iterations", "tolerance", "backend", "inner_sweeps",
        "plateau_tolerance",
    )
    assert _parameters(BlockCoordinateTrainer.train) == (
        "matrix", "user_factors", "item_factors", "user_weights", "callback",
        "constant_columns",
    )
    # Positive weights exist only in a plan (SweepSide.build).
    assert _parameters(Backend.sweep) == (
        "matrix", "row_factors", "col_factors", "regularization", "plan", "row_range",
    )
    assert _parameters(get_backend) == ("name",)


@pytest.mark.parametrize(
    "model_class", [OCuLaR, ROCuLaR, BiasedOCuLaR], ids=lambda cls: cls.__name__
)
def test_get_params_names_the_constructor(model_class):
    # get_params() is what an archive records and load_model feeds back to
    # the constructor, so the two name the same settings (the subclasses
    # forward OCuLaR's).
    params = model_class(random_state=0).get_params()
    assert tuple(params) == _parameters(OCuLaR)
    assert model_class(**params).get_params() == params
    assert not set(io._RETIRED_PARAMS) & set(params)


def test_archive_with_retired_settings_loads(tmp_path):
    matrix, _ = make_movielens_like(n_users=40, n_items=30, random_state=0)
    model = OCuLaR(n_coclusters=3, max_iterations=2, tolerance=0.0, random_state=0)
    with pytest.warns(ConvergenceWarning):
        model.fit(matrix)
    path = io.save_model(model, tmp_path / "model.npz")
    with np.load(path) as archive:
        arrays = dict(archive)
    header = json.loads(arrays["header"].tobytes().decode("utf-8"))
    header["params"].update(
        init="random", init_scale=1.0, sigma=0.1, beta=0.5, max_backtracks=20,
        n_workers=2, executor="process",
    )
    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    loaded = io.load_model(path)
    assert loaded.get_params() == model.get_params()
    for side in ("user_factors", "item_factors"):
        np.testing.assert_array_equal(
            getattr(loaded.factors_, side), getattr(model.factors_, side)
        )
    assert (loaded.train_matrix.csr() != model.train_matrix.csr()).nnz == 0
    np.testing.assert_array_equal(loaded.score_user(0), model.score_user(0))


def test_fold_in_arguments():
    # Fold-in always solves on the calling thread, from the default start,
    # with the module's interior lift: no backend, init or interior setting.
    budget = ("n_sweeps", "tolerance")
    assert _parameters(fold_in.fold_in_factors) == (
        "item_factors", "interactions", "regularization", *budget,
    )
    assert _parameters(fold_in.fold_in_users) == ("model", "interactions", *budget)
    assert _parameters(fold_in.extend_factors) == ("model", "matrix", *budget)
    assert _parameters(fold_in.recommend_folded) == (
        "engine", "interactions", "model", "n_items", "exclude_seen", *budget,
    )
    assert _parameters(fold_in.fold_in_scores) == ("engine", "csr", "model", *budget)


def _e2e_imports():
    """Every ``from repro... import name`` in the end-to-end benchmark's files."""
    for path in sorted((SRC.parent / "benchmarks" / "e2e").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_the_end_to_end_benchmark_finds_what_it_reads(toy_dataset):
    # benchmarks/e2e is frozen: a src change that breaks it must fail here,
    # not first in the paper harness.  Its imports resolve, and its SUT
    # exports each fitted model's solver settings to the checker.
    imports = list(_e2e_imports())
    assert len(imports) > 20
    for filename, module_name, name in imports:
        module = importlib.import_module(module_name)
        assert hasattr(module, name) or importlib.util.find_spec(
            f"{module_name}.{name}"
        ), f"{filename}: from {module_name} import {name}"
    constants = (objective.ARMIJO_SIGMA, objective.ARMIJO_BETA, objective.MAX_BACKTRACKS)
    for model_class in (OCuLaR, ROCuLaR, BiasedOCuLaR):
        fitted = model_class(
            n_coclusters=2, regularization=3.0, max_iterations=2, random_state=0
        ).fit(toy_dataset.matrix)
        assert fitted.regularization == 3.0
        assert (fitted.sigma, fitted.beta, fitted.max_backtracks) == constants


def test_core_exports():
    assert sorted(repro.core.__all__) == [
        "CoCluster",
        "Explanation",
        "FactorModel",
        "OCuLaR",
        "ROCuLaR",
        "RecommendationReport",
        "TrainingHistory",
        "batch_reports",
        "cocluster_statistics",
        "explain_recommendation",
        "extract_coclusters",
        "load_model",
        "save_model",
    ]


def test_explanation_arguments():
    # One explanation path: a card's limits and membership rule are the
    # constants of core.explain and core.coclusters, not per-call settings;
    # batch_reports is the one way to get ranked cards.
    assert _parameters(explain_recommendation) == ("model", "user", "item", "deal_values")
    assert _parameters(batch_reports) == ("model", "users", "n_items", "deal_values")
    assert _parameters(OCuLaR.explain) == ("user", "item")
    assert _parameters(extract_coclusters) == (
        "factors", "matrix", "membership_threshold", "drop_empty",
    )
    assert importlib.util.find_spec("repro.core.recommend") is None


def test_environment_variables():
    names = {
        name
        for path in SRC.rglob("*.py")
        for name in re.findall(r"\bREPRO_[A-Z0-9_]+\b", path.read_text(encoding="utf-8"))
    }
    assert names == {"REPRO_CLUSTER_TASK_DELAY_MS"}


def test_library_exports():
    # What no caller in src/, benchmarks/ or examples/ used is gone: the
    # timers, format_series, check_non_negative_int, interaction_statistics,
    # repeated_holdout, compare_recommenders and available_backends.
    import repro.core.backends
    import repro.evaluation
    import repro.utils

    assert sorted(repro.utils.__all__) == [
        "check_non_negative_float", "check_positive_int", "check_probability",
        "ensure_rng", "format_table",
    ]
    assert importlib.util.find_spec("repro.utils.timers") is None
    assert sorted(repro.evaluation.__all__) == [
        "EvaluationResult", "GridSearchResult", "average_precision_at_m",
        "cross_validate", "evaluate_curves", "evaluate_recommender", "grid_search",
        "hit_rate_at_m", "ndcg_at_m", "precision_at_m", "recall_at_m",
    ]
    assert sorted(repro.core.backends.__all__) == [
        "Backend", "ParallelBackend", "ReferenceBackend", "SweepPlan", "SweepSide",
        "SweepStats", "SweepWorkspace", "SweepWorkspaceStore", "VectorizedBackend",
        "WorkspaceStats", "get_backend", "nnz_balanced_ranges",
    ]


def test_recommender_contract():
    # A model implements fit and _score_user (and may implement
    # _score_users); the base class owns every reader of a user id.
    from repro.base import Recommender
    from repro.baselines import ItemKNNRecommender, UserKNNRecommender
    from repro.community.bipartite import BipartiteGraph, Community
    from repro.data import PlantedCoClusters

    assert sorted(
        name for name in vars(Recommender) if not name.startswith("_")
    ) == ["fit", "is_fitted", "recommend", "score_user", "score_users", "train_matrix"]
    assert Recommender.__abstractmethods__ == {"fit", "_score_user"}
    assert _parameters(Recommender.score_users) == ("users",)
    assert _parameters(Recommender.recommend) == ("user", "n_items", "exclude_seen")
    gone = {
        ItemKNNRecommender: ("similar_items",),
        UserKNNRecommender: ("explain_neighbors",),
        Community: ("is_cocluster",),
        BipartiteGraph: ("user_of_node",),
        PlantedCoClusters: ("membership_matrix_users", "membership_matrix_items"),
    }
    assert [(owner, name) for owner, names in gone.items() for name in names
            if hasattr(owner, name)] == []
