"""Tests for model persistence (save_model / load_model)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.io import load_model, save_model
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.exceptions import DataError, NotFittedError


class TestSaveModel:
    def test_round_trip_preserves_scores_and_recommendations(self, fitted_toy_model, tmp_path):
        path = save_model(fitted_toy_model, tmp_path / "model.npz")
        restored = load_model(path)
        np.testing.assert_allclose(
            restored.score_user(6), fitted_toy_model.score_user(6)
        )
        np.testing.assert_array_equal(
            restored.recommend(6, n_items=3), fitted_toy_model.recommend(6, n_items=3)
        )
        assert restored.predict_proba(6, 4) == pytest.approx(
            fitted_toy_model.predict_proba(6, 4)
        )

    def test_round_trip_preserves_hyperparameters(self, fitted_toy_model, tmp_path):
        restored = load_model(save_model(fitted_toy_model, tmp_path / "model.npz"))
        assert restored.n_coclusters == fitted_toy_model.n_coclusters
        assert restored.regularization == fitted_toy_model.regularization
        assert isinstance(restored, OCuLaR)

    def test_explanations_work_after_reload(self, fitted_toy_model, tmp_path):
        restored = load_model(save_model(fitted_toy_model, tmp_path / "model.npz"))
        explanation = restored.explain(6, 4)
        assert explanation.confidence == pytest.approx(fitted_toy_model.predict_proba(6, 4))

    def test_labels_survive_round_trip(self, b2b_small, tmp_path):
        model = OCuLaR(n_coclusters=5, regularization=1.0, max_iterations=20, random_state=0)
        model.fit(b2b_small.matrix)
        restored = load_model(save_model(model, tmp_path / "b2b"))
        assert restored.train_matrix.label_of_user(0) == b2b_small.client_names[0]
        assert restored.train_matrix.label_of_item(0) == b2b_small.product_names[0]

    def test_suffix_added_when_missing(self, fitted_toy_model, tmp_path):
        path = save_model(fitted_toy_model, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_r_ocular_round_trip(self, toy_dataset, tmp_path):
        model = ROCuLaR(n_coclusters=3, regularization=0.1, max_iterations=20, random_state=0)
        model.fit(toy_dataset.matrix)
        restored = load_model(save_model(model, tmp_path / "r.npz"))
        assert isinstance(restored, ROCuLaR)
        np.testing.assert_allclose(restored.score_user(6), model.score_user(6))

    def test_r_ocular_round_trip_keeps_inner_sweeps(self, toy_dataset, tmp_path):
        model = ROCuLaR(n_coclusters=3, max_iterations=5, inner_sweeps=2, random_state=0)
        model.fit(toy_dataset.matrix)
        restored = load_model(save_model(model, tmp_path / "r.npz"))
        assert restored.inner_sweeps == 2
        assert restored.get_params() == model.get_params()

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_model(OCuLaR(), tmp_path / "model.npz")


class TestLoadModel:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "missing.npz")

    def test_non_model_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(DataError):
            load_model(path)

    def test_archive_with_retired_plateau_settings_loads(self, tmp_path):
        # Archives written before the plateau settings left the model
        # constructor record them in their header; loading ignores them.
        params = dict(OCuLaR(n_coclusters=2, random_state=0).get_params())
        params.update(plateau_tolerance=None, plateau_patience=2)
        header = {
            "format_version": 1,
            "model_class": "ROCuLaR",
            "params": dict(params, user_weighting="relative"),
            "n_users": 3,
            "n_items": 2,
            "user_labels": None,
            "item_labels": None,
        }
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
            user_factors=np.full((3, 2), 0.5),
            item_factors=np.full((2, 2), 0.5),
            train_users=np.array([0, 1, 2]),
            train_items=np.array([0, 1, 1]),
        )
        restored = load_model(path)
        assert isinstance(restored, ROCuLaR)
        assert not hasattr(restored, "plateau_patience")
        assert restored.get_params()["n_coclusters"] == 2
        assert restored.score_user(0).shape == (2,)

    def test_history_not_persisted(self, fitted_toy_model, tmp_path):
        restored = load_model(save_model(fitted_toy_model, tmp_path / "model.npz"))
        assert restored.history_ is None
        assert restored.is_fitted
