"""Model persistence: save and load fitted OCuLaR models.

A deployment (Section VIII of the paper) trains the model in a batch job and
serves recommendations elsewhere, so the fitted factors need to move between
processes.  :func:`save_model` writes the hyper-parameters and the fitted
factor matrices to a single ``.npz`` archive; :func:`load_model` restores a
ready-to-score model.  The training interaction matrix is stored too (it is
needed for excluding seen items and for building explanations), in sparse
coordinate form.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Type, Union

import numpy as np

from repro.core.factors import FactorModel
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.data.interactions import InteractionMatrix
from repro.exceptions import DataError, NotFittedError

PathLike = Union[str, Path]

#: Registry of model classes that can be round-tripped.
_MODEL_CLASSES: dict[str, Type[OCuLaR]] = {
    "OCuLaR": OCuLaR,
    "ROCuLaR": ROCuLaR,
}

#: Format version written into every archive; bump on breaking layout changes.
FORMAT_VERSION = 1

#: Settings older archives record that models no longer take; ignored on load.
_RETIRED_PARAMS = ("plateau_tolerance", "plateau_patience", "init", "init_scale", "sigma",
                   "beta", "max_backtracks", "n_workers", "executor")


def save_model(model: OCuLaR, path: PathLike) -> Path:
    """Serialise a fitted OCuLaR (or R-OCuLaR) model to ``path``.

    Parameters
    ----------
    model:
        A fitted model.  Only the hyper-parameters, the fitted factors and
        the training matrix are stored — the optimisation history is not.
    path:
        Destination file; the ``.npz`` suffix is appended when missing.

    Returns
    -------
    pathlib.Path
        The path actually written.
    """
    if not model.is_fitted or model.factors_ is None:
        raise NotFittedError("only fitted models can be saved")
    class_name = type(model).__name__
    if class_name not in _MODEL_CLASSES:
        raise DataError(
            f"persistence supports {sorted(_MODEL_CLASSES)}, got {class_name}"
        )

    destination = Path(path)
    if destination.suffix != ".npz":
        destination = destination.with_suffix(destination.suffix + ".npz")
    destination.parent.mkdir(parents=True, exist_ok=True)

    params = dict(model.get_params())
    if not isinstance(params.get("random_state"), (int, type(None))):
        params["random_state"] = None

    train = model.train_matrix
    pairs = train.pairs()
    header = {
        "format_version": FORMAT_VERSION,
        "model_class": class_name,
        "params": params,
        "n_users": train.n_users,
        "n_items": train.n_items,
        "user_labels": train.user_labels,
        "item_labels": train.item_labels,
    }
    np.savez_compressed(
        destination,
        header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        user_factors=model.factors_.user_factors,
        item_factors=model.factors_.item_factors,
        train_users=pairs[:, 0],
        train_items=pairs[:, 1],
    )
    return destination


def load_model(path: PathLike) -> OCuLaR:
    """Restore a model previously written by :func:`save_model`.

    The returned model is ready for :meth:`~repro.base.Recommender.recommend`,
    :meth:`~repro.core.ocular.OCuLaR.predict_proba`,
    :meth:`~repro.core.ocular.OCuLaR.coclusters` and
    :meth:`~repro.core.ocular.OCuLaR.explain`; its ``history_`` is ``None``
    because the optimisation trajectory is not persisted.
    """
    source = Path(path)
    if not source.exists():
        raise DataError(f"model file not found: {source}")
    with np.load(source, allow_pickle=False) as archive:
        try:
            header = json.loads(bytes(archive["header"].tobytes()).decode("utf-8"))
            user_factors = archive["user_factors"]
            item_factors = archive["item_factors"]
            train_users = archive["train_users"]
            train_items = archive["train_items"]
        except KeyError as exc:
            raise DataError(f"{source} is not a repro model archive") from exc

    if header.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {header.get('format_version')!r}"
        )
    class_name = header.get("model_class")
    model_class = _MODEL_CLASSES.get(class_name)
    if model_class is None:
        raise DataError(f"unknown model class {class_name!r} in {source}")

    params = {
        name: value
        for name, value in header["params"].items()
        if name not in _RETIRED_PARAMS
    }
    model = model_class(**params)

    matrix = InteractionMatrix.from_pairs(
        np.column_stack((train_users, train_items)),
        n_users=int(header["n_users"]),
        n_items=int(header["n_items"]),
        user_labels=header.get("user_labels"),
        item_labels=header.get("item_labels"),
    )
    model.factors_ = FactorModel(user_factors, item_factors)
    model._set_train_matrix(matrix)
    return model
