"""The id rule of every recommender, and bit-identity guards for its readers.

Every reader of a known user or item id — a model's ``score_user``,
``score_users``, ``recommend``, ``predict_proba`` and ``explain``, the
training matrix's per-user and per-item views, and the serving engine's
``score_chunk`` — reads the id by the package's integer rule and range, so
an id that names no known user or item (a fraction, a negative index, one
past the end, one past int64, NaN) raises a typed error instead of serving
some other user's row.

The digests are sha256 of what those readers hand back for valid ids,
recorded before the per-model id checks moved into ``Recommender`` and
``InteractionMatrix``.  A change that moves one of them changed an output;
do not re-record a digest to make it pass.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from repro.baselines import (
    BPRRecommender,
    ItemKNNRecommender,
    PopularityRecommender,
    UserKNNRecommender,
    WeightedALSRecommender,
)
from repro.core.bias import BiasedOCuLaR
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.data import make_movielens_like
from repro.exceptions import ConfigurationError, DataError
from repro.serving import TopNEngine

_OCULAR = dict(n_coclusters=4, regularization=3.0, max_iterations=5, tolerance=0.0, random_state=0)

MODELS = {
    "OCuLaR": lambda: OCuLaR(**_OCULAR),
    "ROCuLaR": lambda: ROCuLaR(**_OCULAR),
    "BiasedOCuLaR": lambda: BiasedOCuLaR(**_OCULAR),
    "Popularity": PopularityRecommender,
    "ItemKNN": lambda: ItemKNNRecommender(n_neighbors=5),
    "UserKNN": lambda: UserKNNRecommender(n_neighbors=5),
    "BPR": lambda: BPRRecommender(n_factors=4, n_epochs=3, random_state=0),
    "WALS": lambda: WeightedALSRecommender(n_factors=4, n_iterations=3, random_state=0),
}
OCULAR_FAMILY = ("OCuLaR", "ROCuLaR", "BiasedOCuLaR")


@pytest.fixture(scope="module")
def matrix():
    matrix, _ = make_movielens_like(n_users=40, n_items=30, random_state=0)
    return matrix


@pytest.fixture(scope="module")
def fitted(matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {name: build().fit(matrix) for name, build in MODELS.items()}


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        chunk = np.ascontiguousarray(array).tobytes()
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Bit-identity for valid ids
# --------------------------------------------------------------------------- #
_PINNED = {
    "OCuLaR": {
        "score_user": "f21cdaee723011fa80018f3181d174b3b9728e4bb03c2328d5b433a49942872e",
        "score_users": "12d2d308efdd030c757012457cd94e56ac44ad9ea7d76fe0e0a3d70a11e0c54b",
        "recommend": "8a46493430b1659a09cf1f1106a106611cbb91c45326886e3ae2bd4f371b84cd",
        "predict_proba": "12d2d308efdd030c757012457cd94e56ac44ad9ea7d76fe0e0a3d70a11e0c54b",
    },
    "ROCuLaR": {
        "score_user": "5509ead81341c8d0c1a06171bc18437b6b4f9036aef17d8dae226df32b87707e",
        "score_users": "516a6bdebf1231d4af9310422d1bc22403fcaeb77431d277236fcf0aaad6247b",
        "recommend": "cd18755504494fbe5e2d852855855ef926c1a82bf51103e12e70b1772ceeaa9a",
        "predict_proba": "516a6bdebf1231d4af9310422d1bc22403fcaeb77431d277236fcf0aaad6247b",
    },
    "BiasedOCuLaR": {
        "score_user": "d475512ed9ff98a5e6fe0f7abcdba0ee3103cc4c27331cbda358e12fff1ea242",
        "score_users": "86da40f97e9f2666bd23f3b7ec14fe76db202a47cf278c043f7ed6d9335469c3",
        "recommend": "6bb80eaf91d85f221e52bddb4b9510ff6a0177093d0602c6005bf60b7788bcda",
        "predict_proba": "86da40f97e9f2666bd23f3b7ec14fe76db202a47cf278c043f7ed6d9335469c3",
    },
    "Popularity": {
        "score_user": "980d69fb7b4a6d9d7793eda952da5677d609560929a07ed166cedc52f90c6e67",
        "score_users": "521238ad93c0474e6247d3d863604cac9dfc92551046f9cfd588ba223e2bc076",
        "recommend": "6050dcb894b24212ccd385610caca2b95acd333c4cae7578c4bcc3730aba12ec",
    },
    "ItemKNN": {
        "score_user": "b0cd50fcb2879675be80b43222e9f55957bc26f9eea864a39c1b71fe2480698e",
        "score_users": "b2061311cba1a4a71dc25332aa39bc425ed84f8cb339940354ad9adf1121f2de",
        "recommend": "fb887652785ddcded3b0f02c8cbacf12ff3462920a1dd2f7b349f82ff899e36a",
    },
    "UserKNN": {
        "score_user": "270bac0821a3394fb8a758fe4fa59994438ff5ab75d4858529be76821c5577b3",
        "score_users": "5e5c91573d6ce472b165b49f0288408f81f35db255ef7c5faa53b61f9719ce4a",
        "recommend": "e95a1683a2117a7d02550fff7c596b12bb8d1943ae4a620e28177dca4b6b5ec9",
    },
    "BPR": {
        "score_user": "6e0ff1143ef45ae367e387f829d25e728c289c0624c282f50a2e220224a7aa88",
        "score_users": "d55e396034ee3b3c0d875e264819336eaa4b328f69659582237e75af925983db",
        "recommend": "5dac3a412c08137460aae722e75787bbd1603d163193b51d9920eb55fd0f5dad",
    },
    "WALS": {
        "score_user": "e003cdcd1f08ac5d2c147ad18396c499428eb9074f7541c3e06bd8a679f4a468",
        "score_users": "7822f1e4f4ab4acc198d3eb0825c556aebd6acbc5cf7cd45a66ee42ca5f217e3",
        "recommend": "2a656e77e999b5f4e4ac5d6a20a59c4d2dd332f3b9c1b41b8d96c7e5ba1b36b6",
    },
    "engine-OCuLaR": {
        "score_chunk": "d91669193f0713eb6fe11696c10eb220c3960314935bb1e632fad290e234dc4e",
        "topn": "965fe11ff49b069532546ab0d0a93bd4e80907a87c67c2f050c26e2949aeb423",
    },
    "engine-ItemKNN": {
        "score_chunk": "b2061311cba1a4a71dc25332aa39bc425ed84f8cb339940354ad9adf1121f2de",
        "topn": "d4b25dcca30269e4fe370fff9bd6b31d009826aa156d81b7f6f1f7d84a14b56f",
    },
}


def _scoring_digests(model, matrix) -> dict:
    users = range(matrix.n_users)
    digests = {
        "score_user": _digest(model.score_user(user) for user in users),
        "score_users": _digest([model.score_users(users)]),
        "recommend": _digest(model.recommend(user, 10) for user in users),
    }
    if hasattr(model, "predict_proba"):
        grid = [
            [model.predict_proba(user, item) for item in range(matrix.n_items)]
            for user in users
        ]
        digests["predict_proba"] = _digest([np.array(grid)])
    return digests


@pytest.mark.parametrize("name", list(MODELS))
def test_scoring_readers_are_bit_identical(name, fitted, matrix):
    assert _scoring_digests(fitted[name], matrix) == _PINNED[name]


@pytest.mark.parametrize("name", ["OCuLaR", "ItemKNN"], ids=["factor-path", "model-path"])
def test_engine_readers_are_bit_identical(name, fitted, matrix):
    engine = TopNEngine.from_model(fitted[name], chunk_size=16)
    users = np.arange(matrix.n_users)
    ranked = engine.topn(users, n_items=10, with_scores=True)
    digests = {
        "score_chunk": _digest([engine.score_chunk(users)]),
        "topn": _digest([ranked.items, ranked.lengths, ranked.scores]),
    }
    assert digests == _PINNED[f"engine-{name}"]


# --------------------------------------------------------------------------- #
# Ids that name no known user or item
# --------------------------------------------------------------------------- #
def _model_readers(name):
    """``(reader, side, call(fitted, matrix, x))`` for one model's id readers."""
    readers = [
        (f"{name}.score_user", "user", lambda f, m, x: f[name].score_user(x)),
        (f"{name}.score_users", "user", lambda f, m, x: f[name].score_users([x])),
        (f"{name}.recommend", "user", lambda f, m, x: f[name].recommend(x)),
    ]
    if name in OCULAR_FAMILY:
        readers += [
            (f"{name}.predict_proba(x, 0)", "user", lambda f, m, x: f[name].predict_proba(x, 0)),
            (f"{name}.predict_proba(0, x)", "item", lambda f, m, x: f[name].predict_proba(0, x)),
            (f"{name}.explain(x, 0)", "user", lambda f, m, x: f[name].explain(x, 0)),
            (f"{name}.explain(0, x)", "item", lambda f, m, x: f[name].explain(0, x)),
        ]
    return readers


def _score_chunk(name):
    return lambda f, m, x: TopNEngine.from_model(f[name]).score_chunk([x])


READERS = [reader for name in MODELS for reader in _model_readers(name)] + [
    ("matrix.items_of_user", "user", lambda f, m, x: m.items_of_user(x)),
    ("matrix.users_of_item", "item", lambda f, m, x: m.users_of_item(x)),
    ("matrix.label_of_user", "user", lambda f, m, x: m.label_of_user(x)),
    ("matrix.label_of_item", "item", lambda f, m, x: m.label_of_item(x)),
    ("factor-path engine.score_chunk", "user", _score_chunk("OCuLaR")),
    ("model-path engine.score_chunk", "user", _score_chunk("ItemKNN")),
]
# ``None`` stands for one past the last user or item of the reader's side.
BAD_IDS = {
    "fraction": 1.5, "negative": -1, "past-end": None, "past-int64": 2**70, "nan": float("nan"),
}


@pytest.mark.parametrize("bad", list(BAD_IDS))
@pytest.mark.parametrize("reader, side, call", READERS, ids=[r[0] for r in READERS])
def test_an_unknown_id_is_a_typed_error(reader, side, call, bad, fitted, matrix):
    value = BAD_IDS[bad]
    if value is None:
        value = matrix.n_users if side == "user" else matrix.n_items
    with pytest.raises((DataError, ConfigurationError)):
        call(fitted, matrix, value)
