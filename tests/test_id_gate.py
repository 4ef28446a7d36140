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
do not re-record a digest to make it pass.  They were re-recorded once, when
the MovieLens stand-in moved to the sparse sampler: that changed the corpus,
not the code the digests guard.
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
    matrix = make_movielens_like(n_users=40, n_items=30, random_state=0)
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
        "score_user": "e8dccf077d10496ba133abcba6fe530d6dbc150e06322de1d875ab01437a304d",
        "score_users": "6530a209430a70780598b70ff4f9828a546e2739b586a0a73bde531212f3ee4d",
        "recommend": "0977a413e047d5dcf412852b01ce4b220dbac7470025aed1d1ddd6a49bc2b344",
        "predict_proba": "6530a209430a70780598b70ff4f9828a546e2739b586a0a73bde531212f3ee4d",
    },
    "ROCuLaR": {
        "score_user": "d474b5b0f5633fb0a89999c282c662919fdc4808c6b6bac37d61c50c952f84ae",
        "score_users": "e6e639474bde5bd8b6ab8f5f0f4587b7d5ca8ace81139b47f1566fc7c354af83",
        "recommend": "8ef89c838b80c2fa4e0cf602636ec179605f02e6d17c2e378b56b0a7b6857b92",
        "predict_proba": "e6e639474bde5bd8b6ab8f5f0f4587b7d5ca8ace81139b47f1566fc7c354af83",
    },
    "BiasedOCuLaR": {
        "score_user": "9fbed36b5eea8a2d35a471d7213fd15769ad2249a40d59dfd0b400c5c8b2a663",
        "score_users": "6b80360a07c4141e89a6ca094e5527c25c267ee25d1940b6422df341c72e4dd8",
        "recommend": "ae3279f84b947ca10224f415e3d5c2cffafd4dee8896da88eca36da2c832e708",
        "predict_proba": "6b80360a07c4141e89a6ca094e5527c25c267ee25d1940b6422df341c72e4dd8",
    },
    "Popularity": {
        "score_user": "6786a2bda966bc9cd79de1ca03876a3c7844858c0ffbc690b78f9e6290d466c5",
        "score_users": "e657590d45161518891f3bd87d1c4c18d9bea5b0ca94edb0a024ee9684a4fca2",
        "recommend": "5f260eb5b48718876b7b4c065d504f6f3e1c9ac8b03e769abdc4eaac1421a2b2",
    },
    "ItemKNN": {
        "score_user": "6bb7d969ba37c5edd6bc49173c7d678181474e8fd137f3344415f70c43be02ae",
        "score_users": "5292ce82bfd66f5c82e94d6b13a0bc7d93021239874ee3e25bd8fbdb3a484093",
        "recommend": "42b2a424a5f6f68ffef629b2377b9869e80855f09f5f05c0583d7bd8ef9cb86c",
    },
    "UserKNN": {
        "score_user": "e138e2ff6e045d9a67c5739667cae081374c158d14b04d45e934bcb1620d1320",
        "score_users": "1344179ea9f70ed61fdcf15843188a0e215cb831757d380ae821b4bc5a7bec06",
        "recommend": "4ba4588592f00f1de9642fe9a4e26f0010fe332aef5466ccfc55e57aaa8fcbb0",
    },
    "BPR": {
        "score_user": "eadeffc0b10446e56e9f537c97d70b10c7b0233f4f71c47a8dc764a387cde1b5",
        "score_users": "df32317e251c8c64158152c4c8b9d015a98ef41dc577271d5395879aed5c0fe9",
        "recommend": "1df5dfb89d0536ef252da6d411a77baac122d92f746e32b6cf19e846be82c607",
    },
    "WALS": {
        "score_user": "d7554a69ed99c1a8b1dd6af6518fb23346582f25017e1b2daac67a5711a57a5c",
        "score_users": "767b6d24a4e3e72d4eadc8b858bc89c77abd691d254f20da24992873f96930f1",
        "recommend": "bc1fcc53c88aa177d2f5abce851f6b4265166f7583d0e0730920694e4aecf03b",
    },
    "engine-OCuLaR": {
        "score_chunk": "2c5ba7cca3d515edb727b90d6b79879ea628672f3e7b4e124e0962a0c7dffa6b",
        "topn": "6db6e583895dc2124dabaf78754338be496ac9318d0a39e524375fb0fdc00894",
    },
    "engine-ItemKNN": {
        "score_chunk": "5292ce82bfd66f5c82e94d6b13a0bc7d93021239874ee3e25bd8fbdb3a484093",
        "topn": "fdaaa9e2b6205a59717ad36a29f38a07f62b40d28fd3009a1f8bbc122f756e54",
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
