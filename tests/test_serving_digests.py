"""Bit-identity guards for the serving stack.

sha256 digests of what the serving layer hands back, recorded before the
serving surface no caller used (the fold-in twins, the runtime's dispatch
stats, the fair queue's weights) was deleted.  Each digest covers every
byte a caller sees: ranking and score blocks of ``runtime.recommend`` on all
three in-process executors, the gateway's reply bytes for a fixed frame
script (timing fields masked), the fair queue's pop order, folded-in
factors, and the engine's rankings over exactly tied scores.  A change
that moves one of them changed an output; do not re-record a digest to
make it pass.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import socket

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import RecommendRequest
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.core.factors import FactorModel
from repro.data.interactions import InteractionMatrix
from repro.runtime import BatchingFrontEnd, GatewayThread, RecommenderRuntime, WeightedFairQueue
from repro.serving import TopNEngine, extend_factors, fold_in_users


def _digest(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def _ranking_bytes(rankings):
    yield np.ascontiguousarray(rankings.items).tobytes()
    yield np.ascontiguousarray(rankings.lengths).tobytes()
    if rankings.scores is not None:
        yield np.ascontiguousarray(rankings.scores).tobytes()


def _model(**overrides):
    settings = dict(
        n_coclusters=6, regularization=5.0, max_iterations=3, tolerance=0.0, random_state=0
    )
    settings.update(overrides)
    return OCuLaR(**settings)


@pytest.fixture(scope="module")
def corpus():
    matrix = make_netflix_like(n_users=150, n_items=60, random_state=0)
    return matrix


COLD = [[1, 5, 9], [2, 3], [0, 10, 20, 30], [], [7], [7, 7, 2]]


def _runtime_chunks(executor, corpus):
    """Every response of a fixed request script: known, cold, post-ingest."""
    n_users, n_items = corpus.n_users, corpus.n_items
    with RecommenderRuntime(executor=executor, max_workers=2) as runtime:
        runtime.fit(_model(), corpus)
        runtime.publish()
        script = [
            (RecommendRequest(users=range(n_users), n_items=7), None),
            (RecommendRequest(users=range(n_users), n_items=7), 16),
            (RecommendRequest(users=(5, 3, 5, 0), n_items=4, with_scores=True), None),
            (RecommendRequest(users=range(60), n_items=5, with_scores=True), 20),
            (RecommendRequest(interactions=COLD, n_items=6, n_sweeps=8), None),
            (RecommendRequest(interactions=COLD, n_items=6, n_sweeps=8, with_scores=True), 2),
        ]
        # Three clients and two products arrive after the publish; a new
        # client's purchase of a new product stays out of its fold-in.
        runtime.ingest(
            [
                (n_users, 3), (n_users, 11), (n_users, n_items),
                (n_users + 1, 8),
                (n_users + 2, n_items + 1), (n_users + 2, 0), (n_users + 2, 40),
                (4, n_items),
            ],
            n_new_users=3,
            n_new_items=2,
        )
        fresh = (n_users + 1, 0, n_users + 2, 7, n_users, 0)
        script += [
            (RecommendRequest(users=fresh, n_items=5), None),
            (RecommendRequest(users=fresh, n_items=5, with_scores=True), 1),
            (RecommendRequest(users=(n_users + 2, n_users), n_items=4, with_scores=True), None),
        ]
        for request, shard_size in script:
            response = runtime.recommend(request, shard_size=shard_size)
            yield str(response.generation).encode()
            yield from _ranking_bytes(response.rankings)


#: Timing fields of a reply frame, masked before digesting.
_TIMING = re.compile(rb'"(queue_ms|serve_ms)":[-0-9.eE+]+')

_FRAMES = [
    b'{"id":1,"users":[0,3,7,7],"n_items":6}',
    b'{"id":2,"users":[2,5],"n_items":4,"with_scores":true}',
    b'{"id":3,"interactions":[[1,2,3],[9]],"n_items":5,"n_sweeps":10}',
    b'{"id":"x","interactions":[[4],[]],"n_items":3,"with_scores":true,"tenant":"t1"}',
    b'{"id":5,"users":[4],"n_items":3,"exclude_seen":false}',
    b"not json",
    b'{"id":7,"users":[1.5],"n_items":3}',
    b'{"id":8,"op":"nope"}',
    b'{"id":9,"users":[999],"n_items":3}',
    b'{"id":10,"users":[],"n_items":3}',
    b'{"id":11,"interactions":[[70]],"n_items":3}',
]


def _gateway_replies(corpus):
    with RecommenderRuntime(executor="serial") as runtime:
        runtime.fit(_model(), corpus)
        runtime.publish()
        with BatchingFrontEnd(runtime, max_delay_ms=2) as front:
            with GatewayThread(front) as gateway:
                with socket.create_connection(gateway.address, timeout=60) as sock:
                    stream = sock.makefile("rwb")
                    for frame in _FRAMES:
                        stream.write(frame + b"\n")
                        stream.flush()
                        yield _TIMING.sub(rb'"\1":0', stream.readline())


def _pop_order(seed: int) -> list:
    """Pops of a seeded push/pop script over up to five tenants."""
    rng = random.Random(seed)
    queue = WeightedFairQueue()
    tenants = [f"tenant-{index}" for index in range(1 + seed % 5)]
    order, pushed = [], 0
    for _ in range(400):
        if rng.random() < 0.55:
            for _ in range(rng.choice((1, 1, 1, 4))):
                queue.push(rng.choice(tenants), pushed)
                pushed += 1
        else:
            order.append(queue.pop())
    order.extend(queue.pop() for _ in range(len(queue) + 1))
    return order


def _fold_in_chunks(corpus):
    for dtype in ("float64", "float32"):
        model = _model(dtype=dtype).fit(corpus)
        dense = np.zeros((3, corpus.n_items))
        dense[0, [1, 4]] = 1.0
        dense[2, 9] = 2.0
        for interactions in (
            COLD,
            sp.csr_matrix(dense),
            dense,
            InteractionMatrix(sp.csr_matrix(dense)),
        ):
            yield fold_in_users(model, interactions, n_sweeps=12).tobytes()
        grown = corpus.extended_with(
            [(corpus.n_users, 2), (corpus.n_users, corpus.n_items), (1, corpus.n_items + 1)],
            n_new_users=1,
            n_new_items=2,
        )
        seed = extend_factors(model, grown, n_sweeps=12)
        yield seed.user_factors.tobytes()
        yield seed.item_factors.tobytes()


def _tie_engine(dtype):
    """An engine whose scores tie everywhere, exactly.

    Factor entries are 0, 1/2 or 1, so every affinity is a multiple of 1/4
    computed without rounding: most user x item scores equal several others
    bit for bit, whatever the BLAS, and one in six is exactly 0 (users 0..99
    have all-zero factors).  Every user has seen about a quarter of the
    catalogue (masked ``+inf``), and users 100..149 all but five items, fewer
    unseen items than the lists below ask for.
    """
    rng = np.random.default_rng(2024)
    n_users, n_items, k = 1100, 40, 4
    user_factors = rng.integers(0, 3, size=(n_users, k)) / 2.0
    item_factors = rng.integers(0, 3, size=(n_items, k)) / 2.0
    user_factors[:100] = 0.0
    dense = (rng.random((n_users, n_items)) < 0.25).astype(float)
    dense[100:150] = 1.0
    dense[100:150, rng.permutation(n_items)[:5]] = 0.0
    factors = FactorModel(user_factors.astype(dtype), item_factors.astype(dtype))
    return TopNEngine.from_factors(factors, InteractionMatrix.from_dense(dense))


def _tie_chunks():
    """``topn`` and ``rank_scored`` blocks over calls of 1, 8, 9 and 1,024 rows.

    8 and 9 rows sit either side of the engine's direct-mask row count; 1,024
    rows are one full chunk.
    """
    rng = np.random.default_rng(7)
    for dtype in ("float64", "float32"):
        engine = _tie_engine(dtype)
        n_users = engine.train_matrix.n_users
        for rows in (1, 8, 9, 1024):
            users = rng.integers(0, n_users, size=rows)
            users[: min(rows, 3)] = (3, 120, 140)[: min(rows, 3)]
            for n in (1, 7, 12):
                for exclude_seen in (True, False):
                    yield from _ranking_bytes(
                        engine.topn(users, n_items=n, exclude_seen=exclude_seen, with_scores=True)
                    )
            scores = engine.score_chunk(users)
            seen = engine.train_matrix.csr()[users]
            for n in (1, 7, 12):
                yield from _ranking_bytes(
                    engine.rank_scored(scores, n_items=n, seen=seen, with_scores=True)
                )
            yield from _ranking_bytes(engine.rank_scored(scores, n_items=12, with_scores=True))


# Every digest but the queue's reads the Netflix stand-in; they were
# re-recorded once, when the stand-in generators moved to the sparse
# sampler: that changed the corpus, not the code the digests guard.
_PINNED = {
    "runtime": "ba0b200e9c30f0c19d257ea49e29fa8bfd0b3af2d36524c04bc2f083f144a988",
    "gateway": "d523c782695233fae94fd556be1b619bb7b87eccd54a18fc96f0d0f7bfadb2f2",
    "queue": "0a68502a56db0319a25f1aefe65136ac827da5944a1bde2ef8ab7118d455df4a",
    "fold_in": "dea547e5e4356e16a5bf50acae017460c2b279421da6f2fce97569232d31bf7e",
    # Recorded before the engine's selection kernel was rewritten.
    "ties": "26b7f043a63eb7ce7d76101169d4ab79772ac1c819d80f419008295bc5c3f8d7",
}


class TestServingDigests:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_runtime_rankings_are_bit_identical(self, corpus, executor):
        assert _digest(_runtime_chunks(executor, corpus)) == _PINNED["runtime"]

    def test_gateway_replies_are_bit_identical(self, corpus):
        assert _digest(_gateway_replies(corpus)) == _PINNED["gateway"]

    def test_fair_queue_pop_order_is_bit_identical(self):
        orders = (json.dumps(_pop_order(seed)).encode() for seed in range(10))
        assert _digest(orders) == _PINNED["queue"]

    def test_fold_in_factors_are_bit_identical(self, corpus):
        assert _digest(_fold_in_chunks(corpus)) == _PINNED["fold_in"]

    def test_tied_score_rankings_are_bit_identical(self):
        assert _digest(_tie_chunks()) == _PINNED["ties"]
