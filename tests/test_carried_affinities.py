"""Carried affinities and one sweep plan per training matrix.

A trainer sweep starts from the affinities the previous sweep left at the
point it returned instead of recomputing them, and a warm backend keeps the
plan of the matrix it last fitted — its publication and the sides its
workers attached — for the next fit on that matrix.  The fitted numbers are
pinned by ``tests/test_training_digests.py``; these tests check the
mechanism: the carried values equal a recomputation after every sweep, a
fit reads them from its second sweep on, concurrent fits stay exact and
leave only the kept plan published, fits on one matrix build and publish no
second plan, in-place edits of a fitted matrix or its weights do not reach
the kept plan, and a worker frees its training arenas before it serves.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import RecommendRequest
from repro.core.backends import ParallelBackend, SweepPlan, VectorizedBackend
from repro.core.backends.plan import FitCarry
from repro.core.init import random_init
from repro.core.objective import entry_affinities, relative_user_weights
from repro.core.ocular import OCuLaR
from repro.core.optimizer import BlockCoordinateTrainer
from repro.data import InteractionMatrix
from repro.data.datasets import make_movielens_like
from repro.parallel.cluster import ClusterExecutor
from repro.runtime import RecommenderRuntime


def _problem(k, dtype, n_users=70, n_items=45, seed=4):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_users, n_items)) < 0.2).astype(float)
    dense[3] = 0.0  # an empty user
    dense[:, 5] = 0.0  # an empty item
    matrix = sp.csr_matrix(dense)
    users, items = random_init(matrix, k, random_state=seed, dtype=dtype)
    return matrix, users, items


def _recomputed(matrix, users, items):
    """Every positive's affinity at ``(users, items)``, user-major, from scratch."""
    row_index = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    out = np.empty(matrix.nnz, dtype=users.dtype)
    return entry_affinities(users, row_index, items, matrix.indices.astype(np.int64), out)


class _CheckedSweeps:
    """Mixin: after every trainer sweep, compare the carried values with a
    recomputation at the factors the sweep returned."""

    def __init__(self, matrix, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.matrix = matrix
        self.checked = 0

    def sweep(self, matrix, row_factors, col_factors, *args, plan=None, **kwargs):
        factors, stats = super().sweep(matrix, row_factors, col_factors, *args, plan=plan, **kwargs)
        carry = plan.carry
        item_sweep = carry.positions is not None
        users, items = (col_factors, factors) if item_sweep else (factors, col_factors)
        want = _recomputed(self.matrix, users, items)
        assert np.array_equal(carry.values, want), f"sweep {self.checked}"
        self.checked += 1
        return factors, stats


class _CheckedVectorized(_CheckedSweeps, VectorizedBackend):
    pass


class _CheckedParallel(_CheckedSweeps, ParallelBackend):
    pass


@pytest.fixture
def opens(monkeypatch):
    """Whether each carrying sweep read its start affinities, in order."""
    answers = []
    original = FitCarry.sweep

    @contextmanager
    def recording(carry, place):
        with original(carry, place) as read:
            answers.append(read)
            yield read

    monkeypatch.setattr(FitCarry, "sweep", recording)
    return answers


def test_item_positions_pair_the_two_orders():
    matrix, _, _ = _problem(3, np.float64)
    plan = SweepPlan.build(matrix)
    positions = plan.item_positions
    user, item = plan.user_side, plan.item_side
    assert np.array_equal(np.sort(positions), np.arange(plan.nnz))
    assert np.array_equal(item.matrix.indices, user.row_index[positions])
    assert np.array_equal(item.row_index, user.matrix.indices[positions])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k", [1, 3, 7, 8, 16, 50, 63])
def test_carried_values_equal_a_recomputation_after_every_sweep(k, dtype, opens):
    matrix, users, items = _problem(k, dtype)
    backend = _CheckedVectorized(matrix)
    BlockCoordinateTrainer(regularization=0.5, max_iterations=4, tolerance=0.0, backend=backend).train(
        matrix, users, items
    )
    assert backend.checked == 8
    assert opens == [False] + [True] * 7


@pytest.mark.parametrize(
    "case", ["weighted", "inner-sweeps-2", "constant-columns", "threads", "serial-shards"]
)
def test_carried_values_on_every_side_and_path(case, opens):
    matrix, users, items = _problem(7, np.float64)
    weights = relative_user_weights(matrix) if case == "weighted" else None
    constant = (6, 5) if case == "constant-columns" else None
    if case == "threads":
        backend = _CheckedParallel(matrix, n_workers=2, n_shards=3, executor="thread")
    elif case == "serial-shards":
        backend = _CheckedParallel(matrix, n_workers=1, n_shards=4, executor="serial")
    else:
        backend = _CheckedVectorized(matrix)
    inner = 2 if case == "inner-sweeps-2" else 1
    with backend:
        BlockCoordinateTrainer(
            regularization=0.5, max_iterations=3, tolerance=0.0, backend=backend,
            inner_sweeps=inner,
        ).train(matrix, users, items, user_weights=weights, constant_columns=constant)  # fmt: skip
    assert backend.checked == 6 * inner
    if case == "constant-columns":
        # The reset after every iteration moves the point: each item sweep
        # computes its affinities, each user sweep reads the item sweep's.
        assert opens == [False, True] * 3
    else:
        assert opens == [False] + [True] * (6 * inner - 1)


def test_direct_sweeps_carry_nothing(opens):
    matrix, users, items = _problem(5, np.float64)
    plan = SweepPlan.build(matrix)
    backend = VectorizedBackend()
    for _ in range(2):
        items, _ = backend.sweep(None, items, users, 0.5, plan=plan.item_side)
        users, _ = backend.sweep(None, users, items, 0.5, plan=plan.user_side)
    assert opens == []


@pytest.mark.parametrize("executor", ["process", "cluster"])
def test_pool_sweeps_read_on_the_process_pool_only(executor, opens):
    # The process pool's workers write the carried values into a segment
    # they share with the driver; a cluster node writes a copy, so a
    # cluster fit computes every sweep's affinities.
    matrix = make_movielens_like(n_users=90, n_items=60, random_state=0)
    model = OCuLaR(n_coclusters=5, max_iterations=3, tolerance=0.0, random_state=0)
    if executor == "process":
        with ParallelBackend(n_workers=2, executor="process") as backend:
            model.fit(matrix, backend=backend)
        assert opens == [False] + [True] * 5
    else:
        with ClusterExecutor(n_nodes=2, task_timeout=60) as cluster:
            backend = ParallelBackend(n_shards=2, executor=cluster)
            try:
                model.fit(matrix, backend=backend)
            finally:
                backend.shutdown()
        assert opens == []


def _model(seed, iterations=5):
    return OCuLaR(
        n_coclusters=6, regularization=3.0, max_iterations=iterations, tolerance=0.0,
        random_state=seed,
    )  # fmt: skip


@pytest.mark.parametrize("executor", ["process", "thread"])
def test_concurrent_fits_on_one_matrix_stay_exact(executor):
    # Two threads fit different seeds on the same matrix through one
    # runtime: one kept plan, one publication and one pool between them.
    matrix = make_movielens_like(n_users=200, n_items=120, random_state=2)
    seeds = (0, 1)
    with RecommenderRuntime(executor=executor, max_workers=2) as runtime:
        want = {seed: runtime.fit(_model(seed), matrix).factors_ for seed in seeds}
        for _round in range(3):
            got = {}
            barrier = threading.Barrier(len(seeds))

            def fit(seed):
                barrier.wait()
                got[seed] = runtime.fit(_model(seed), matrix).factors_

            threads = [threading.Thread(target=fit, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for seed in seeds:
                assert np.array_equal(got[seed].user_factors, want[seed].user_factors)
                assert np.array_equal(got[seed].item_factors, want[seed].item_factors)


def test_concurrent_fits_on_two_matrices_stay_exact_and_leave_the_kept_plan(
    shm_ledger, kept_plan_names
):
    # A fit on the other matrix unpublishes the kept plan while a fit still
    # sweeps it; that fit republishes what it needs as its own, so its
    # numbers stay exact, and once both have ended only the kept plan's
    # publications are left: nothing of the other matrix's plan.
    matrices = [
        make_movielens_like(n_users=200, n_items=120, random_state=2),
        make_movielens_like(n_users=150, n_items=90, random_state=3),
    ]
    with RecommenderRuntime(executor="process", max_workers=2) as runtime:
        want = [runtime.fit(_model(seed), m).factors_ for seed, m in enumerate(matrices)]
        runtime.publish()
        serving = set(runtime.executor.active_segment_names()) - kept_plan_names(runtime)
        for _round in range(3):
            got = {}
            barrier = threading.Barrier(len(matrices))

            def fit(seed):
                barrier.wait()
                got[seed] = runtime.fit(_model(seed), matrices[seed]).factors_

            threads = [threading.Thread(target=fit, args=(seed,)) for seed in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for seed in (0, 1):
                assert np.array_equal(got[seed].user_factors, want[seed].user_factors)
                assert np.array_equal(got[seed].item_factors, want[seed].item_factors)
            kept = kept_plan_names(runtime)
            assert set(runtime.executor.active_segment_names()) == serving | kept
    shm_ledger.assert_gone()


def test_fits_on_one_matrix_build_and_publish_one_plan(monkeypatch, shm_ledger, kept_plan_names):
    builds = []
    build = SweepPlan.build.__func__

    def counting(cls, *args, **kwargs):
        builds.append(args[0].shape)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(SweepPlan, "build", classmethod(counting))
    matrix = make_movielens_like(n_users=90, n_items=60, random_state=0)
    other = make_movielens_like(n_users=80, n_items=50, random_state=1)
    with RecommenderRuntime(executor="process", max_workers=2) as runtime:
        runtime.fit(_model(0, 2), matrix)
        names = set(runtime.executor.active_segment_names())
        # The plan stays; the fit's factor slots and carried affinities went
        # when it ended.
        assert names == kept_plan_names(runtime)
        for seed in range(1, 5):
            runtime.fit(_model(seed, 2), matrix)
            assert set(runtime.executor.active_segment_names()) == names
        # An equal matrix in other objects is the same plan.
        runtime.fit(_model(5, 2), InteractionMatrix(matrix.csr()))
        assert builds == [(90, 60)]
        assert set(runtime.executor.active_segment_names()) == names
        runtime.fit(_model(0, 2), other)
        assert builds == [(90, 60), (80, 50)]
        assert not names & set(runtime.executor.active_segment_names())
        assert not names & shm_ledger.entries()
    shm_ledger.assert_gone()


def test_a_kept_plan_does_not_follow_in_place_edits():
    # The backend compares a fit's matrix and weights with copies of its
    # own, so editing the fitted arrays in place and refitting rebuilds.
    dense = np.zeros((40, 30))
    dense[0, 2] = 1.0  # row 0's lone positive, moved below
    rng = np.random.default_rng(7)
    dense[1:] = rng.random((39, 30)) < 0.25
    matrix = sp.csr_matrix(dense)
    weights = relative_user_weights(matrix)
    users, items = random_init(matrix, 4, random_state=0)

    def trainer(backend):
        return BlockCoordinateTrainer(
            regularization=0.5, max_iterations=3, tolerance=0.0, backend=backend
        )

    with ParallelBackend(n_workers=2, executor="thread") as backend:
        trainer(backend).train(matrix, users, items, user_weights=weights)
        weights[:] = weights[::-1].copy()
        got_weights = trainer(backend).train(matrix, users, items, user_weights=weights)
        matrix.indices[matrix.indptr[0]] = 3
        got_matrix = trainer(backend).train(matrix, users, items, user_weights=weights)
    for got, fitted in ((got_weights, dense), (got_matrix, matrix.toarray())):
        want = trainer("vectorized").train(
            sp.csr_matrix(fitted), users, items, user_weights=weights.copy()
        )
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
    assert not np.array_equal(got_weights[0], got_matrix[0])


def _worker_mappings(_task):
    """Pool task: PID and the segments the worker has mapped."""
    from repro.parallel.shared_memory import _ATTACHMENTS

    time.sleep(0.05)  # long enough that every worker draws a probe
    return os.getpid(), len(_ATTACHMENTS)


def test_fits_on_one_matrix_keep_worker_mappings_flat():
    # Between fits on one matrix a worker's sides stay cached hits, so the
    # factor slots and carried affinities each fit publishes anew are closed
    # by the next fit's tasks once retired, not kept mapped fit after fit.
    matrix = make_movielens_like(n_users=120, n_items=60, random_state=0)
    with RecommenderRuntime(executor="process", max_workers=2) as runtime:
        counts = []
        for seed in range(6):
            runtime.fit(_model(seed, 2), matrix)
            mapped = dict(runtime.executor.map(_worker_mappings, range(8)))
            counts.append(max(mapped.values()))
        # The plan's eight arrays and the map stay with the cached sides; the
        # last fit's four factor slots (two roles by two shapes) and carried
        # values stay mapped until the next fit's tasks close them.
        assert counts == [9 + 4 + 1] * len(counts)


def _worker_state(_task):
    """Pool task: PID, engines cached, free training arenas held."""
    from repro.core.backends.parallel import SharedSideSpec
    from repro.parallel.shared_memory import _CACHE
    from repro.serving.shared import SharedEngineSpec

    time.sleep(0.05)  # long enough that every worker draws a probe
    engines = sum(type(spec) is SharedEngineSpec for spec in _CACHE)
    free = sum(
        side.workspaces.stats().cached
        for spec, side in _CACHE.items()
        if type(spec) is SharedSideSpec
    )
    return os.getpid(), engines, free


def test_a_worker_frees_its_training_arenas_before_it_serves():
    matrix = make_movielens_like(n_users=120, n_items=60, random_state=0)
    with RecommenderRuntime(executor="process", max_workers=2) as runtime:
        runtime.fit(_model(0, 2), matrix)
        before = dict((pid, free) for pid, _, free in runtime.executor.map(_worker_state, range(8)))
        # The sides (and arenas) stay for the next fit on this matrix.
        assert sum(before.values()) > 0
        runtime.publish()
        runtime.recommend(RecommendRequest(users=range(120), n_items=5), shard_size=10)
        after = runtime.executor.map(_worker_state, range(8))
        serving = [free for _, engines, free in after if engines]
        assert serving and not any(serving)
        # The next fit on the matrix rebuilds what serving freed.
        runtime.fit(_model(1, 2), matrix)
