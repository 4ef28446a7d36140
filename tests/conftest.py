"""Shared fixtures for the test-suite.

Fixtures that require fitting a model are session-scoped so the many tests
that only inspect a fitted model do not each pay for training.  All fixtures
use fixed seeds; the suite is fully deterministic.
"""

from __future__ import annotations

import errno
import itertools
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.ocular import OCuLaR
from repro.data.datasets import make_b2b, make_movielens_like
from repro.data.interactions import InteractionMatrix
from repro.data.splitting import train_test_split
from repro.data.synthetic import make_paper_toy_example, make_planted_coclusters

# The paper benches share a helper module (Table I values, model zoo,
# hold-out, toy fit); appending its directory lets the suite test it too.
sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))


@pytest.fixture(autouse=True)
def _silence_convergence_warnings():
    """Tests use tiny iteration budgets; convergence warnings are expected.

    Deprecations raised from ``repro`` itself stay fatal: the package ships
    no deprecated entrypoints, and must not grow callers of one unnoticed.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.filterwarnings(
            "error", category=DeprecationWarning, module=r"repro(\..*)?$"
        )
        yield


class ShmLedger:
    """The shared-memory segments published in this process during one test.

    The hygiene tests assert that exactly these are gone afterwards.  They
    do not diff all of ``/dev/shm``: another suite or a benchmark running on
    the same host creates and unlinks segments of its own in the meantime.
    """

    def __init__(self) -> None:
        self.names: set = set()

    @staticmethod
    def entries() -> set:
        """Current ``/dev/shm`` entries (empty where the mount does not exist)."""
        if not os.path.isdir("/dev/shm"):
            return set()
        return set(os.listdir("/dev/shm"))

    def live(self) -> set:
        """The recorded segments that still exist."""
        return self.names & self.entries()

    def assert_gone(self) -> None:
        assert self.names, "the test published no segment, so nothing was checked"
        assert not self.live(), f"segments left in /dev/shm: {sorted(self.live())}"


@pytest.fixture
def shm_ledger(monkeypatch):
    """Records every segment a shared-memory executor creates while the test runs.

    Hooked where segments are made, so executors that a fit or a
    ``serve_sharded`` call builds by name and shuts down itself are covered
    like the ones the test holds.
    """
    from repro.parallel.shared_memory import _SegmentStore

    ledger = ShmLedger()
    write = _SegmentStore.write

    def recording_write(store, array, previous, pinned):
        spec = write(store, array, previous, pinned)
        ledger.names.add(spec.shm_name)
        return spec

    monkeypatch.setattr(_SegmentStore, "write", recording_write)
    return ledger


@pytest.fixture()
def failing_store_write(monkeypatch):
    """``arm(k)`` makes the k-th shared-memory store write from now on raise.

    The error is the one a full ``/dev/shm`` gives.  Each ``arm`` restarts
    the count; ``arm(None)`` lets every write through again.
    """
    from repro.parallel.shared_memory import _SegmentStore

    write = _SegmentStore.write

    def arm(failing):
        count = itertools.count(1)

        def failing_write(store, array, previous, pinned):
            if next(count) == failing:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(store, array, previous, pinned)

        monkeypatch.setattr(_SegmentStore, "write", failing_write)

    return arm


@pytest.fixture()
def worker_cache():
    """This test process plays the worker: start and end with an empty cache."""
    from repro.parallel import shared_memory as shm

    def reset():
        shm._CACHE.clear()
        for name in list(shm._ATTACHMENTS):
            shm._close_attachment(name)

    reset()
    yield shm
    reset()


@pytest.fixture(scope="session")
def toy_dataset():
    """The paper's 12x12 toy example (three overlapping co-clusters)."""
    return make_paper_toy_example()


@pytest.fixture(scope="session")
def small_matrix():
    """A small deterministic interaction matrix with two obvious blocks."""
    dense = np.zeros((8, 6))
    dense[0:4, 0:3] = 1.0
    dense[4:8, 3:6] = 1.0
    dense[0, 5] = 1.0  # one cross-block interaction
    return InteractionMatrix.from_dense(dense)


@pytest.fixture(scope="session")
def planted():
    """Planted overlapping co-clusters with held-out positives."""
    return make_planted_coclusters(
        n_users=80,
        n_items=50,
        n_coclusters=3,
        users_per_cocluster=25,
        items_per_cocluster=15,
        within_density=0.9,
        background_density=0.01,
        holdout_fraction=0.1,
        random_state=7,
    )


@pytest.fixture(scope="session")
def movielens_small():
    """A small MovieLens-like corpus plus a train/test split."""
    matrix = make_movielens_like(n_users=120, n_items=80, random_state=3)
    return matrix, train_test_split(matrix, test_fraction=0.25, random_state=3)


@pytest.fixture(scope="session")
def b2b_small():
    """A small named B2B corpus (for explanation / deployment tests)."""
    return make_b2b(n_clients=80, n_products=20, random_state=5)


@pytest.fixture(scope="session")
def fitted_toy_model(toy_dataset):
    """OCuLaR fitted on the toy matrix (K = 3, light regularisation)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return OCuLaR(
            n_coclusters=3, regularization=0.05, max_iterations=400, random_state=2
        ).fit(toy_dataset.matrix)


@pytest.fixture(scope="session")
def paper_toy_model(toy_dataset):
    """OCuLaR on the toy matrix as the Figure 3 bench fits it (best of five seeds)."""
    from _paper import fit_toy_model

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_toy_model(toy_dataset)


@pytest.fixture(scope="session")
def fitted_movielens_model(movielens_small):
    """OCuLaR fitted on the small MovieLens-like training split."""
    _, split = movielens_small
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return OCuLaR(
            n_coclusters=12, regularization=8.0, max_iterations=60, random_state=0
        ).fit(split.train)
