"""Bit-identity guards for the trainer.

sha256 digests of fitted factors and ``history_.objective_values``, recorded
before a sweep started reading its start affinities from the previous
sweep and before a warm backend kept one sweep plan per training matrix.
Every executor, both dtypes, the weighted (R-OCuLaR) and constant-column
(bias) sides, two inner sweeps and a warm start are covered; repeated fits
through one runtime must keep the first fit's digest.  A change that moves
one of them changed a fitted number; do not re-record a digest to make it
pass.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.backends import ParallelBackend
from repro.core.bias import BiasedOCuLaR
from repro.core.ocular import OCuLaR
from repro.core.r_ocular import ROCuLaR
from repro.data.datasets import make_movielens_like
from repro.parallel.cluster import ClusterExecutor
from repro.runtime import RecommenderRuntime


def _digest(model) -> str:
    digest = hashlib.sha256()
    for array in (
        model.factors_.user_factors,
        model.factors_.item_factors,
        np.asarray(model.history_.objective_values, dtype=np.float64),
    ):
        chunk = np.ascontiguousarray(array).tobytes()
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


SETTINGS = dict(
    n_coclusters=7, regularization=2.0, max_iterations=4, tolerance=0.0, random_state=3
)

DIGESTS = {
    "float64": "b18aa87d60bc38d7571b7d67aa0ad8bc84ded67b889b1c25e09283d1135de455",
    "float32": "24921e576488d5fcec8420000f9993b528df8d362f836b0c007743400ec3e53b",
    "rocular": "aa291cf7faf59a7a2979150768a996c73f472f97b81069e6e3624d629409fd00",
    "biased": "ef0b2bfdd17154b71ed7bde2837302ed5fb087d43b77ac0091f35bfb218c3699",
    "inner-sweeps-2": "0e1f8dd77af796149bf63cbd591471f465368c8cc9280de8bc639a4da9b38ad3",
    "warm-start": "54b89715dd535aa960c084cb9ea71564991b6017b68c638164166deff295e505",
}


@pytest.fixture(scope="module")
def matrix():
    return make_movielens_like(n_users=120, n_items=80, random_state=0)


def _fit(matrix, model_class=OCuLaR, backend=None, initial_factors=None, **overrides):
    model = model_class(**{**SETTINGS, **overrides})
    kwargs = {} if initial_factors is None else {"initial_factors": initial_factors}
    return model.fit(matrix, backend=backend, **kwargs)


_CASES = {
    "float64": dict(),
    "float32": dict(dtype=np.float32),
    "rocular": dict(model_class=ROCuLaR),
    "biased": dict(model_class=BiasedOCuLaR),
    "inner-sweeps-2": dict(inner_sweeps=2),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_vectorized_fit_digest(matrix, case):
    assert _digest(_fit(matrix, **_CASES[case])) == DIGESTS[case]


def test_warm_start_digest(matrix):
    start = _fit(matrix, max_iterations=2, random_state=9).factors_
    assert _digest(_fit(matrix, initial_factors=start)) == DIGESTS["warm-start"]


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("case", ["float64", "float32", "rocular", "biased", "inner-sweeps-2"])
def test_parallel_fit_digest(matrix, executor, case):
    with ParallelBackend(n_workers=2, executor=executor) as backend:
        for _ in range(2):  # a second fit on the same backend and matrix
            assert _digest(_fit(matrix, backend=backend, **_CASES[case])) == DIGESTS[case]


def test_cluster_fit_digest(matrix):
    with ClusterExecutor(n_nodes=2, task_timeout=60) as executor:
        backend = ParallelBackend(n_shards=2, executor=executor)
        try:
            for case in ("float64", "float32", "rocular"):
                assert _digest(_fit(matrix, backend=backend, **_CASES[case])) == DIGESTS[case]
        finally:
            backend.shutdown()


def test_runtime_fits_keep_their_digests(matrix):
    # Repeated fits through one warm runtime, on one matrix and then on a
    # second one and back: every fit is the fit a fresh backend makes.
    other = make_movielens_like(n_users=100, n_items=70, random_state=1)
    with RecommenderRuntime(executor="process", max_workers=2) as runtime:
        for target, case in (
            (matrix, "float64"), (matrix, "float64"), (matrix, "float32"),
            (other, None), (matrix, "rocular"), (matrix, "float64"),
        ):  # fmt: skip
            options = dict(_CASES[case or "float64"])
            model_class = options.pop("model_class", OCuLaR)
            fitted = runtime.fit(model_class(**{**SETTINGS, **options}), target)
            if case is not None:
                assert _digest(fitted) == DIGESTS[case]
        start = runtime.model.factors_
        warm = runtime.fit(OCuLaR(**SETTINGS), matrix, initial_factors=start)
        assert _digest(warm) == _digest(_fit(matrix, initial_factors=start))
