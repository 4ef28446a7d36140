"""Correctness checks the benchmark command fails on.

The reference for every ranking is an in-process, single-threaded
:class:`~repro.serving.engine.TopNEngine` built in the harness from the
factors the system under test reported for that generation; the system's
answers must be ``np.array_equal`` to it (the repo's parity contract is
bit-exact, so no tolerance).
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.factors import FactorModel
from repro.data.interactions import InteractionMatrix
from repro.serving.engine import TopNEngine
from repro.serving.fold_in import fold_in_scores, recommend_folded


SCORE_RTOL = 1e-12


class CheckFailure(AssertionError):
    """A correctness check was violated; the command exits non-zero."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


class Reference:
    """Reference engines, one per model generation the run has seen."""

    def __init__(self, solver: dict) -> None:
        self._solver = solver
        self._engines: Dict[int, TopNEngine] = {}
        self._models: Dict[int, SimpleNamespace] = {}
        #: item lists of users ingested after a generation was published
        self.ingested_rows: Dict[int, Sequence[int]] = {}

    def add_generation(self, generation: int, factors, matrix: InteractionMatrix) -> TopNEngine:
        model = FactorModel(np.asarray(factors[0]), np.asarray(factors[1]))
        engine = TopNEngine.from_factors(model, matrix, pipeline=False)
        self._engines[generation] = engine
        self._models[generation] = SimpleNamespace(factors_=model, **self._solver)
        return engine

    def expected(self, kind: str, rows: tuple, generation: int, with_scores: bool = False):
        """What the program must answer for one frame under ``generation``.

        Returns ``(rankings, scores)``, one array per row each; ``scores`` is
        ``None`` unless asked for.
        """
        require(generation in self._engines, f"a reply reports unknown generation {generation}")
        engine = self._engines[generation]
        rankings: List[Optional[np.ndarray]] = [None] * len(rows)
        scores: List[Optional[np.ndarray]] = [None] * len(rows)
        if kind == "cold":
            known, folded = [], [(i, list(row)) for i, row in enumerate(rows)]
        else:
            # Users ingested after the generation was published are served by
            # fold-in from their ingested interactions, restricted to the
            # catalogue the pinned generation was published with.
            n_known = engine.train_matrix.n_users
            known = [(i, user) for i, user in enumerate(rows) if user < n_known]
            folded = [
                (i, [item for item in self.ingested_rows[user] if item < engine.n_items])
                for i, user in enumerate(rows)
                if user >= n_known
            ]
        if known:
            ranked = engine.topn([user for _i, user in known], n_items=10, with_scores=with_scores)
            ranked_scores = ranked.score_rows() if with_scores else [None] * len(known)
            for (i, _user), row, row_scores in zip(known, ranked, ranked_scores):
                rankings[i], scores[i] = np.asarray(row), row_scores
        if folded:
            lengths = [len(items) for _i, items in folded]
            seen = sp.csr_matrix(
                (
                    np.ones(sum(lengths)),
                    (
                        np.repeat(np.arange(len(folded)), lengths),
                        np.concatenate([np.asarray(items, dtype=np.int64) for _i, items in folded]),
                    ),
                ),
                shape=(len(folded), engine.n_items),
            )
            model = self._models[generation]
            ranked = recommend_folded(engine, seen, model=model, n_items=10, n_sweeps=30)
            block = fold_in_scores(engine, seen, model=model, n_sweeps=30) if with_scores else None
            for position, ((i, _items), row) in enumerate(zip(folded, ranked)):
                rankings[i] = np.asarray(row)
                if with_scores:
                    scores[i] = block[position, rankings[i]]
        return rankings, (scores if with_scores else None)


def verify_rankings(checked: Iterable[tuple], reference: Reference, generations: Sequence[int]) -> Counter:
    """Replay sampled replies against the generation each one reports.

    ``checked`` is :attr:`loadgen.Recorder.checked`; ``generations`` is the
    recorder's per-frame generation list.  Rankings must be equal.  Where the
    reply carries scores they must agree to :data:`SCORE_RTOL`, not to the
    bit: the server scores a frame's rows inside whatever batch the batcher
    merged them into, BLAS picks its kernel by the batch's shape, and the last
    bit of a dot product follows the kernel (differences of 5e-16 were seen).
    Returns how many replies were replayed per generation; raises
    :class:`CheckFailure` on the first mismatch.
    """
    replayed: Counter = Counter()
    for index, frame, rankings, scores in checked:
        generation = generations[index]
        where = f"frame {index} ({frame.kind}) generation {generation}"
        expected, expected_scores = reference.expected(
            frame.kind, frame.rows, generation, with_scores=scores is not None
        )
        require(
            len(expected) == len(rankings),
            f"{where}: {len(rankings)} ranked lists for {len(expected)} rows",
        )
        for row, (want, got) in enumerate(zip(expected, rankings)):
            require(
                np.array_equal(want, np.asarray(got, dtype=want.dtype)),
                f"{where} row {row}: ranking {list(got)} != reference {want.tolist()}",
            )
        for row, (want, got) in enumerate(zip(expected_scores or (), scores or ())):
            require(
                len(want) == len(got) and np.allclose(got, want, rtol=SCORE_RTOL, atol=0.0),
                f"{where} row {row}: scores {list(got)} != reference {np.asarray(want).tolist()}",
            )
        replayed[generation] += 1
    return replayed


def verify_reply_accounting(recorder, connections, phase: str) -> None:
    """Every frame sent got exactly one reply carrying its id."""
    strays = sum(connection.stray_replies for connection in connections)
    require(strays == 0, f"{phase}: {strays} replies with unknown ids")
    wrong = [i for i, replies in enumerate(recorder.replies) if replies != 1]
    require(
        not wrong,
        f"{phase}: {len(wrong)} of {recorder.attempted} frames did not get exactly one reply "
        f"(first: frame {wrong[0] if wrong else None}, {recorder.replies[wrong[0]] if wrong else 0} replies)",
    )
    require(
        recorder.error_frames == 0,
        f"{phase}: {recorder.error_frames} error frames, e.g. {recorder.errors[:2]}",
    )


def verify_monotone_generations(recorder, phase: str) -> None:
    """Per connection, generations never go backwards in reply order."""
    by_conn: Dict[int, List[Tuple[float, int]]] = {}
    for conn, done, generation, ok in zip(recorder.conn, recorder.done, recorder.generation, recorder.ok):
        if ok:
            by_conn.setdefault(conn, []).append((done, generation))
    for conn, replies in by_conn.items():
        replies.sort()
        generations = [generation for _done, generation in replies]
        require(
            all(a <= b for a, b in zip(generations, generations[1:])),
            f"{phase}: connection {conn} saw generations go backwards",
        )


def verify_non_increasing(values: Sequence[float], what: str) -> None:
    require(
        all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:])),
        f"{what} increased: {list(values)}",
    )
