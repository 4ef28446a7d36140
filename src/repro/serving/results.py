"""Flat top-N results: one contiguous block instead of a list of arrays.

:class:`TopNResult` is the one shape a served ranking takes — from the
engine, through the shard fan-out, the micro-batcher and the runtime, to
the client's decoded response.  Instead of one small int64 array per user
(``O(n_users)`` Python objects to build, refcount, pickle shard by shard
and serialise row by row) it holds three flat arrays:

* ``items`` — ``(n_rows, n)`` int32, each row's ranked item indices,
  padded with ``-1`` past the row's valid length;
* ``lengths`` — ``(n_rows,)`` int32, the valid prefix per row (shorter than
  ``n`` for heavily-seen users, exactly like the reference path's
  never-pad-with-seen-items rule);
* ``scores`` — optional ``(n_rows, n)`` float block of the ranked entries'
  model scores (padding entries are ``-inf``).

It is a sequence of rows: ``len``, iteration, ``result[i]`` (a zero-copy
view of row ``i``'s valid prefix) and equality against another result or a
plain list of arrays all work row-wise, and :meth:`TopNResult.score_rows`
gives the aligned score views.  Slicing returns another :class:`TopNResult`
view — the micro-batcher's scatter is a single array slice per request,
scores included — an index array gathers rows into a new one, and
cross-process transport pickles three contiguous buffers instead of
thousands of objects.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import Iterator, List, Optional

import numpy as np

__all__ = ["TopNResult"]

_INT32_MIN, _INT32_MAX = int(np.iinfo(np.int32).min), int(np.iinfo(np.int32).max)


class TopNResult(Sequence):
    """Contiguous per-row top-N rankings (see module docstring).

    Construct directly from the three blocks, or via :meth:`from_rows`
    (the wire decoder's per-row lists) / :meth:`concat` (shard flattening).
    """

    __slots__ = ("items", "lengths", "scores")

    def __init__(
        self,
        items: np.ndarray,
        lengths: np.ndarray,
        scores: Optional[np.ndarray] = None,
    ) -> None:
        items = np.asarray(items)
        lengths = np.asarray(lengths)
        if items.ndim != 2:
            raise ValueError(f"items must be 2-D (n_rows, n), got shape {items.shape}")
        if lengths.shape != (items.shape[0],):
            raise ValueError(
                f"lengths must have shape ({items.shape[0]},), got {lengths.shape}"
            )
        if scores is not None:
            scores = np.asarray(scores)
            if scores.shape != items.shape:
                raise ValueError(
                    f"scores shape {scores.shape} does not match items {items.shape}"
                )
        self.items = items
        self.lengths = lengths
        self.scores = scores

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, width: int = 0, with_scores: bool = False) -> "TopNResult":
        """A zero-row result (the empty-input serving contract)."""
        return cls(
            np.empty((0, width), dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty((0, width), dtype=np.float64) if with_scores else None,
        )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[np.ndarray],
        scores: Optional[Sequence[np.ndarray]] = None,
        width: Optional[int] = None,
    ) -> "TopNResult":
        """Pack variable-length per-row arrays into one flat result.

        The constructor of the wire decoder, which reads one list per row.
        ``width`` defaults to the longest row; shorter rows are padded with
        ``-1`` (and ``-inf`` in the score block).  Every id must fit the
        int32 block, and each score row must be as long as its ranking row
        (else :class:`ValueError`).
        """
        lengths = [len(row) for row in rows]
        if width is None:
            width = max(lengths, default=0)
        ids = list(itertools.chain.from_iterable(rows))
        if ids and not (_INT32_MIN <= min(ids) and max(ids) <= _INT32_MAX):
            raise ValueError("a ranking id is outside the int32 range")
        items = np.full((len(rows), width), -1, dtype=np.int32)
        for i, row in enumerate(rows):
            items[i, : lengths[i]] = row
        score_block = None
        if scores is not None:
            if len(scores) != len(rows):
                raise ValueError(f"{len(scores)} score rows for {len(rows)} ranking rows")
            score_block = np.full((len(rows), width), -np.inf, dtype=np.float64)
            for i, score_row in enumerate(scores):
                if len(score_row) != lengths[i]:
                    raise ValueError(
                        f"score row {i} has {len(score_row)} entries for "
                        f"{lengths[i]} ranked items"
                    )
                score_block[i, : lengths[i]] = score_row
        return cls(items, np.array(lengths, dtype=np.int32), score_block)

    @classmethod
    def concat(cls, results: Sequence["TopNResult"]) -> "TopNResult":
        """Stack shard results into one flat result (order preserved).

        A lone result is returned as it is, not copied.  Shards of one
        serving call share a width, so the common case is a straight
        ``vstack`` of the blocks; mixed widths (merging calls with different
        ``n_items``) are padded to the widest.
        """
        results = list(results)
        if not results:
            return cls.empty()
        if len(results) == 1:
            return results[0]
        widths = {result.width for result in results}
        with_scores = all(result.scores is not None for result in results)
        if len(widths) == 1:
            items = np.vstack([result.items for result in results])
            lengths = np.concatenate([result.lengths for result in results])
            scores = (
                np.vstack([result.scores for result in results])
                if with_scores
                else None
            )
            return cls(items, lengths, scores)
        width = max(widths)
        total = sum(len(result) for result in results)
        items = np.full((total, width), -1, dtype=np.int32)
        lengths = np.empty(total, dtype=np.int32)
        scores = np.full((total, width), -np.inf, dtype=np.float64) if with_scores else None
        row = 0
        for result in results:
            stop = row + len(result)
            items[row:stop, : result.width] = result.items
            lengths[row:stop] = result.lengths
            if scores is not None:
                scores[row:stop, : result.width] = result.scores
            row = stop
        return cls(items, lengths, scores)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Number of ranked rows."""
        return self.items.shape[0]

    @property
    def width(self) -> int:
        """Allocated columns per row (the call's effective ``n``)."""
        return self.items.shape[1]

    # ------------------------------------------------------------------ #
    # Sequence protocol: rows as zero-copy views
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.items.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice) or getattr(index, "ndim", 0):  # or an index array
            return TopNResult(
                self.items[index],
                self.lengths[index],
                None if self.scores is None else self.scores[index],
            )
        i = int(index)
        if i < 0:
            i += self.n_rows
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {index} out of range for {self.n_rows} rows")
        return self.items[i, : self.lengths[i]]

    def __iter__(self) -> Iterator[np.ndarray]:
        items, lengths = self.items, self.lengths
        for i in range(items.shape[0]):
            yield items[i, : lengths[i]]

    def row_scores(self, index: int) -> np.ndarray:
        """Scores of row ``index``'s valid prefix (zero-copy view)."""
        if self.scores is None:
            raise ValueError("this TopNResult carries no scores")
        i = int(index)
        if i < 0:
            i += self.n_rows
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {index} out of range for {self.n_rows} rows")
        return self.scores[i, : self.lengths[i]]

    def score_rows(self) -> List[np.ndarray]:
        """Per-row score views, aligned with the rankings."""
        return [self.row_scores(i) for i in range(self.n_rows)]

    def to_lists(self) -> List[List[int]]:
        """JSON-ready nested lists of plain ints (the gateway codec form)."""
        items, lengths = self.items, self.lengths
        return [items[i, : lengths[i]].tolist() for i in range(items.shape[0])]

    # ------------------------------------------------------------------ #
    # Equality (row-wise) and pickling
    # ------------------------------------------------------------------ #
    def __eq__(self, other) -> bool:
        if isinstance(other, TopNResult):
            return len(self) == len(other) and all(
                np.array_equal(a, b) for a, b in zip(self, other)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                np.array_equal(row, np.asarray(candidate))
                for row, candidate in zip(self, other)
            )
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # rows are mutable arrays

    def __reduce__(self):
        return (TopNResult, (self.items, self.lengths, self.scores))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        scored = ", scored" if self.scores is not None else ""
        return f"TopNResult(n_rows={self.n_rows}, width={self.width}{scored})"
