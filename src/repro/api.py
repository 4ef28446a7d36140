"""The unified request/response vocabulary every serving entrypoint speaks.

Every serving path — in process, micro-batched, or over the network —
accepts one typed :class:`RecommendRequest` and produces one typed
:class:`RecommendResponse`, instead of each growing its own ad-hoc argument
vocabulary:

* ``RecommenderRuntime.recommend(request)`` — blocking, in-process;
* ``BatchingFrontEnd.submit_request(request)`` — a future, micro-batched;
* the asyncio gateway (:mod:`repro.runtime.gateway`) — the same two
  dataclasses as newline-delimited JSON frames over a socket.

Both dataclasses are frozen (a request is hashable configuration plus row
payload; a response is an immutable record of what was served) and carry
JSON codecs, so the wire protocol is exactly ``request.to_json()`` one way
and ``RecommendResponse.from_json`` the other — there is no separate wire
schema to drift out of sync.

A request is **either** known-users top-N (``users=(3, 17, 41)``) **or**
cold-start fold-in (``interactions=((2, 9), (5,))`` — one item-index tuple
per unseen user); exactly one of the two must be given.
:attr:`RecommendRequest.options` is the hashable serving-option key the
micro-batcher groups by: requests whose options match can be merged into
one engine call and scattered back without changing any per-row math.

A response's rankings always take one shape, a flat
:class:`~repro.serving.results.TopNResult` that carries its own score
block when the request asked ``with_scores`` — the shape the engine
returns, sliced per request by the batcher and rebuilt by the decoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.serving.results import TopNResult
from repro.utils.validation import as_int_tuple, check_non_negative_float

#: Default tenant for requests that do not name one.  Tenancy only matters
#: under gateway backpressure, where the fair queue admits the tenants with
#: backlog in equal-share round-robin; in-process callers can ignore it.
DEFAULT_TENANT = "default"

#: Ceiling on a request's fold-in budget.  With ``tolerance=0`` a fold-in
#: runs every sweep it is asked for, on the thread that serves the request
#: (over the gateway, the batcher's one dispatcher), so one frame must not
#: ask for an unbounded number.  Three times the default.
MAX_FOLD_IN_SWEEPS = 100

#: Request fields the dict/JSON codec accepts.  ``from_dict`` is strict —
#: an unknown key is a typed error, not a silent drop — so a client typo
#: (``"nitems"``) fails loudly at the gateway instead of serving defaults.
_REQUEST_FIELDS = (
    "users",
    "interactions",
    "n_items",
    "exclude_seen",
    "with_scores",
    "n_sweeps",
    "tolerance",
    "tenant",
)


@dataclass(frozen=True)
class RecommendRequest:
    """One serving request, identical in-process and on the wire.

    Parameters
    ----------
    users:
        Known-user top-N: indices into the training matrix.  May be empty
        (the response is then empty too).  Mutually exclusive with
        ``interactions``.
    interactions:
        Cold-start fold-in: one item-index tuple per unseen user.  Mutually
        exclusive with ``users``.
    n_items:
        Ranked-list length per row.
    exclude_seen:
        Mask each row's own positives (the deployment default).
    with_scores:
        Also return the model score of every ranked item.
    n_sweeps / tolerance:
        Fold-in solver budget, at most :data:`MAX_FOLD_IN_SWEEPS` sweeps;
        ignored for known-user requests.
    tenant:
        Client identity for the gateway's weighted fair queue; any
        non-empty string.  Irrelevant to ranking.
    """

    users: Optional[Tuple[int, ...]] = None
    interactions: Optional[Tuple[Tuple[int, ...], ...]] = None
    n_items: int = 10
    exclude_seen: bool = True
    with_scores: bool = False
    n_sweeps: int = 30
    tolerance: float = 1e-8
    tenant: str = DEFAULT_TENANT

    def __post_init__(self) -> None:
        if (self.users is None) == (self.interactions is None):
            raise ConfigurationError(
                "a RecommendRequest takes exactly one of users= (known-user "
                "top-N) or interactions= (cold-start fold-in)"
            )
        if self.users is not None:
            object.__setattr__(self, "users", as_int_tuple(self.users, "users"))
        else:
            try:
                rows = tuple(
                    as_int_tuple(row, "interactions") for row in self.interactions
                )
            except TypeError as error:
                raise ConfigurationError(
                    "interactions must be a sequence of item-index sequences "
                    "(one per cold-start user)"
                ) from error
            object.__setattr__(self, "interactions", rows)
        if not isinstance(self.n_items, int) or self.n_items <= 0:
            raise ConfigurationError(f"n_items must be a positive integer, got {self.n_items!r}")
        if not isinstance(self.n_sweeps, int) or not 0 < self.n_sweeps <= MAX_FOLD_IN_SWEEPS:
            raise ConfigurationError(
                f"n_sweeps must be an integer in [1, {MAX_FOLD_IN_SWEEPS}], got {self.n_sweeps!r}"
            )
        object.__setattr__(self, "exclude_seen", bool(self.exclude_seen))
        object.__setattr__(self, "with_scores", bool(self.with_scores))
        object.__setattr__(
            self, "tolerance", check_non_negative_float(self.tolerance, "tolerance")
        )
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ConfigurationError("tenant must be a non-empty string")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        """``"topn"`` (known users) or ``"folded"`` (cold-start fold-in)."""
        return "topn" if self.users is not None else "folded"

    @property
    def rows(self) -> Sequence:
        """The per-row payload: user indices, or one item tuple per row."""
        return self.users if self.users is not None else self.interactions

    @property
    def n_rows(self) -> int:
        """How many ranked lists this request asks for (its batch weight)."""
        return len(self.rows)

    @property
    def options(self) -> Tuple:
        """Hashable serving-option key: requests sharing it may be merged.

        Two requests with equal ``options`` produce identical per-row math,
        so the micro-batcher can flatten their rows into one engine call and
        slice the results back apart.  ``tenant`` is deliberately excluded —
        tenancy governs admission, not ranking.
        """
        common = (self.kind, self.n_items, self.exclude_seen, self.with_scores)
        if self.kind == "folded":
            return common + (self.n_sweeps, self.tolerance)
        return common

    def merged_with_rows(self, rows: Sequence) -> "RecommendRequest":
        """A copy of this request carrying ``rows`` as its payload.

        The micro-batcher uses this to build the merged request of an
        option-group: same options, the group's flattened rows.
        """
        if self.kind == "topn":
            return replace(self, users=tuple(rows))
        return replace(self, interactions=tuple(tuple(row) for row in rows))

    # ------------------------------------------------------------------ #
    # Codecs
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-ready mapping; exactly what the gateway accepts as a frame."""
        payload: dict = {"n_items": self.n_items, "exclude_seen": self.exclude_seen}
        if self.users is not None:
            payload["users"] = list(self.users)
        else:
            payload["interactions"] = [list(row) for row in self.interactions]
            payload["n_sweeps"] = self.n_sweeps
            payload["tolerance"] = self.tolerance
        if self.with_scores:
            payload["with_scores"] = True
        if self.tenant != DEFAULT_TENANT:
            payload["tenant"] = self.tenant
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict) -> "RecommendRequest":
        """Strict inverse of :meth:`to_dict` (unknown keys are typed errors)."""
        if not isinstance(payload, dict):
            raise ConfigurationError("a request frame must be a JSON object")
        unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown request field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(_REQUEST_FIELDS)})"
            )
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "RecommendRequest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"request is not valid JSON: {error}") from error
        return cls.from_dict(payload)


#: A response's integer fields with their defaults, and its float fields
#: (default 0.0), in decoding order.
_RESPONSE_INTS = (
    ("generation", 0),
    ("batch_id", 0),
    ("batch_requests", 1),
    ("batch_users", 0),
)
_RESPONSE_FLOATS = ("queue_ms", "serve_ms")


@dataclass(frozen=True)
class RecommendResponse:
    """What every serving path returns for one :class:`RecommendRequest`.

    Attributes
    ----------
    rankings:
        The ranked item indices, aligned with the request's rows, as a flat
        :class:`~repro.serving.results.TopNResult` — identical to what the
        in-process engine returns for the same request and model version.
        When the request asked ``with_scores`` it carries the ranked items'
        model scores in its score block.
    generation:
        The runtime model generation that served the request.  Batched and
        gateway responses pin it per micro-batch, so a response formed
        against version N reports N even when an ``update()`` landed
        mid-flight.
    queue_ms:
        Time the request waited between submission and dispatch (0 for the
        unbatched in-process path).
    serve_ms:
        Time spent actually serving the (possibly merged) engine call.
    batch_id / batch_requests / batch_users:
        Which micro-batch the request rode, how many requests it coalesced,
        and its total merged rows (occupancy).  ``batch_requests == 1`` for
        the unbatched path.
    """

    rankings: TopNResult
    generation: int
    queue_ms: float = 0.0
    serve_ms: float = 0.0
    batch_id: int = 0
    batch_requests: int = 1
    batch_users: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.rankings, TopNResult):
            raise ConfigurationError(
                f"rankings must be a TopNResult, got {type(self.rankings).__name__}"
            )

    @property
    def scores(self) -> Optional[List[np.ndarray]]:
        """Per-row views of ``rankings.scores``; ``None`` when unscored."""
        if self.rankings.scores is None:
            return None
        return self.rankings.score_rows()

    # ------------------------------------------------------------------ #
    # Codecs
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        # One vectorised tolist per row instead of a Python int() per item.
        payload = {
            "rankings": self.rankings.to_lists(),
            "generation": int(self.generation),
            "queue_ms": float(self.queue_ms),
            "serve_ms": float(self.serve_ms),
            "batch_id": int(self.batch_id),
            "batch_requests": int(self.batch_requests),
            "batch_users": int(self.batch_users),
        }
        if self.rankings.scores is not None:
            payload["scores"] = [row.tolist() for row in self.rankings.score_rows()]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict) -> "RecommendResponse":
        """Lenient inverse of :meth:`to_dict`.

        Unknown keys are ignored so a response embedded in a larger frame
        (the gateway adds ``id`` and ``ok``) decodes directly.  Everything
        else is checked: ranking ids and the integer fields follow the
        request codec's integer rule, ids must fit the int32 ranking block,
        and score rows must match the ranking rows one for one, entry for
        entry.  A frame that breaks any of it is a
        :class:`~repro.exceptions.ConfigurationError`.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError("a response frame must be a JSON object")
        try:
            rows = [as_int_tuple(row, "rankings") for row in payload.get("rankings", [])]
            rankings = TopNResult.from_rows(rows, scores=payload.get("scores"))
            generation, batch_id, batch_requests, batch_users = as_int_tuple(
                [payload.get(name, default) for name, default in _RESPONSE_INTS],
                "generation and batch counters",
            )
            queue_ms, serve_ms = (float(payload.get(name, 0.0)) for name in _RESPONSE_FLOATS)
        except (ConfigurationError, TypeError, ValueError) as error:
            raise ConfigurationError(f"malformed response frame: {error}") from error
        return cls(
            rankings=rankings,
            generation=generation,
            queue_ms=queue_ms,
            serve_ms=serve_ms,
            batch_id=batch_id,
            batch_requests=batch_requests,
            batch_users=batch_users,
        )

    @classmethod
    def from_json(cls, text: str) -> "RecommendResponse":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"response is not valid JSON: {error}") from error
        return cls.from_dict(payload)


__all__ = [
    "DEFAULT_TENANT",
    "RecommendRequest",
    "RecommendResponse",
]
