"""Property-based test for the gateway's wire boundary (hypothesis).

Pipelined sequences mix valid frames with frames from a small grammar of
malformed ones, against a front-end that holds long enough for the frames of
one sequence to merge into a batch.  Whatever the mix: one reply per frame
under its own ``id``, every valid frame served exactly as the runtime serves
it alone, every invalid one refused with a client-side code — never
``server-error`` — and the connection still answers afterwards."""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RecommendRequest
from repro.core.ocular import OCuLaR
from repro.data.datasets import make_netflix_like
from repro.runtime import BatchingFrontEnd, GatewayClient, GatewayThread, RecommenderRuntime

N_USERS, N_ITEMS = 40, 25

#: Same serving options on valid and invalid frames alike, so they merge.
TOPN = {"n_items": 4}
COLD = {"n_items": 4, "n_sweeps": 3}


@pytest.fixture(scope="module")
def runtime():
    matrix, _spec = make_netflix_like(n_users=N_USERS, n_items=N_ITEMS, random_state=0)
    model = OCuLaR(
        n_coclusters=4, regularization=5.0, max_iterations=3, tolerance=0.0, random_state=0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with RecommenderRuntime(executor="serial") as rt:
            rt.fit(model, matrix)
            rt.publish()
            yield rt


@pytest.fixture(scope="module")
def address(runtime):
    with BatchingFrontEnd(runtime, max_delay_ms=15) as front:
        with GatewayThread(front) as gateway:
            yield gateway.address


def _not_an_index_below(bound):
    """Ids no corpus of ``bound`` rows holds: negative, past the end, huge,
    fractional, infinite or NaN."""
    return st.one_of(
        st.integers(max_value=-1),
        st.integers(min_value=bound),
        st.floats().filter(lambda x: not (x.is_integer() and 0 <= x < bound)),
    )


def _with_one_bad(good, bad):
    """A list of ``good`` elements with one ``bad`` element somewhere in it."""
    few = st.lists(good, max_size=2)
    return st.tuples(few, bad, few).map(lambda parts: [*parts[0], parts[1], *parts[2]])


users = st.integers(0, N_USERS - 1)
items = st.lists(st.integers(0, N_ITEMS - 1), max_size=4)

#: Valid request payloads: empty and duplicate users included.
valid = st.one_of(
    st.lists(users, max_size=4).map(lambda ids: {"users": ids, **TOPN}),
    st.lists(items, min_size=1, max_size=2).map(lambda rows: {"interactions": rows, **COLD}),
)

#: Payloads that decode as JSON objects (``NaN`` / ``Infinity`` literals
#: included) and must be answered ``bad-request``.
bad_request = st.one_of(
    _with_one_bad(users, _not_an_index_below(N_USERS)).map(lambda ids: {"users": ids, **TOPN}),
    _with_one_bad(st.integers(0, N_ITEMS - 1), _not_an_index_below(N_ITEMS)).map(
        lambda row: {"interactions": [[1, 2], row], **COLD}
    ),
    st.sampled_from(
        [
            {"users": "17", **TOPN},
            {"interactions": "17", **COLD},
            {"interactions": ["17"], **COLD},
            {"interactions": [3], **COLD},
            {"users": [1], "nitems": 4},
            {"users": [1], "interactions": [[2]]},
            {"n_items": 4},
            {"users": [1], "n_items": 0},
            {"users": [1], "n_items": 2.5},
            {"interactions": [[1]], "n_sweeps": -3},
            {"interactions": [[1]], "tolerance": float("nan")},
            {"interactions": [[1]], "tolerance": -1.0},
            {"users": [1], "tenant": ""},
        ]
    ),
)

#: Whole lines that are not a JSON object: answered ``bad-json`` with no id.
bad_json = st.sampled_from(["[1, 2, 3]", '"users"', "17", "null", '{"users": [1]', "{oops"])

frames = st.lists(
    st.one_of(
        valid.map(lambda payload: ("ok", payload)),
        bad_request.map(lambda payload: ("bad-request", payload)),
        st.just(("unknown-op", {"op": "explode"})),
        bad_json.map(lambda line: ("bad-json", line)),
    ),
    min_size=1,
    max_size=8,
)


@given(frames)
@settings(max_examples=30, deadline=None)
def test_every_frame_is_answered_on_its_own_account(runtime, address, sequence):
    lines = [
        payload if kind == "bad-json" else json.dumps({"id": rid, **payload})
        for rid, (kind, payload) in enumerate(sequence)
    ]
    with GatewayClient(*address, timeout=60.0) as client:
        client._file.write("".join(line + "\n" for line in lines).encode("utf-8"))
        client._file.flush()
        replies = [client.recv_frame() for _ in sequence]
        assert client.request({"op": "stats"})["ok"] is True

    unparsed = [reply for reply in replies if reply["id"] is None]
    assert len(unparsed) == sum(kind == "bad-json" for kind, _ in sequence)
    assert all(reply["error"]["code"] == "bad-json" for reply in unparsed)
    by_id = {reply["id"]: reply for reply in replies if reply["id"] is not None}
    assert len(by_id) + len(unparsed) == len(sequence)
    for rid, (kind, payload) in enumerate(sequence):
        if kind == "bad-json":
            continue
        reply = by_id[rid]
        if kind == "ok":
            expected = runtime.recommend(RecommendRequest.from_dict(payload))
            assert reply["ok"] is True, reply
            assert reply["generation"] == expected.generation
            assert reply["rankings"] == expected.rankings.to_lists()
        else:
            assert reply["ok"] is False and reply["error"]["code"] == kind, (payload, reply)
