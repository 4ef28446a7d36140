"""Figure 10 / Section VIII: deployment-style recommendation rationale.

Paper claim reproduced here: in the deployed B2B system every recommendation
card carries (a) the recommended product and a confidence, (b) a co-cluster
rationale that names the similar client companies, and (c) a price estimate
derived from the historical purchases of the co-cluster members.  The bench
fits OCuLaR on the synthetic B2B corpus and reports on the clients with the
largest purchase histories (the accounts a seller would care about most).

The deployed model is retrained and republished while it serves.  A second
check does that at the paper's MovieLens-1M shape on a process runtime: it
records what ``update()`` costs and requires that, once two updates have run
on one matrix, a further one makes no new shared-memory segment (it
rewrites the factor segments the released generation left free and shares
the seen mask).  The timings are recorded, not gated.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from _report import write_bench_json
from conftest import run_once

from repro.core.coclusters import extract_coclusters
from repro.core.ocular import OCuLaR
from repro.core.explain import batch_reports
from repro.core.render import render_coclusters
from repro.data.datasets import dataset_by_name, make_b2b
from repro.runtime import RecommenderRuntime

PARAMS = dict(n_clients=300, n_products=50, n_coclusters=12)

PAPER_CLAIM = (
    "recommendations are delivered with a textual co-cluster rationale and a "
    "price estimate derived from the co-cluster members' historical purchases"
)


def run_deployment_example():
    """Seller-facing reports (three cards each) for the three largest clients."""
    dataset = make_b2b(
        n_clients=PARAMS["n_clients"], n_products=PARAMS["n_products"], random_state=0
    )
    model = OCuLaR(
        n_coclusters=PARAMS["n_coclusters"],
        regularization=2.0,
        max_iterations=80,
        random_state=0,
    ).fit(dataset.matrix)
    clients = np.argsort(-dataset.matrix.user_degrees())[:3]
    # The nightly-batch shape: every selected client is ranked in one pass
    # through the serving engine, then the explanation cards are rendered.
    reports = batch_reports(
        model, [int(client) for client in clients], n_items=3, deal_values=dataset.deal_values
    )
    coclusters = extract_coclusters(model.factors_, dataset.matrix, drop_empty=True)
    return reports, render_coclusters(coclusters[:6], dataset.matrix, max_members=5)


def test_fig10_deployment_rationale(benchmark, report_writer):
    reports, overview = run_once(benchmark, run_deployment_example)

    cards = [explanation for report in reports for explanation in report.explanations]
    with_rationale = sum(1 for card in cards if card.evidence)
    with_price = sum(1 for card in cards if card.price_estimate is not None)
    text = "\n\n".join(
        [
            "Figure 10 — deployment-style recommendation rationale (synthetic B2B data)",
            *(report.to_text() for report in reports),
            "Discovered buying patterns (co-clusters):\n" + overview,
        ]
    )
    lines = [
        text,
        "",
        f"paper: {PAPER_CLAIM}",
        f"measured: {len(cards)} recommendation cards generated; "
        f"{with_rationale} with a co-cluster rationale, {with_price} with a price estimate",
    ]
    report_writer("fig10_deployment", "\n".join(lines))
    write_bench_json(
        "fig10_deployment",
        dict(
            n_recommendations=len(cards),
            with_rationale=with_rationale,
            with_price=with_price,
        ),
        **PARAMS,
    )

    assert len(cards) == 9
    # Every card carries a rationale and a price estimate, as in the deployed
    # UI.
    assert with_rationale >= 8
    assert with_price >= 8
    # The rationale text names actual client companies.
    assert "Corp" in text
    assert "confidence" in text


UPDATE_PARAMS = dict(dataset="movielens-1m", n_coclusters=50, max_workers=2, updates=10)


def run_updates_at_paper_shape():
    """``update()`` timings on one matrix, and the segment names around the last one."""
    matrix = dataset_by_name(UPDATE_PARAMS["dataset"])
    with RecommenderRuntime(
        executor="process", max_workers=UPDATE_PARAMS["max_workers"]
    ) as runtime:
        runtime.fit(
            OCuLaR(
                n_coclusters=UPDATE_PARAMS["n_coclusters"], max_iterations=1, random_state=0
            ),
            matrix,
        )
        names = runtime.executor.active_segment_names
        update_ms = []
        for number in range(UPDATE_PARAMS["updates"]):
            if number == UPDATE_PARAMS["updates"] - 1:
                before = set(names())
            started = time.perf_counter()
            runtime.update()
            update_ms.append((time.perf_counter() - started) * 1000.0)
        after = set(names())
    return matrix, update_ms, before, after


def test_fig10_republish_at_paper_shape(benchmark, report_writer):
    matrix, update_ms, before, after = run_once(benchmark, run_updates_at_paper_shape)
    # The first update publishes the seen mask and a factor pair; the second
    # a second pair, beside the one the first generation still serves; from
    # the third on, each rewrites the pair its predecessor's predecessor left.
    steady_ms = statistics.median(update_ms[2:])
    report_writer(
        "fig10_republish",
        "\n".join(
            [
                "Figure 10 / Section VIII — republishing a served model "
                f"({matrix.n_users} x {matrix.n_items}, {matrix.nnz} positives, "
                f"K = {UPDATE_PARAMS['n_coclusters']})",
                f"update() ms: first {update_ms[0]:.2f}, second {update_ms[1]:.2f}, "
                f"median of the next {len(update_ms) - 2}: {steady_ms:.2f}",
                f"segments before / after the last update: {len(before)} / {len(after)}",
            ]
        ),
    )
    write_bench_json(
        "fig10_republish",
        dict(
            first_update_ms=update_ms[0],
            second_update_ms=update_ms[1],
            steady_update_ms=steady_ms,
            segments=len(after),
            new_segments_last_update=len(after - before),
        ),
        n_users=matrix.n_users,
        n_items=matrix.n_items,
        nnz=matrix.nnz,
        **UPDATE_PARAMS,
    )
    assert after == before
