#!/usr/bin/env python
"""B2B deployment walk-through (the paper's Section VIII and Figure 10).

Generates a synthetic business-to-business purchase corpus (named client
companies with industries, enterprise products with historical deal values),
fits OCuLaR, and prints seller-facing recommendation cards: product,
confidence, co-cluster rationale naming the similar clients, and a price
estimate from the co-cluster members' historical purchases.

Run with::

    python examples/b2b_deployment.py
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import OCuLaR, RecommendRequest
from repro.core.coclusters import cocluster_statistics, extract_coclusters
from repro.core.explain import batch_reports
from repro.core.render import render_coclusters
from repro.data.datasets import make_b2b
from repro.evaluation.metrics import catalog_coverage
from repro.runtime import (
    BatchingFrontEnd,
    GatewayClient,
    GatewayThread,
    RecommenderRuntime,
)
from repro.serving import fold_in_users


def main() -> None:
    warnings.filterwarnings("ignore")

    # ------------------------------------------------------------------ #
    # 1. The corpus: companies x enterprise products with deal values.
    # ------------------------------------------------------------------ #
    dataset = make_b2b(n_clients=400, n_products=60, random_state=0)
    matrix = dataset.matrix
    print(
        f"B2B corpus: {matrix.n_users} client companies x {matrix.n_items} products, "
        f"{matrix.nnz} historical purchases."
    )
    print()

    # ------------------------------------------------------------------ #
    # 2. Fit OCuLaR and summarise the discovered buying patterns.
    # ------------------------------------------------------------------ #
    model = OCuLaR(
        n_coclusters=12, regularization=2.0, max_iterations=100, random_state=0
    ).fit(matrix)
    coclusters = extract_coclusters(model.factors_, matrix, drop_empty=True)
    stats = cocluster_statistics(coclusters, n_users=matrix.n_users, n_items=matrix.n_items)
    print(
        f"Discovered {stats.n_coclusters} co-clusters; on average "
        f"{stats.mean_users:.0f} clients x {stats.mean_items:.1f} products each, "
        f"density {stats.mean_density:.2f}."
    )
    print()
    print("Example buying patterns (top members):")
    print(render_coclusters(coclusters[:4], matrix, max_members=4))
    print()

    # ------------------------------------------------------------------ #
    # 3. Seller-facing recommendation cards for the largest accounts —
    #    ranked in one pass through the batch serving engine.
    # ------------------------------------------------------------------ #
    top_accounts = np.argsort(-matrix.user_degrees())[:3]
    reports = batch_reports(
        model,
        [int(client) for client in top_accounts],
        n_items=2,
        deal_values=dataset.deal_values,
    )
    for report in reports:
        print(report.to_text())
        print()

    # ------------------------------------------------------------------ #
    # 4. Publish the fitted model into the serving runtime.  Every request
    #    from here on is one RecommendRequest through the unified
    #    runtime.recommend(request) entrypoint — known accounts and
    #    cold-start fold-ins alike.
    # ------------------------------------------------------------------ #
    with RecommenderRuntime(executor="serial") as runtime:
        runtime.fit(model, matrix)
        runtime.publish()

        # Catalogue-coverage diagnostic: co-cluster recommendations reach
        # beyond the global best-sellers.  One chunked batch request.
        sample_clients = tuple(range(0, matrix.n_users, 4))
        response = runtime.recommend(
            RecommendRequest(users=sample_clients, n_items=3)
        )
        coverage = catalog_coverage(response.rankings, n_items=matrix.n_items)
        print(
            f"Catalogue coverage of the top-3 lists over {len(sample_clients)} "
            f"accounts: {coverage:.0%} of all products are recommended to someone "
            f"(model generation {response.generation})."
        )
        print()

        # ------------------------------------------------------------------ #
        # 5. Cold-start fold-in: a brand-new client walks in after the
        #    nightly fit.  Their purchase vector is folded into the fixed
        #    item factors (a few convex projected-gradient sweeps — no
        #    refit).  Same entrypoint, interactions payload instead of users.
        # ------------------------------------------------------------------ #
        template = int(np.argsort(-matrix.user_degrees())[10])
        new_client_purchases = matrix.items_of_user(template)[:4]
        purchased_names = ", ".join(
            matrix.label_of_item(int(item)) for item in new_client_purchases
        )
        print(
            f"New client (not in the training run) already bought: {purchased_names}."
        )

        factors = fold_in_users(model, [new_client_purchases])[0]
        memberships = (
            int((factors > 0.05 * factors.max()).sum()) if factors.max() > 0 else 0
        )
        folded = runtime.recommend(
            RecommendRequest(interactions=(new_client_purchases,), n_items=3)
        )
        suggestions = ", ".join(
            matrix.label_of_item(int(item)) for item in folded.rankings[0]
        )
        print(
            f"Fold-in placed them in {memberships} co-cluster(s); "
            f"next-product suggestions: {suggestions}."
        )
        print()

        # ------------------------------------------------------------------ #
        # 6. The same requests over the network: the asyncio gateway speaks
        #    newline-delimited JSON and coalesces concurrent clients into
        #    micro-batches behind the identical request/response API.
        # ------------------------------------------------------------------ #
        with BatchingFrontEnd(runtime, max_delay_ms=2.0, adaptive=True) as front:
            with GatewayThread(front) as gateway:
                host, port = gateway.address
                with GatewayClient(host, port) as client:
                    wire = client.recommend(
                        RecommendRequest(
                            users=tuple(int(c) for c in top_accounts),
                            n_items=2,
                            tenant="seller-dashboard",
                        )
                    )
                over_the_wire = ", ".join(
                    matrix.label_of_item(int(item)) for item in wire.rankings[0]
                )
        print(
            f"Served over the gateway on {host}:{port}: top account "
            f"{matrix.label_of_user(int(top_accounts[0]))} -> {over_the_wire} "
            f"(queued {wire.queue_ms:.1f} ms, generation {wire.generation})."
        )


if __name__ == "__main__":
    main()
