"""Figure 2: generic community detection fails to recover overlapping co-clusters.

Paper claim reproduced here: running Modularity (non-overlapping) and
BIGCLAM (overlapping) on the toy purchase graph recovers community boundaries
that identify **only 1 of the 3** candidate recommendations, whereas OCuLaR
identifies all three.

A candidate (user, item) counts as identified by a community method when
some detected community contains both the user and the item.  OCuLaR
produces a ranked list instead, so its candidates are the top-1
recommendations rather than bare community membership — exactly the paper's
point about community detection not being directly applicable to
one-class collaborative filtering.
"""

from __future__ import annotations

from _paper import fit_toy_model, top1_recovered
from _report import write_bench_json
from conftest import run_once

from repro.community.bigclam import BigClam
from repro.community.modularity import GreedyModularityCommunities
from repro.data.synthetic import make_paper_toy_example
from repro.utils.tables import format_table

PAPER_CLAIM = (
    "Modularity and BIGCLAM fail to recover the overlapping structure and "
    "identify only 1 of the 3 candidate recommendations"
)


def pairs_covered(pairs, user_sets, item_sets) -> int:
    """Count pairs contained in at least one (user-set, item-set) block."""
    blocks = [
        ({int(user) for user in users}, {int(item) for item in items})
        for users, items in zip(user_sets, item_sets)
    ]
    return sum(
        any(user in users and item in items for users, items in blocks) for user, item in pairs
    )


def run_community_comparison() -> dict:
    """Per method: ``(candidates identified, communities found)``."""
    toy = make_paper_toy_example()
    pairs = toy.heldout_pairs
    modularity = GreedyModularityCommunities().fit(toy.matrix)
    bigclam = BigClam(n_communities=3, max_iterations=150, random_state=0).fit(toy.matrix)
    ocular = fit_toy_model(toy)
    return {
        "bigclam": (
            pairs_covered(pairs, bigclam.user_communities(), bigclam.item_communities()),
            len(bigclam.communities()),
        ),
        "modularity": (
            pairs_covered(pairs, modularity.user_communities(), modularity.item_communities()),
            modularity.n_communities,
        ),
        "ocular": (
            top1_recovered(ocular, toy),
            sum(1 for c in ocular.coclusters(membership_threshold=0.5) if not c.is_empty),
        ),
    }


def test_fig2_community_baselines(benchmark, report_writer):
    results = run_once(benchmark, run_community_comparison)
    n_candidates = len(make_paper_toy_example().heldout_pairs)

    rows = [
        [method, covered, n_candidates, communities]
        for method, (covered, communities) in results.items()
    ]
    lines = [
        "Figure 2 — community-detection baselines on the toy example",
        f"paper: {PAPER_CLAIM}",
        "",
        format_table(["method", "candidates identified", "out of", "communities"], rows),
    ]
    report_writer("fig2_community_baselines", "\n".join(lines))
    write_bench_json(
        "fig2_community_baselines",
        {f"covered_{method}": covered for method, (covered, _) in results.items()},
        n_candidates=n_candidates,
    )

    assert n_candidates == 3
    assert results["modularity"][0] <= 1
    assert results["bigclam"][0] <= 1
    assert results["ocular"][0] == 3
