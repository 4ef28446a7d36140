"""Figure 1 / Figure 3: the toy overlapping co-cluster example.

Paper claims reproduced here:

* OCuLaR fits the 12x12 toy matrix and recommends **item 4 to user 6 with
  confidence 0.83**, justified by two co-clusters (items 1-3 bought by users
  4-5, items 5-9 bought by users 7-9).
* All three "white square" candidate recommendations are each user's top-1
  recommendation.
"""

from __future__ import annotations

from _paper import fit_toy_model, top1_recovered
from _report import write_bench_json
from conftest import run_once

from repro.core.render import render_matrix, render_probability_matrix
from repro.data.synthetic import make_paper_toy_example

USER, ITEM = 6, 4

PAPER_CLAIM = "Item 4 is recommended to User 6 with confidence 0.83"


def test_fig3_toy_example(benchmark, report_writer):
    toy = make_paper_toy_example()
    model = run_once(benchmark, fit_toy_model, toy)

    confidence = model.predict_proba(USER, ITEM)
    scores = model.score_user(USER)
    seen = set(toy.matrix.items_of_user(USER).tolist())
    unknown = sorted(
        (item for item in range(toy.matrix.n_items) if item not in seen),
        key=lambda item: -scores[item],
    )
    rank = unknown.index(ITEM) + 1
    recovered = top1_recovered(model, toy)
    explanation = model.explain(USER, ITEM)
    lines = [
        "Figure 1 / Figure 3 — toy overlapping co-cluster example",
        f"paper: {PAPER_CLAIM}",
        f"measured: item {ITEM} recommended to user {USER} with confidence {confidence:.2f} "
        f"(rank {rank} among user {USER}'s unknowns)",
        f"candidate recommendations recovered at top-1: {recovered} of "
        f"{len(toy.heldout_pairs)}",
        f"co-clusters supporting the headline recommendation: "
        f"{explanation.n_supporting_coclusters}",
        "",
        "input matrix:",
        render_matrix(toy.matrix),
        "",
        "fitted probabilities (observed positives bracketed):",
        render_probability_matrix(model.factors_, toy.matrix, max_users=12, max_items=12),
        "",
        "generated rationale:",
        explanation.to_text(),
    ]
    report_writer("fig3_toy_example", "\n".join(lines))
    write_bench_json(
        "fig3_toy_example",
        dict(
            headline_confidence=confidence,
            headline_rank=rank,
            holes_recovered_at_1=recovered,
            supporting_coclusters=explanation.n_supporting_coclusters,
        ),
    )

    assert rank == 1
    assert abs(confidence - 0.83) < 0.10
    assert recovered == 3
    assert explanation.n_supporting_coclusters >= 2
