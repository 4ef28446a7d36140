"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs every workload at ``--smoke`` scale and checks the contract, not the
numbers: the metric names and units a run emits are exactly the ones
``BENCHMARK.json`` declares, the corpus generator is deterministic, and a
corrupted ranking trips the correctness check.  Smoke numbers are never
compared with anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import corpus  # noqa: E402
import loadgen  # noqa: E402
import metrics  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

#: run.py refuses to time a client and a server on one core (exit 2).
needs_two_cores = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="the benchmark needs nproc >= 2")


def session_members(session: int) -> list:
    """``/proc/<pid>/stat`` of every process, zombies included, in ``session``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[3]) == session:
                found.append(stat[:60])
    return found


def run_smoke(workload: str, trace: int) -> dict:
    # In a session of its own, so that whatever the run leaves behind (pool
    # workers, the SUT child, resource trackers) can be found afterwards.
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke", "--trace", str(trace), "--seed", "3"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as process:
        out, err = process.communicate(timeout=170)
    assert process.returncode == 0, err[-2000:]
    assert session_members(process.pid) == [], "the run left a process behind"
    return json.loads(out.strip().splitlines()[-1])


def test_catalogue_equals_benchmark_json():
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in DECLARED["workloads"]] == [
        name for name in metrics.WORKLOADS if name not in metrics.UNGATED
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in DECLARED["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == list(metrics.PER_LAYER)
    assert "setup_s" in {m["name"] for m in DECLARED["end_to_end"]}
    assert len({name for name, *_ in metrics.END_TO_END + metrics.PER_LAYER}) == len(
        metrics.END_TO_END + metrics.PER_LAYER
    )


def test_catalogue_says_what_applies_where_and_what_should_move():
    """Every role is defined on every workload, no two roles of a workload
    share an alias, and every layer names end-to-end aliases that exist on the
    workload it names."""
    for workload, roles in metrics.ROLES.items():
        assert set(roles) == {name for name, *_ in metrics.END_TO_END}, workload
        aliases = [alias for alias, _what in roles.values()]
        assert len(set(aliases)) == len(aliases), workload
    for layer in metrics.CATALOGUE["layers"]:
        assert layer["call"] and layer["metrics"], layer["layer"]
        for alias, workload in layer["moves"]:
            targets = metrics.WORKLOADS if workload == "*" else (workload,)
            for target in targets:
                known = {found for found, _what in metrics.ROLES[target].values()}
                assert alias in known, f"{layer['layer']}: {alias} is not measured on {target}"
    moved = {alias for layer in metrics.CATALOGUE["layers"] for alias, _ in layer["moves"]}
    timed = {
        alias
        for roles in metrics.ROLES.values()
        for role, (alias, _what) in roles.items()
        if role != "quality_ratio"
    }
    assert timed <= moved, f"no layer claims to move {sorted(timed - moved)}"


@needs_two_cores
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_workload_emits_exactly_the_declared_end_to_end_metrics(workload):
    result = run_smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(value["value"] > 0 for value in result["metrics"].values())


@needs_two_cores
def test_traced_run_emits_exactly_the_declared_per_layer_metrics():
    # One workload is enough: the layer probes are the same code for all six.
    # (Takes ~15 s: the cluster executor's shutdown alone is ~10 s today.)
    result = run_smoke("wire-closed", trace=1)
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    trace = json.loads((HERE / "results" / "trace_wire-closed.json").read_text())
    assert trace["spans"] and {"name", "start", "end", "parent", "request_id"} <= set(trace["spans"][0])
    layer = trace["per_layer"]
    # The ladder is a partition of the floor only if every level costs more
    # than the level inside it; a negative part means two levels were not
    # measured on the same request.
    for part in ("wire_self_ms", "batcher_self_ms", "runtime_self_ms", "engine_ms"):
        assert layer[f"ladder.{part}"] >= 0, part
    parts = layer["refresh.ingest_s"] + layer["refresh.refit_s"] + layer["refresh.update_ms"] / 1000.0
    assert 0 < parts <= layer["refresh.total_s"]
    assert all(value == value for value in layer.values()), "a layer metric is NaN"
    assert layer["sut.shm_leaked_segments"] == 0


def test_corpus_is_deterministic_per_seed():
    for name in corpus.SHAPES:
        first = corpus.generate(name, 5, "smoke").matrix.csr()
        again = corpus.generate(name, 5, "smoke").matrix.csr()
        other = corpus.generate(name, 6, "smoke").matrix.csr()
        assert np.array_equal(first.indptr, again.indptr) and np.array_equal(first.indices, again.indices)
        assert not (np.array_equal(first.indptr, other.indptr) and np.array_equal(first.indices, other.indices))
        assert np.diff(first.indptr).min() >= corpus.MIN_DEGREE
        assert first.has_sorted_indices and first.data.min() == first.data.max() == 1.0


def test_corrupted_ranking_trips_the_check():
    matrix = corpus.generate("ml1m", 5, "smoke").matrix
    rng = np.random.default_rng(0)
    factors = (rng.random((matrix.n_users, 4)), rng.random((matrix.n_items, 4)))
    reference = checks.Reference({"regularization": 10.0, "sigma": 0.1, "beta": 0.5, "max_backtracks": 20})
    engine = reference.add_generation(1, factors, matrix)
    mix = loadgen.RequestMix(rng, matrix.n_users, matrix.n_items)
    recorder = loadgen.Recorder()
    for frame in (mix.known(), mix.known(), mix.cold()):
        index = recorder.open(frame, 0, 0.0, 0.0)
        rankings, scores = reference.expected(frame.kind, frame.rows, 1, with_scores=True)
        reply = {"ok": True, "generation": 1, "rankings": [row.tolist() for row in rankings],
                 "scores": [row.tolist() for row in scores], "queue_ms": 0.0, "serve_ms": 0.0,
                 "batch_requests": 1, "batch_users": len(frame.rows)}
        recorder.close(index, frame, reply, 1.0)
    assert checks.verify_rankings(recorder.checked, reference, recorder.generation) == {1: 3}
    scores = recorder.checked[2][3][0]
    scores[0] *= 1.0 + 1e-9
    with pytest.raises(checks.CheckFailure, match="scores"):
        checks.verify_rankings(recorder.checked, reference, recorder.generation)
    scores[0] /= 1.0 + 1e-9
    ranking = recorder.checked[1][2][0]
    ranking[0], ranking[1] = ranking[1], ranking[0]
    with pytest.raises(checks.CheckFailure, match="ranking"):
        checks.verify_rankings(recorder.checked, reference, recorder.generation)
    assert engine.n_items == matrix.n_items


def test_replay_sample_spans_the_phase_and_every_generation():
    mix = loadgen.RequestMix(np.random.default_rng(0), 10, 10, sizes=(1,))
    recorder = loadgen.Recorder()
    n_frames = 5000
    for index in range(n_frames):
        frame = mix.known()
        recorder.open(frame, 0, 0.0, 0.0)
        reply = {"ok": True, "generation": 1 + index // 1000, "rankings": [[1]]}
        recorder.close(index, frame, reply, 1.0)
    kept = sorted(entry[0] for entry in recorder.checked)
    assert loadgen.CHECK_SAMPLE <= len(kept) <= 2 * loadgen.CHECK_SAMPLE + 5 * loadgen.CHECK_QUOTA
    assert kept[-1] >= n_frames * 0.99, "the sample stops before the phase does"
    assert max(b - a for a, b in zip(kept, kept[1:])) <= n_frames / loadgen.CHECK_SAMPLE * 2
    assert {recorder.generation[index] for index in kept} == {1, 2, 3, 4, 5}


def test_unanswered_and_duplicate_replies_count_as_failed():
    mix = loadgen.RequestMix(np.random.default_rng(0), 10, 10)
    recorder = loadgen.Recorder()
    reply = {"ok": True, "generation": 1, "rankings": [[1]], "queue_ms": 0, "serve_ms": 0,
             "batch_requests": 1, "batch_users": 1}
    for _ in range(3):
        recorder.open(mix.known(), 0, 0.0, 0.0)
    frame = mix.known()
    recorder.close(0, frame, reply, 1.0)
    recorder.close(1, frame, reply, 1.0)
    recorder.close(1, frame, reply, 1.1)  # answered twice
    assert recorder.attempted == 3 and recorder.failed == 2  # one duplicate, one unanswered
    with pytest.raises(checks.CheckFailure):
        checks.verify_reply_accounting(recorder, [], "phase")
