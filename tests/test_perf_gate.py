"""Tests for the benchmark perf-regression gate (``benchmarks/perf_gate.py``).

The gate script lives next to the benchmarks rather than inside the package,
so it is loaded here via importlib from its file path.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_GATE_PATH = Path(__file__).parent.parent / "benchmarks" / "perf_gate.py"


@pytest.fixture(scope="module")
def perf_gate():
    spec = importlib.util.spec_from_file_location("perf_gate", _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    # Registered before exec: @dataclass resolves postponed annotations via
    # sys.modules[cls.__module__].
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def _payload(metrics, smoke=True):
    return {"bench": "x", "smoke": smoke, "metrics": metrics, "context": {}}


def _write(directory, bench, metrics, smoke=True):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{bench}.json"
    path.write_text(json.dumps(_payload(metrics, smoke=smoke)), encoding="utf-8")
    return path


class TestResolveRatio:
    def test_default(self, perf_gate, monkeypatch):
        monkeypatch.delenv(perf_gate.RATIO_ENV, raising=False)
        assert perf_gate.resolve_ratio() == perf_gate.DEFAULT_RATIO

    def test_env_override(self, perf_gate, monkeypatch):
        monkeypatch.setenv(perf_gate.RATIO_ENV, "3.5")
        assert perf_gate.resolve_ratio() == 3.5

    def test_argument_beats_env(self, perf_gate, monkeypatch):
        monkeypatch.setenv(perf_gate.RATIO_ENV, "3.5")
        assert perf_gate.resolve_ratio(7.0) == 7.0

    def test_garbage_env_falls_back(self, perf_gate, monkeypatch):
        monkeypatch.setenv(perf_gate.RATIO_ENV, "not-a-number")
        assert perf_gate.resolve_ratio() == perf_gate.DEFAULT_RATIO

    def test_degenerate_ratio_falls_back(self, perf_gate, monkeypatch):
        monkeypatch.delenv(perf_gate.RATIO_ENV, raising=False)
        assert perf_gate.resolve_ratio(0.5) == perf_gate.DEFAULT_RATIO


class TestEvaluateBench:
    def test_higher_within_ratio_passes(self, perf_gate):
        out = perf_gate.evaluate_bench(
            "b", "speedup", "higher", _payload({"speedup": 10.0}), _payload({"speedup": 4.0}), 5.0
        )
        assert out.status == "ok"

    def test_higher_regression_fails(self, perf_gate):
        out = perf_gate.evaluate_bench(
            "b", "speedup", "higher", _payload({"speedup": 10.0}), _payload({"speedup": 1.0}), 5.0
        )
        assert out.status == "fail"
        assert "speedup" in out.detail

    def test_lower_within_ratio_passes(self, perf_gate):
        out = perf_gate.evaluate_bench(
            "b", "p50_ms", "lower", _payload({"p50_ms": 2.0}), _payload({"p50_ms": 9.0}), 5.0
        )
        assert out.status == "ok"

    def test_lower_regression_fails(self, perf_gate):
        out = perf_gate.evaluate_bench(
            "b", "p50_ms", "lower", _payload({"p50_ms": 2.0}), _payload({"p50_ms": 11.0}), 5.0
        )
        assert out.status == "fail"

    def test_missing_baseline_skips(self, perf_gate):
        out = perf_gate.evaluate_bench("b", "m", "higher", None, _payload({"m": 1.0}), 5.0)
        assert out.status == "skip"

    def test_missing_result_skips(self, perf_gate):
        out = perf_gate.evaluate_bench("b", "m", "higher", _payload({"m": 1.0}), None, 5.0)
        assert out.status == "skip"

    def test_smoke_mismatch_skips(self, perf_gate):
        out = perf_gate.evaluate_bench(
            "b",
            "m",
            "higher",
            _payload({"m": 10.0}, smoke=False),
            _payload({"m": 0.1}, smoke=True),
            5.0,
        )
        assert out.status == "skip"
        assert "smoke" in out.detail

    def test_missing_metric_skips(self, perf_gate):
        out = perf_gate.evaluate_bench(
            "b", "m", "higher", _payload({"other": 1.0}), _payload({"m": 1.0}), 5.0
        )
        assert out.status == "skip"

    def test_boolean_metric_skips(self, perf_gate):
        out = perf_gate.evaluate_bench(
            "b", "m", "higher", _payload({"m": True}), _payload({"m": True}), 5.0
        )
        assert out.status == "skip"


class TestRunGateAndMain:
    def test_registry_names_match_committed_baselines(self, perf_gate):
        baselines = perf_gate.BASELINES_DIR
        assert baselines.is_dir(), "benchmarks/baselines/ must be committed"
        for bench in perf_gate.HEADLINES:
            assert (baselines / f"BENCH_{bench}.json").is_file(), bench

    def test_registry_metrics_exist_in_baselines(self, perf_gate):
        for bench, (metric, direction) in perf_gate.HEADLINES.items():
            assert direction in ("higher", "lower")
            payload = perf_gate.load_payload(
                perf_gate.BASELINES_DIR / f"BENCH_{bench}.json"
            )
            value = payload["metrics"].get(metric)
            assert isinstance(value, (int, float)) and not isinstance(value, bool), (
                f"{bench}: baseline metric {metric!r} missing or non-numeric"
            )

    def test_main_passes_on_clean_dirs(self, perf_gate, tmp_path, capsys):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        _write(baselines, "training_hotpath", {"speedup": 2.0})
        _write(results, "training_hotpath", {"speedup": 1.9})
        code = perf_gate.main(["--results", str(results), "--baselines", str(baselines)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "1 ok" in captured

    def test_main_fails_on_regression(self, perf_gate, tmp_path, capsys):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        _write(baselines, "training_hotpath", {"speedup": 10.0})
        _write(results, "training_hotpath", {"speedup": 0.5})
        code = perf_gate.main(["--results", str(results), "--baselines", str(baselines)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_main_ratio_flag(self, perf_gate, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        _write(baselines, "training_hotpath", {"speedup": 10.0})
        _write(results, "training_hotpath", {"speedup": 4.0})
        assert perf_gate.main(
            ["--results", str(results), "--baselines", str(baselines), "--ratio", "2.0"]
        ) == 1
        assert perf_gate.main(
            ["--results", str(results), "--baselines", str(baselines), "--ratio", "3.0"]
        ) == 0

    def test_unparseable_result_skips(self, perf_gate, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        _write(baselines, "training_hotpath", {"speedup": 2.0})
        results.mkdir()
        (results / "BENCH_training_hotpath.json").write_text("{not json", encoding="utf-8")
        outcomes = perf_gate.run_gate(results, baselines)
        by_name = {o.bench: o for o in outcomes}
        assert by_name["training_hotpath"].status == "skip"
        assert all(o.status != "fail" for o in outcomes)
