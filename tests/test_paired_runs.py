"""Tests for the statistics of ``benchmarks/paired.py``.

The script lives next to the benchmarks rather than inside the package, so it
is loaded here from its file path.  Only the arithmetic is tested: running
the pairs shells out to the end-to-end benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parent.parent / "benchmarks" / "paired.py"


@pytest.fixture(scope="module")
def paired():
    spec = importlib.util.spec_from_file_location("paired", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(value, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {"primary_per_s": {"value": value, "unit": "1/s"}},
    }


class TestCompare:
    PARENT = [100.0, 101.0, 99.0, 102.0, 100.5, 98.0, 101.5, 99.5, 100.0, 103.0]

    def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_spread(self, paired):
        change = [value + 20.0 for value in self.PARENT]
        row = paired.compare(self.PARENT, change, "higher", 0.25)
        assert (row["won"], row["lost"], row["pairs"]) == (10, 0, 10)
        assert row["verdict"] == "gain"
        assert row["relative"] == pytest.approx(0.2, rel=0.02)

    def test_eight_of_ten_is_not_a_gain(self, paired):
        change = [value + 20.0 for value in self.PARENT]
        change[0] = self.PARENT[0] - 1.0
        change[1] = self.PARENT[1] - 1.0
        row = paired.compare(self.PARENT, change, "higher", 0.25)
        assert (row["won"], row["lost"]) == (8, 2)
        assert row["verdict"] == "unchanged"

    def test_a_tie_counts_for_neither_side(self, paired):
        change = [value + 20.0 for value in self.PARENT]
        change[0] = self.PARENT[0]
        row = paired.compare(self.PARENT, change, "higher", 0.25)
        assert (row["won"], row["lost"]) == (9, 0)
        assert row["verdict"] == "gain"

    def test_winning_every_pair_inside_the_spread_is_not_a_gain(self, paired):
        change = [value + 0.5 for value in self.PARENT]
        row = paired.compare(self.PARENT, change, "higher", 0.25)
        assert row["won"] == 10
        assert row["verdict"] == "unchanged"

    def test_lower_is_better_flips_the_sign(self, paired):
        change = [value - 20.0 for value in self.PARENT]
        assert paired.compare(self.PARENT, change, "lower", 0.25)["verdict"] == "gain"
        row = paired.compare(self.PARENT, change, "higher", 0.1)
        assert row["verdict"] == "regression"
        assert row["relative"] == pytest.approx(-0.2, rel=0.02)

    def test_regression_is_measured_against_the_bound(self, paired):
        change = [value * 1.2 for value in self.PARENT]
        assert paired.compare(self.PARENT, change, "lower", 0.25)["verdict"] == "unchanged"
        assert paired.compare(self.PARENT, change, "lower", 0.15)["verdict"] == "regression"

    def test_a_spread_wider_than_the_bound_is_unresolved(self, paired):
        parent = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
        change = [value + 1.0 for value in parent]
        assert paired.compare(parent, change, "lower", 0.25)["verdict"] == "unresolved"

    def test_unless_every_run_of_the_change_beats_every_run_of_the_parent(self, paired):
        parent = [100.0, 100.0, 170.0, 100.0, 140.0, 100.0, 160.0, 100.0, 150.0, 100.0]
        # Better than the parent's best run, by less than the parent's spread.
        row = paired.compare(parent, [99.0] * 10, "lower", 0.25)
        assert row["won"] == 10
        assert row["verdict"] == "unchanged"

    def test_rejects_unpaired_runs_and_unknown_directions(self, paired):
        with pytest.raises(ValueError):
            paired.compare([1.0, 2.0], [1.0], "higher", 0.25)
        with pytest.raises(ValueError):
            paired.compare([1.0], [1.0], "up", 0.25)

    def test_one_pair_is_enough_to_report(self, paired):
        row = paired.compare([4.0], [5.0], "higher", 0.25)
        assert row["parent"] == (4.0, 4.0, 4.0)
        assert (row["won"], row["verdict"]) == (1, "gain")


class TestReport:
    def test_one_line_per_metric_then_failures_per_side(self, paired):
        runs = {
            "parent": [_run(100.0), _run(102.0)],
            "change": [_run(125.0), _run(126.0, failed=1)],
        }
        end_to_end = [{"name": "primary_per_s", "better": "higher", "bound": 0.25}]
        lines = paired.report(runs, end_to_end)
        assert len(lines) == 3
        assert lines[0].startswith("primary_per_s") and lines[0].endswith("gain")
        assert "won 2 lost 0 of 2" in lines[0]
        assert lines[1] == "parent: failed 0 of 20 attempted, correct True"
        assert lines[2] == "change: failed 1 of 20 attempted, correct False"


class TestClaim:
    END_TO_END = [
        {"name": "primary_per_s", "better": "higher", "bound": 0.25},
    ]

    def _runs(self, parent, change, change_failed=0):
        return {
            "parent": [_run(value) for value in parent],
            "change": [_run(value, failed=change_failed) for value in change],
        }

    def test_verdicts_cover_every_metric_and_the_failed_share(self, paired):
        found = paired.verdicts(self._runs([100.0, 101.0], [130.0, 131.0]), self.END_TO_END)
        assert found == {"primary_per_s": "gain", "failed": "unchanged"}
        found = paired.verdicts(
            self._runs([100.0, 101.0], [130.0, 131.0], change_failed=1), self.END_TO_END
        )
        assert found["failed"] == "regression"

    def test_claim_met_needs_a_gain_on_the_claimed_pair(self, paired):
        found = {
            "wire-closed": {"primary_p50_ms": "gain", "setup_s": "unresolved"},
            "batch-topn": {"primary_p50_ms": "unchanged"},
        }
        assert paired.conclude(found, ("primary_p50_ms", "wire-closed")) == ("claim met", 0)
        assert paired.conclude(found, ("primary_p50_ms", "batch-topn")) == ("claim not met", 1)
        assert paired.conclude(found, ("setup_s", "wire-closed")) == ("claim not met", 1)
        assert paired.conclude(found, ("primary_p50_ms", "train-cold")) == ("claim not met", 1)
        assert paired.conclude(found, None) == ("no claim", 0)

    def test_a_regression_anywhere_outranks_the_claim(self, paired):
        found = {
            "wire-closed": {"primary_p50_ms": "gain", "failed": "unchanged"},
            "batch-topn": {"peak_rss_mb": "regression", "failed": "regression"},
        }
        line, status = paired.conclude(found, ("primary_p50_ms", "wire-closed"))
        assert line == "regression: peak_rss_mb@batch-topn, failed@batch-topn"
        assert status == 1
        assert paired.conclude(found, None)[1] == 1

    def test_claims_parse_as_metric_at_workload(self, paired):
        assert paired.parse_claim("primary_p50_ms@wire-closed") == (
            "primary_p50_ms",
            "wire-closed",
        )
        for text in ("primary_p50_ms", "@wire-closed", "primary_p50_ms@"):
            with pytest.raises(Exception, match="<metric>@<workload>"):
                paired.parse_claim(text)
