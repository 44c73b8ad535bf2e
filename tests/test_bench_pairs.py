"""`tools/bench_pairs.py` summarizes paired benchmark runs: medians,
quartiles, wins, failed shares and a verdict per end-to-end metric."""

import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SPEC = {"end_to_end": [
    {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "rate", "better": "higher", "bound": 0.1},
]}


@pytest.fixture()
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bench_pairs")


def _runs(parent, change, failed=(0, 0), rate=None):
    """Synthetic output lines: one run per value, 100 operations each, the
    side's failures in its first run."""
    def side(values, fails, rates):
        return [{"correct": True, "attempted": 100,
                 "failed": fails if i == 0 else 0,
                 "metrics": {"op_p50_ms": {"value": v},
                             "rate": {"value": r}}}
                for i, (v, r) in enumerate(zip(values, rates))]
    rates = rate or (parent, change)
    return {"parent": side(parent, failed[0], rates[0]),
            "change": side(change, failed[1], rates[1])}


PARENT = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]


class TestSummarize:
    def test_medians_quartiles_and_wins(self, bench_pairs):
        change = [v - 1.0 for v in PARENT]
        entry = bench_pairs.summarize(SPEC, _runs(PARENT, change))["op_p50_ms"]
        assert entry["parent"]["median"] == pytest.approx(2.45)
        assert entry["parent"]["q1"] == pytest.approx(2.225)
        assert entry["parent"]["q3"] == pytest.approx(2.675)
        assert entry["change"]["median"] == pytest.approx(1.45)
        assert (entry["change_wins"], entry["pairs"]) == (10, 10)
        assert entry["verdict"] == "better"

    def test_nine_wins_of_ten_beyond_the_spread_is_better(self, bench_pairs):
        change = [v - 1.0 for v in PARENT[:9]] + [PARENT[9] + 0.5]
        entry = bench_pairs.summarize(SPEC, _runs(PARENT, change))["op_p50_ms"]
        assert entry["change_wins"] == 9
        assert entry["verdict"] == "better"

    def test_eight_wins_of_ten_is_unresolved(self, bench_pairs):
        change = [v - 1.0 for v in PARENT[:8]] + [v + 0.01 for v in PARENT[8:]]
        entry = bench_pairs.summarize(SPEC, _runs(PARENT, change))["op_p50_ms"]
        assert entry["change_wins"] == 8
        assert entry["verdict"] == "unresolved"

    def test_gain_within_the_spread_is_unresolved(self, bench_pairs):
        # wins every pair, but the medians differ by 0.3 < 0.45, the
        # parent's quartile spread
        change = [v - 0.3 for v in PARENT]
        entry = bench_pairs.summarize(SPEC, _runs(PARENT, change))["op_p50_ms"]
        assert entry["change_wins"] == 10
        assert entry["verdict"] == "unresolved"

    def test_ties_count_for_neither_side(self, bench_pairs):
        entry = bench_pairs.summarize(SPEC, _runs(PARENT, PARENT))["op_p50_ms"]
        assert entry["change_wins"] == 0
        assert entry["verdict"] == "unresolved"

    @pytest.mark.parametrize("factor, verdict", [
        (1.24, "unresolved"), (1.26, "worse")])
    def test_worse_beyond_the_bound(self, bench_pairs, factor, verdict):
        change = [v * factor for v in PARENT]
        entry = bench_pairs.summarize(SPEC, _runs(PARENT, change))["op_p50_ms"]
        assert entry["verdict"] == verdict

    @pytest.mark.parametrize("factor, verdict", [
        (0.89, "worse"), (0.91, "unresolved"), (1.2, "better")])
    def test_higher_is_better(self, bench_pairs, factor, verdict):
        rates = [100.0 + v for v in PARENT]
        runs = _runs(PARENT, PARENT, rate=(rates, [v * factor for v in rates]))
        assert bench_pairs.summarize(SPEC, runs)["rate"]["verdict"] == verdict

    def test_failed_share_of_each_side(self, bench_pairs):
        summary = bench_pairs.summarize(SPEC, _runs(PARENT, PARENT, failed=(5, 0)))
        assert summary["failed_share"] == {"parent": 5 / 1000, "change": 0.0}


def test_incorrect_run_is_refused(bench_pairs, monkeypatch, tmp_path):
    line = {"correct": False, "attempted": 100, "failed": 0, "metrics": {}}
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: SimpleNamespace(
        returncode=0, stdout=json.dumps(line) + "\n", stderr="check failed: x\n"))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs._run(tmp_path, "witness-cli", 1, 20)
    assert "was not correct" in str(exit_info.value.code)
    assert "check failed: x" in str(exit_info.value.code)
