"""The summary maths of ``tools/bench_pairs.py`` on fixture runs: medians,
the parent's quartiles, better and worse pairs, the sign test and the
per-pair digest check.  No benchmark runs here.  The tool is loaded by its
path, as a script."""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [{"name": "steps_per_s", "better": "higher"},
           {"name": "step_ms_p50", "better": "lower"}]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_run(side, seed, p50, steps, digest="d", ret=1.0, correct=True, workload="w"):
    return {"workload": workload, "seed": seed, "side": side, "curve_digest": digest,
            "final_test_return": ret,
            "result": {"correct": correct, "failed": 0 if correct else 3,
                       "metrics": {"step_ms_p50": {"value": p50, "unit": "ms"},
                                   "steps_per_s": {"value": steps, "unit": "1/s"}}}}


@pytest.mark.parametrize("better, worse, p", [
    (10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (5, 0, 1 / 16),
    (5, 5, 1.0), (0, 0, 1.0), (3, 2, 1.0)])
def test_sign_test_is_the_two_sided_binomial(tool, better, worse, p):
    assert tool.sign_test_p(better, worse) == pytest.approx(p, rel=1e-12)


def test_each_side_runs_first_in_turn(tool):
    assert [tool.run_order(i, ("parent", "change"))[0] for i in range(4)] == [
        "parent", "change", "parent", "change"]
    orders = [tool.run_order(i, tool.SIDES) for i in range(3)]
    assert [order[0] for order in orders] == list(tool.SIDES)
    assert all(sorted(order) == sorted(tool.SIDES) for order in orders)


def test_summary_of_five_pairs(tool):
    parent_p50 = [2.0, 2.2, 1.8, 2.4, 2.1]
    change_p50 = [1.8, 2.0, 1.9, 2.0, 1.9]       # better in 4 pairs, worse in 1
    runs = []
    for seed, (a, b) in enumerate(zip(parent_p50, change_p50)):
        runs += [fixture_run("parent", seed, a, 100.0 + seed),
                 fixture_run("change", seed, b, 100.0 + seed)]   # steps_per_s all ties
    entry = tool.summarize(runs, METRICS)["w"]
    assert entry["pairs"] == entry["measured_pairs"] == 5
    assert entry["sides"] == ["parent", "change"]
    assert entry["digests_equal"] and entry["all_correct"]
    assert entry["failed_ops"] == {"parent": 0, "change": 0}
    p50 = entry["step_ms_p50"]["change"]
    assert p50["base_median"] == 2.1 and p50["median"] == 1.9
    assert p50["base_iqr"] == pytest.approx([2.0, 2.2])
    assert p50["worse_by"] == pytest.approx((1.9 - 2.1) / 2.1)
    assert (p50["better_pairs"], p50["worse_pairs"]) == (4, 1)
    assert p50["sign_p"] == pytest.approx(12 / 32)
    assert p50["resolved"] is False                   # a shift of 0.2 is not above 0.2
    steps = entry["steps_per_s"]["change"]
    assert (steps["better_pairs"], steps["worse_pairs"], steps["sign_p"]) == (0, 0, 1.0)
    assert steps["worse_by"] == 0.0


def test_a_higher_is_better_drop_reads_worse(tool):
    runs = []
    for seed in range(4):
        runs += [fixture_run("parent", seed, 1.0, 100.0 + seed),
                 fixture_run("change", seed, 1.0, 80.0 + seed)]
    steps = tool.summarize(runs, METRICS)["w"]["steps_per_s"]["change"]
    assert steps["worse_by"] == pytest.approx(20.0 / 101.5)
    assert (steps["better_pairs"], steps["worse_pairs"]) == (0, 4)
    assert steps["resolved"] is True


def test_control_digests_and_incomplete_pairs(tool):
    runs = [fixture_run("parent", 0, 2.0, 100.0), fixture_run("change", 0, 1.5, 110.0),
            fixture_run("control", 0, 2.1, 99.0),
            fixture_run("control", 1, 2.0, 100.0, digest="x"),
            fixture_run("parent", 1, 2.0, 100.0), fixture_run("change", 1, 1.5, 110.0),
            fixture_run("parent", 2, 2.0, 100.0, correct=False)]    # pair 2 is unfinished
    entry = tool.summarize(runs, METRICS)["w"]
    assert entry["sides"] == ["parent", "change", "control"]
    assert entry["pairs"] == 2
    assert entry["digest_mismatches"] == [1] and not entry["digests_equal"]
    assert entry["all_correct"]
    control = entry["step_ms_p50"]["control"]
    assert control["median"] == pytest.approx(2.05) and control["worse_pairs"] == 1
    assert entry["step_ms_p50"]["change"]["better_pairs"] == 2


def test_workloads_are_summarised_apart(tool):
    runs = [fixture_run("parent", 0, 2.0, 100.0, workload="a"),
            fixture_run("change", 0, 2.0, 100.0, workload="a", correct=False),
            fixture_run("parent", 0, 5.0, 10.0, workload="b", ret=2.0),
            fixture_run("change", 0, 5.0, 10.0, workload="b", ret=math.pi)]
    summary = tool.summarize(runs, METRICS)
    assert list(summary) == ["a", "b"]
    assert not summary["a"]["all_correct"] and summary["a"]["failed_ops"]["change"] == 3
    assert summary["a"]["digests_equal"] and not summary["b"]["digests_equal"]
