"""The summary maths of ``tools/bench_pairs.py`` on fixture runs: medians,
the parent's quartiles, better and worse pairs, the sign test and the
per-pair digest check; and its runs, on a stand-in benchmark.  No real
benchmark runs here.  The tool is loaded by its path, as a script."""
from __future__ import annotations

import importlib.util
import json
import math
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
METRICS = [{"name": "steps_per_s", "better": "higher"},
           {"name": "step_ms_p50", "better": "lower"}]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_run(side, seed, p50, steps, digest="d", ret=1.0, correct=True, workload="w",
                faults=None, reps=None, invocation=None):
    return {"workload": workload, "seed": seed, "side": side, "curve_digest": digest,
            "final_test_return": ret,
            **({} if invocation is None else {"invocation": invocation}),
            **({} if faults is None else {"page_faults": {"minor": faults[0],
                                                          "major": faults[1]}}),
            **({} if reps is None else {"repetitions": reps}),
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


def test_two_invocations_pool_their_pairs_and_report_the_spread_between_them(tool):
    # the same three seeds in both invocations; the second reads every
    # step_ms_p50 0.4 higher on both sides, so the pooled shift hides a drift
    # that the spread between the invocations' medians shows
    parent = {0: [2.0, 2.2, 2.1], 1: [2.4, 2.6, 2.5]}
    change = {0: [1.8, 2.0, 1.9], 1: [2.3, 2.5, 2.4]}
    runs = []
    for invocation in (0, 1):
        for seed in range(3):
            runs += [fixture_run(side, seed, values[invocation][seed], 100.0,
                                 invocation=invocation)
                     for side, values in (("parent", parent), ("change", change))]
    runs[-1]["curve_digest"] = "x"              # invocation 1, seed 2 mismatches
    entry = tool.summarize(runs, METRICS)["w"]
    assert entry["pairs"] == entry["measured_pairs"] == 6
    assert entry["digest_mismatches"] == [[1, 2]]
    p50 = entry["step_ms_p50"]["change"]
    assert p50["base_median"] == pytest.approx(2.3) and p50["median"] == pytest.approx(2.15)
    assert (p50["better_pairs"], p50["worse_pairs"]) == (6, 0)
    first, second = p50["invocations"]
    assert (first["invocation"], first["pairs"]) == (0, 3)
    assert (first["base_median"], first["median"]) == (2.1, 1.9)
    assert first["shift"] == pytest.approx(1.9 / 2.1 - 1.0)
    assert (second["invocation"], second["base_median"], second["median"]) == (1, 2.5, 2.4)
    assert p50["base_spread"] == pytest.approx(0.4)
    assert p50["shift_spread"] == pytest.approx((2.4 / 2.5) - (1.9 / 2.1))


def test_one_invocation_adds_no_spread(tool):
    runs = [fixture_run(side, seed, 2.0 + seed, 100.0, invocation=0)
            for seed in range(3) for side in ("parent", "change")]
    entry = tool.summarize(runs, METRICS)["w"]
    assert entry["digest_mismatches"] == [] and entry["pairs"] == 3
    assert "invocations" not in entry["step_ms_p50"]["change"]


def test_invocations_repeat_the_whole_schedule_and_tag_each_run(tool, tmp_path, monkeypatch):
    def extract(commit, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "run.py").write_text(STAND_IN, encoding="utf-8")
        return commit

    monkeypatch.setattr(tool, "extract", extract)
    for k in (2, 1):
        out = tmp_path / f"bench{k}.json"
        assert tool.main(["P", "C", "--workload", "adapt_ap", "--workload", "rollout_pg",
                          "--pairs", "2", "--invocations", str(k), "--out", str(out),
                          "--scratch", str(tmp_path / f"trees{k}")]) == 0
        runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
        assert len(runs) == k * 2 * 2 * 2
        if k == 1:
            assert all("invocation" not in run for run in runs)
            continue
        schedule = [(run["invocation"], run["workload"], run["seed"]) for run in runs[::2]]
        assert schedule == [(i, w, s) for i in range(2) for w in ("adapt_ap", "rollout_pg")
                            for s in range(2)]
        assert [run["env_pad"] for run in runs[:8]] == [run["env_pad"] for run in runs[8:]]


def test_invocations_below_one_are_refused_before_any_run(tool, tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as caught:
        tool.main(["HEAD", "HEAD", "--workload", "adapt_ap", "--invocations", "0",
                   "--out", str(out), "--scratch", str(tmp_path / "trees")])
    assert caught.value.code == 2
    assert "--invocations" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "trees").exists()


SPEC = {"workloads": [{"name": "w"}, {"name": "v"}],
        "end_to_end": [{"name": "steps_per_s", "better": "higher"},
                       {"name": "step_ms_p50", "better": "lower"}]}


def test_a_claim_names_a_benched_workload_and_an_end_to_end_metric(tool):
    assert tool.parse_claim("w/step_ms_p50", ["w", "v"], SPEC) == ("w", "step_ms_p50", "lower")
    assert tool.parse_claim("v/steps_per_s", ["v"], SPEC) == ("v", "steps_per_s", "higher")
    for text, message in [("w", "not WORKLOAD/METRIC"), ("x/steps_per_s", "not in BENCHMARK"),
                          ("v/steps_per_s", "not one this run benches"),
                          ("w/trace.overhead_frac", "not an end-to-end metric"),
                          ("w/", "not an end-to-end metric")]:
        with pytest.raises(ValueError, match=message):
            tool.parse_claim(text, ["w"], SPEC)


def test_claim_block_of_the_change_and_the_control(tool):
    runs = []
    for seed, (a, b, c) in enumerate([(2.0, 1.6, 2.1), (2.2, 1.8, 2.0), (1.8, 1.9, 1.9),
                                      (2.4, 1.7, 2.3)]):
        runs += [fixture_run("parent", seed, a, 100.0), fixture_run("change", seed, b, 100.0),
                 fixture_run("control", seed, c, 100.0)]
    assert tool.claim_block({}, "w", "step_ms_p50", "lower") == {
        "workload": "w", "metric": "step_ms_p50", "better": "lower", "pairs": 0}
    block = tool.claim_block(tool.summarize(runs, METRICS), "w", "step_ms_p50", "lower")
    assert (block["workload"], block["metric"], block["better"], block["pairs"]) == (
        "w", "step_ms_p50", "lower", 4)
    change, control = block["change"], block["control"]
    assert change["base_median"] == pytest.approx(2.1) and change["median"] == 1.75
    assert change["shift"] == pytest.approx(1.75 / 2.1 - 1.0)
    assert change["base_iqr"] == pytest.approx([1.95, 2.25])
    assert (change["better_pairs"], change["worse_pairs"]) == (3, 1)
    assert change["sign_p"] == pytest.approx(10 / 16) and change["resolved"] is True
    assert control["median"] == pytest.approx(2.05)
    assert control["shift"] == pytest.approx(2.05 / 2.1 - 1.0)
    assert (control["better_pairs"], control["worse_pairs"]) == (2, 2)
    assert control["resolved"] is False


def test_an_unknown_claim_is_refused_before_any_run(tool, tmp_path, capsys):
    out = tmp_path / "bench.json"
    for claim in ("rollout_pg/setup_s", "adapt_ap/no_such_metric"):
        with pytest.raises(SystemExit) as caught:
            tool.main(["HEAD", "HEAD", "--workload", "adapt_ap", "--claim", claim,
                       "--out", str(out), "--scratch", str(tmp_path / "trees")])
        assert caught.value.code == 2
        assert "--claim" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "trees").exists()


def test_page_faults_are_each_sides_median_over_the_counted_pairs(tool):
    runs = []
    for seed, (a, b) in enumerate([(100, 900), (300, 700), (200, 800)]):
        runs += [fixture_run("parent", seed, 1.0, 100.0, faults=(a, seed)),
                 fixture_run("change", seed, 1.0, 100.0, faults=(b, 2 * seed))]
    runs += [fixture_run("parent", 3, 1.0, 100.0, faults=(10**6, 9)),
             fixture_run("change", 3, 1.0, 100.0)]          # pair 3 has an uncounted run
    entry = tool.summarize(runs, METRICS)["w"]
    assert entry["pairs"] == 4
    assert entry["page_faults"] == {"parent": {"minor": 200, "major": 1},
                                    "change": {"minor": 800, "major": 2}}
    assert tool.summarize(runs[-2:], METRICS)["w"]["page_faults"] is None


def test_repetitions_are_each_sides_median_count_over_the_pairs_that_report_them(tool):
    def columns(count):
        return {"wall_s": [1.0] * count, "setup_s": [0.1] * count}

    runs = []
    for seed, (a, b) in enumerate([(48, 57), (49, 58), (47, 60)]):
        runs += [fixture_run("parent", seed, 1.0, 100.0, reps=columns(a)),
                 fixture_run("change", seed, 1.0, 100.0, reps=columns(b))]
    runs += [fixture_run("parent", 3, 1.0, 100.0, reps=columns(99)),
             fixture_run("change", 3, 1.0, 100.0)]          # pair 3 reports none on one side
    entry = tool.summarize(runs, METRICS)["w"]
    assert entry["pairs"] == 4
    assert entry["repetitions"] == {"parent": 48, "change": 58}
    assert tool.summarize(runs[-2:], METRICS)["w"]["repetitions"] is None
    # a file written before repetitions were columns lists one row each
    rows = [fixture_run(side, 0, 1.0, 100.0, reps=[{"wall_s": 1.0}] * count)
            for side, count in (("parent", 3), ("change", 5))]
    assert tool.summarize(rows, METRICS)["w"]["repetitions"] == {"parent": 3, "change": 5}


def test_a_run_records_the_page_faults_of_its_process(tool, tmp_path):
    # a stand-in benchmark that touches 32 MB of fresh pages (8192 at 4 KB)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "buf = bytearray(32 << 20)\n"
        "buf[::4096] = b'\\x01' * (len(buf) // 4096)\n"
        "print(json.dumps({'curve_digest': 'd', 'final_test_return': 1.0}))\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {}}))\n",
        encoding="utf-8")
    run = tool.bench(tmp_path, "w", 0, 1.0)
    assert run["exit_code"] == 0 and run["curve_digest"] == "d"
    assert run["result"]["correct"] is True
    assert run["page_faults"]["minor"] >= 8192 // 2
    assert run["page_faults"]["major"] >= 0


# a stand-in benchmark that reports the length of its environment padding and
# two repetitions
STAND_IN = (
    "import json, os\n"
    "pad = len(os.environ.get('BENCH_PAIRS_PAD', 'unset'))\n"
    "reps = [{'loop_s': 1.0, 'pad': pad}, {'loop_s': 2.0, 'pad': pad}]\n"
    "print(json.dumps({'curve_digest': 'd', 'final_test_return': 1.0, 'repetitions': reps}))\n"
    "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {}}))\n")


def test_every_side_of_a_pair_shares_the_pad_its_benchmark_sees(tool, tmp_path, monkeypatch):
    def extract(commit, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "run.py").write_text(STAND_IN, encoding="utf-8")
        return commit

    monkeypatch.setattr(tool, "extract", extract)
    out = tmp_path / "bench.json"
    assert tool.main(["P", "C", "--workload", "adapt_ap", "--pairs", "3", "--control",
                      "--out", str(out), "--scratch", str(tmp_path / "trees")]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    runs = doc["runs"]
    assert len(runs) == 9
    assert doc["summary"]["adapt_ap"]["repetitions"] == dict.fromkeys(tool.SIDES, 2)
    for pair in range(3):
        sides = [run for run in runs if run["seed"] == pair]
        assert sorted(run["side"] for run in sides) == sorted(tool.SIDES)
        assert {run["env_pad"] for run in sides} == {tool.pad_length(pair)}
        for run in sides:
            assert run["repetitions"] == {"loop_s": [1.0, 2.0], "pad": [run["env_pad"]] * 2}
    pads = [tool.pad_length(pair) for pair in range(10)]
    assert len(set(pads)) > 1 and all(0 <= pad < 4096 for pad in pads)


@pytest.mark.parametrize("name", ["BENCH_22.json", "BENCH_23.json", "BENCH_29.json",
                                  "BENCH_31.json"])
def test_a_committed_summary_rebuilds_from_its_runs(tool, name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc = json.loads((ROOT / name).read_text(encoding="utf-8"))
    rebuilt = tool.summarize(doc["runs"], spec["end_to_end"])
    for workload, entry in doc["summary"].items():
        if "repetitions" not in entry:       # written before the summary counted them
            del rebuilt[workload]["repetitions"]
    assert rebuilt == doc["summary"]


# a stand-in benchmark that reports the CPUs it may run on
PINNED = (
    "import json, os\n"
    "reps = [{'loop_s': 1.0, 'cpus': sorted(os.sched_getaffinity(0))}]\n"
    "print(json.dumps({'curve_digest': 'd', 'final_test_return': 1.0, 'repetitions': reps}))\n"
    "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {}}))\n")


def test_cpu_pins_every_run_and_only_the_runs(tool, tmp_path, monkeypatch):
    def extract(commit, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "run.py").write_text(PINNED, encoding="utf-8")
        return commit

    monkeypatch.setattr(tool, "extract", extract)
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    out = tmp_path / "bench.json"
    assert tool.main(["P", "C", "--workload", "adapt_ap", "--pairs", "2", "--cpu", str(cpu),
                      "--out", str(out), "--scratch", str(tmp_path / "trees")]) == 0
    assert os.sched_getaffinity(0) == allowed          # the tool itself is not pinned
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert len(runs) == 4
    for run in runs:
        assert run["cpu"] == cpu and run["repetitions"]["cpus"] == [[cpu]]
    unpinned = tool.bench(tmp_path / "trees" / "parent", "adapt_ap", 0, 1.0)
    assert unpinned["cpu"] is None
    assert unpinned["repetitions"]["cpus"] == [sorted(allowed)]


def test_a_cpu_the_tool_may_not_run_on_is_refused_before_any_run(tool, tmp_path, capsys):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as caught:
        tool.main(["HEAD", "HEAD", "--workload", "adapt_ap", "--cpu", str(1 << 20),
                   "--out", str(out), "--scratch", str(tmp_path / "trees")])
    assert caught.value.code == 2
    assert "--cpu" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "trees").exists()
