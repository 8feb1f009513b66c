"""Run ``perfbench/run.py`` on two commits in alternating pairs and write one
``BENCH_<pr>.json``: every run, and per workload and end-to-end metric the
medians, the parent's quartiles, the pairs the change reads better and
worse, and a two-sided sign-test p.

    python tools/bench_pairs.py PARENT CHANGE --workload adapt_ap --pairs 10 \\
        --control --claim adapt_ap/step_ms_p50 --out BENCH_17.json

Each side's commit is extracted with ``git archive`` into its own directory
under ``--scratch``, named by the side's place in ``SIDES`` (``side0``,
``side1``, ``side2``), so every side's paths (``sys.path``, each module's
``__file__``) have the same length; the runs keep the side labels.  The
benchmark reads only committed files, and an archive leaves nothing behind
in the repository's git directory.  Pair i runs every side once at ``--seed
i``, the sides in an order rotated by i, so that each side runs first in an
equal share of the pairs.  ``--control`` adds a third
side, a second copy of the parent, whose shift against the parent is the
noise floor of the same file.  A pair is checked for equal ``curve_digest``
and ``final_test_return`` on every side.  Every run starts with one more
environment variable, ``BENCH_PAIRS_PAD``, whose length (``env_pad``, 0 to
4,095 bytes) is drawn from a stream seeded by the pair, so every side of a
pair runs with the same process layout and the pairs with different ones:
a layout that favours one side's code becomes spread rather than a shift
that the control cannot see (Mytkowicz et al., ASPLOS 2009).  Each run
records the minor and major page faults of its process tree (the
``getrusage(RUSAGE_CHILDREN)`` deltas around it), and the summary gives each
side's medians of them, so a loop metric that moves can be checked against
the heap's faulting.  A run's repetitions are stored as columns, ``{field:
[values]}``, and the summary gives each side's median repetition count: the
benchmark keeps every repetition's agent until it exits, so a side that fits
more repetitions into the run reads a higher ``peak_rss_mb``.  The output is rewritten after each run, so an interrupted
session keeps the runs it made.  Metric directions and the run length come from
``BENCHMARK.json``.  ``--claim WORKLOAD/METRIC`` names the end-to-end
metric a change claims to improve.  The file's first key, ``claim``, then
holds that metric's medians, its shift, the pairs read better and worse and
the sign-test p, for the change and for the control if run; without
``--claim`` it is null.  ``--cpu N`` pins every benchmark run to CPU N
(``os.sched_setaffinity`` in the child before it starts, so only the tool's
own children are pinned), and each run records it as ``cpu`` (null
unpinned).  ``--invocations K`` runs the whole schedule (every workload's
pairs, in order) K times, one invocation after another, and tags each run
with its ``invocation``; the summary then compares the pooled pairs and, next
to the parent's quartiles, gives each invocation's medians and the spread
between invocations, which one invocation's control does not bound.  With K =
1, the default, no run is tagged and the file is as without the option.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change", "control")
PAD_VAR = "BENCH_PAIRS_PAD"


def sign_test_p(better: int, worse: int) -> float:
    """Two-sided exact sign test of ``better`` against ``worse`` (ties left
    out) under a fair coin; 1.0 when there is no untied pair."""
    n = better + worse
    tail = sum(math.comb(n, i) for i in range(min(better, worse) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def run_order(pair: int, sides) -> list[str]:
    """The sides of pair ``pair`` in the order they run: rotated by the pair."""
    k = pair % len(sides)
    return list(sides[k:]) + list(sides[:k])


def quartiles(values) -> tuple[float, float]:
    """The 25th and 75th percentiles, linearly interpolated."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare(base: list[float], other: list[float], better: str) -> dict:
    """``other`` against ``base``, pair by pair: medians, the base's
    quartiles, the relative shift of the medians (``shift``, negative is
    lower; ``worse_by``, positive is worse), the pairs ``other`` reads better
    and worse, the sign-test p, and whether the shift of the medians exceeds
    the base's interquartile range."""
    lower = better == "lower"
    wins = sum((o < b) if lower else (o > b) for b, o in zip(base, other))
    losses = sum((o > b) if lower else (o < b) for b, o in zip(base, other))
    base_median, other_median = statistics.median(base), statistics.median(other)
    q1, q3 = quartiles(base)
    shift = (other_median - base_median) / base_median if base_median else 0.0
    return {"base_median": base_median, "median": other_median, "base_iqr": [q1, q3],
            "shift": shift, "worse_by": shift if lower else -shift, "better_pairs": wins,
            "worse_pairs": losses, "sign_p": sign_test_p(wins, losses),
            "resolved": abs(other_median - base_median) > q3 - q1}


def repetition_count(run: dict) -> int | None:
    """The number of repetitions ``run`` reports, as columns or (in files
    written before they were columns) as a list of rows; None without any."""
    reps = run.get("repetitions")
    if not reps:
        return None
    return len(reps) if isinstance(reps, list) else len(next(iter(reps.values())))


def between_invocations(base: list[float], other: list[float], invocations: list[int]) -> dict:
    """Per invocation (in order), the medians of ``base`` and ``other`` over
    its pairs and their relative shift, and the spread between invocations:
    the range of the base's medians (``base_spread``, in the metric's unit,
    next to the base's interquartile range) and of the shifts
    (``shift_spread``)."""
    rows = []
    for invocation in dict.fromkeys(invocations):
        pick = [i for i, inv in enumerate(invocations) if inv == invocation]
        base_median = statistics.median(base[i] for i in pick)
        median = statistics.median(other[i] for i in pick)
        rows.append({"invocation": invocation, "pairs": len(pick), "base_median": base_median,
                     "median": median,
                     "shift": (median - base_median) / base_median if base_median else 0.0})
    spread = {key: max(row[key] for row in rows) - min(row[key] for row in rows)
              for key in ("base_median", "shift")}
    return {"invocations": rows, "base_spread": spread["base_median"],
            "shift_spread": spread["shift"]}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: the pairs whose every side ran, whether every pair had
    equal digests and final returns and every run was correct, the failed
    operations per side, each side's median minor and major page faults
    over the pairs whose every run counted them and its median
    :func:`repetition_count` over the pairs whose every run reported
    repetitions (each None without such a pair), and per metric the change
    (and the control, if run) compared with the parent by :func:`compare`,
    over the pairs whose every run reported its metrics.  A pair is its
    runs of one seed in one invocation (a run without an ``invocation`` tag
    is in invocation 0), and a mismatched pair is named by its seed, or by
    ``[invocation, seed]`` for tagged runs.  With pairs of two or more
    invocations each comparison also holds :func:`between_invocations`."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_pair: dict[tuple[int, int], dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                key = (run.get("invocation", 0), run["seed"])
                by_pair.setdefault(key, {})[run["side"]] = run
        sides = [side for side in SIDES if any(side in p for p in by_pair.values())]
        pairs = [p for _, p in sorted(by_pair.items()) if len(p) == len(sides)]
        mismatched = [[p["parent"]["invocation"], p["parent"]["seed"]]
                      if "invocation" in p["parent"] else p["parent"]["seed"] for p in pairs
                      if len({(r["curve_digest"], r["final_test_return"])
                              for r in p.values()}) != 1]
        measured = [p for p in pairs if all(r["result"].get("metrics") for r in p.values())]
        counted = [p for p in pairs if all("page_faults" in r for r in p.values())]
        repeated = [p for p in pairs if all(map(repetition_count, p.values()))]
        entry = {"pairs": len(pairs), "sides": sides, "digests_equal": not mismatched,
                 "digest_mismatches": mismatched,
                 "all_correct": all(r["result"].get("correct") for p in pairs
                                    for r in p.values()),
                 "failed_ops": {side: sum(p[side]["result"].get("failed") or 0 for p in pairs)
                                for side in sides},
                 "page_faults": {side: {kind: statistics.median(p[side]["page_faults"][kind]
                                                                for p in counted)
                                        for kind in ("minor", "major")}
                                 for side in sides} if counted else None,
                 "repetitions": {side: statistics.median(repetition_count(p[side])
                                                         for p in repeated)
                                 for side in sides} if repeated else None,
                 "measured_pairs": len(measured)}
        invocations = [p["parent"].get("invocation", 0) for p in measured]
        if measured:
            for metric in metrics:
                name = metric["name"]

                def values(side):
                    return [p[side]["result"]["metrics"][name]["value"] for p in measured]

                entry[name] = {other: compare(values("parent"), values(other), metric["better"])
                               for other in sides if other != "parent"}
                if len(set(invocations)) > 1:
                    for other, block in entry[name].items():
                        block.update(between_invocations(values("parent"), values(other),
                                                         invocations))
        summary[workload] = entry
    return summary


def parse_claim(text: str, workloads: list[str], spec: dict) -> tuple[str, str, str]:
    """``WORKLOAD/METRIC`` checked against the workloads of the run and the
    workloads and end-to-end metrics of ``BENCHMARK.json``: the workload, the
    metric and its better direction.  ValueError names what does not
    match."""
    workload, sep, metric = text.partition("/")
    if not sep:
        raise ValueError(f"--claim {text!r} is not WORKLOAD/METRIC")
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise ValueError(f"--claim workload {workload!r} is not in BENCHMARK.json")
    if workload not in workloads:
        raise ValueError(f"--claim workload {workload!r} is not one this run benches "
                         f"({', '.join(workloads)})")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}.get(metric)
    if better is None:
        raise ValueError(f"--claim metric {metric!r} is not an end-to-end metric of "
                         "BENCHMARK.json")
    return workload, metric, better


def claim_block(summary: dict, workload: str, metric: str, better: str) -> dict:
    """The claimed metric's entry of ``summary``: its direction, the
    workload's measured pairs and, per other side (the change, and the
    control if run), :func:`compare` against the parent.  Before the workload
    has a measured pair, only its name, metric, direction and zero pairs."""
    entry = summary.get(workload, {})
    return {"workload": workload, "metric": metric, "better": better,
            "pairs": entry.get("measured_pairs", 0), **entry.get(metric, {})}


def extract(commit: str, dest: Path) -> str:
    """Write ``commit``'s files to ``dest``; returns the full commit id."""
    git = ["git", "-C", str(ROOT)]
    full = subprocess.run([*git, "rev-parse", "--verify", f"{commit}^{{commit}}"],
                          check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen([*git, "archive", full], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {full} failed")
    return full


def pad_length(pair: int) -> int:
    """The length of pair ``pair``'s environment padding, 0 to 4,095 bytes,
    drawn from a stream seeded by the pair."""
    return random.Random(pair).randrange(4096)


def bench(tree: Path, workload: str, seed: int, seconds: float, cpu: int | None = None) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``, its environment
    padded by the pair's :func:`pad_length` (pair ``seed``) and, with a
    ``cpu``, pinned to that CPU: its exit code, its wall time, its padding,
    its CPU, its minor and major page faults, its result line and the detail
    line's repetitions (as columns) and digests."""
    pad = pad_length(seed)
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))  # in the child
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True,
                          env={**os.environ, PAD_VAR: "x" * pad}, preexec_fn=pin)
    elapsed = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    try:
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        detail, result = {}, {"correct": False, "failed": None, "metrics": {},
                              "stderr_tail": proc.stderr[-2000:]}
    repetitions = detail.get("repetitions")
    if repetitions:
        repetitions = {field: [rep[field] for rep in repetitions] for field in repetitions[0]}
    return {"exit_code": proc.returncode, "elapsed_s": round(elapsed, 1), "env_pad": pad,
            "cpu": cpu, "page_faults": {"minor": after.ru_minflt - before.ru_minflt,
                            "major": after.ru_majflt - before.ru_majflt},
            "curve_digest": detail.get("curve_digest"),
            "final_test_return": detail.get("final_test_return"),
            "repetitions": repetitions,
            "provenance": detail.get("provenance"), "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent commit")
    parser.add_argument("change", help="the commit under test")
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload; repeat for more")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--invocations", type=int, default=1, metavar="K",
                        help="run the whole pair schedule K times, tagging each run")
    parser.add_argument("--control", action="store_true",
                        help="also run a second copy of the parent")
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help="the end-to-end metric the change claims to improve")
    parser.add_argument("--cpu", type=int, metavar="N",
                        help="pin every benchmark run to CPU N (one this tool may run on)")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--scratch", type=Path,
                        help="where the commits are extracted (default: a temporary "
                             "directory, removed at the end)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = set(args.workload) - {w["name"] for w in spec["workloads"]}
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown else "--pairs must be >= 1")
    if args.invocations < 1:
        parser.error("--invocations must be >= 1")
    if args.cpu is not None and args.cpu not in os.sched_getaffinity(0):
        parser.error(f"--cpu {args.cpu} is not one of the CPUs this tool may run on "
                     f"({sorted(os.sched_getaffinity(0))})")
    claimed = None
    if args.claim is not None:
        try:
            claimed = parse_claim(args.claim, args.workload, spec)
        except ValueError as exc:
            parser.error(str(exc))
    tagged = args.invocations > 1
    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    sides = SIDES if args.control else SIDES[:2]
    commits = {side: args.parent if side != "change" else args.change for side in sides}
    trees = {side: scratch / f"side{i}" for i, side in enumerate(sides)}
    ids = {side: extract(commit, trees[side]) for side, commit in commits.items()}
    doc = {"claim": claim_block({}, *claimed) if claimed else None,
           "what": "perfbench runs of parent/change pairs (and, with a control, a second "
                   "copy of the parent); 'result' is each run's last stdout line, and "
                   "'summary' compares every other side with the parent per metric",
           "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                      f"--seconds {spec['run_seconds']:g} --trace 0",
           "order": "pair i runs at seed i, its sides in an order rotated by i and with "
                    f"{PAD_VAR} of the pair's env_pad bytes in their environment"
                    + (f"; the whole schedule runs {args.invocations} times, each run tagged "
                       "with its invocation" if tagged else ""),
           **{side: {"git_commit": ids[side]} for side in sides},
           "runs": [], "summary": {}}
    schedule = [(invocation, workload, pair) for invocation in range(args.invocations)
                for workload in args.workload for pair in range(args.pairs)]
    try:
        for invocation, workload, pair in schedule:
            for position, side in enumerate(run_order(pair, sides)):
                run = {"workload": workload, **({"invocation": invocation} if tagged else {}),
                       "seed": pair, "side": side,
                       "runs_first": position == 0, "git_commit": ids[side],
                       **bench(trees[side], workload, pair, spec["run_seconds"], args.cpu)}
                doc["runs"].append(run)
                doc["summary"] = summarize(doc["runs"], spec["end_to_end"])
                if claimed:
                    doc["claim"] = claim_block(doc["summary"], *claimed)
                args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
                print(f"{f'invocation {invocation} ' if tagged else ''}{workload} pair {pair} "
                      f"{side}: exit {run['exit_code']}, {run['elapsed_s']} s", file=sys.stderr)
    finally:
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
