"""Run ``perfbench/run.py`` on two commits in alternating pairs and write one
``BENCH_<pr>.json``: every run, and per workload and end-to-end metric the
medians, the parent's quartiles, the pairs the change reads better and
worse, and a two-sided sign-test p.

    python tools/bench_pairs.py PARENT CHANGE --workload adapt_ap --pairs 10 \\
        --control --out BENCH_17.json

Each commit is extracted with ``git archive`` into its own directory under
``--scratch``: the benchmark reads only committed files, and an archive
leaves nothing behind in the repository's git directory.  Pair i runs every
side once at ``--seed i``, the sides in an order rotated by i, so that each
side runs first in an equal share of the pairs.  ``--control`` adds a third
side, a second copy of the parent, whose shift against the parent is the
noise floor of the same file.  A pair is checked for equal ``curve_digest``
and ``final_test_return`` on every side.  The output is rewritten after each
run, so an interrupted session keeps the runs it made.  Metric directions
and the run length come from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change", "control")


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
    quartiles, the relative shift of the medians (positive is worse), the
    pairs ``other`` reads better and worse, the sign-test p, and whether the
    shift of the medians exceeds the base's interquartile range."""
    lower = better == "lower"
    wins = sum((o < b) if lower else (o > b) for b, o in zip(base, other))
    losses = sum((o > b) if lower else (o < b) for b, o in zip(base, other))
    base_median, other_median = statistics.median(base), statistics.median(other)
    q1, q3 = quartiles(base)
    shift = (other_median - base_median) / base_median if base_median else 0.0
    return {"base_median": base_median, "median": other_median, "base_iqr": [q1, q3],
            "worse_by": shift if lower else -shift, "better_pairs": wins,
            "worse_pairs": losses, "sign_p": sign_test_p(wins, losses),
            "resolved": abs(other_median - base_median) > q3 - q1}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: the pairs whose every side ran, whether every pair had
    equal digests and final returns and every run was correct, the failed
    operations per side, and per metric the change (and the control, if
    run) compared with the parent by :func:`compare`, over the pairs whose
    every run reported its metrics."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        by_pair: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                by_pair.setdefault(run["seed"], {})[run["side"]] = run
        sides = [side for side in SIDES if any(side in p for p in by_pair.values())]
        pairs = [p for _, p in sorted(by_pair.items()) if len(p) == len(sides)]
        mismatched = [p["parent"]["seed"] for p in pairs
                      if len({(r["curve_digest"], r["final_test_return"])
                              for r in p.values()}) != 1]
        measured = [p for p in pairs if all(r["result"].get("metrics") for r in p.values())]
        entry = {"pairs": len(pairs), "sides": sides, "digests_equal": not mismatched,
                 "digest_mismatches": mismatched,
                 "all_correct": all(r["result"].get("correct") for p in pairs
                                    for r in p.values()),
                 "failed_ops": {side: sum(p[side]["result"].get("failed") or 0 for p in pairs)
                                for side in sides},
                 "measured_pairs": len(measured)}
        if measured:
            for metric in metrics:
                name = metric["name"]

                def values(side):
                    return [p[side]["result"]["metrics"][name]["value"] for p in measured]

                entry[name] = {other: compare(values("parent"), values(other), metric["better"])
                               for other in sides if other != "parent"}
        summary[workload] = entry
    return summary


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


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its exit code, its
    wall time, its result line and the detail line's repetitions and
    digests."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    try:
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        detail, result = {}, {"correct": False, "failed": None, "metrics": {},
                              "stderr_tail": proc.stderr[-2000:]}
    return {"exit_code": proc.returncode, "elapsed_s": round(elapsed, 1),
            "curve_digest": detail.get("curve_digest"),
            "final_test_return": detail.get("final_test_return"),
            "repetitions": detail.get("repetitions"),
            "provenance": detail.get("provenance"), "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent commit")
    parser.add_argument("change", help="the commit under test")
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload; repeat for more")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--control", action="store_true",
                        help="also run a second copy of the parent")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--scratch", type=Path,
                        help="where the commits are extracted (default: a temporary "
                             "directory, removed at the end)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = set(args.workload) - {w["name"] for w in spec["workloads"]}
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown else "--pairs must be >= 1")
    scratch = args.scratch or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    sides = SIDES if args.control else SIDES[:2]
    commits = {side: args.parent if side != "change" else args.change for side in sides}
    trees = {side: scratch / side for side in sides}
    ids = {side: extract(commit, trees[side]) for side, commit in commits.items()}
    doc = {"what": "perfbench runs of parent/change pairs (and, with a control, a second "
                   "copy of the parent); 'result' is each run's last stdout line, and "
                   "'summary' compares every other side with the parent per metric",
           "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                      f"--seconds {spec['run_seconds']:g} --trace 0",
           "order": "pair i runs at seed i, its sides in an order rotated by i",
           **{side: {"git_commit": ids[side]} for side in sides},
           "runs": [], "summary": {}}
    try:
        for workload in args.workload:
            for pair in range(args.pairs):
                for position, side in enumerate(run_order(pair, sides)):
                    run = {"workload": workload, "seed": pair, "side": side,
                           "runs_first": position == 0, "git_commit": ids[side],
                           **bench(trees[side], workload, pair, spec["run_seconds"])}
                    doc["runs"].append(run)
                    doc["summary"] = summarize(doc["runs"], spec["end_to_end"])
                    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
                    print(f"{workload} pair {pair} {side}: exit {run['exit_code']}, "
                          f"{run['elapsed_s']} s", file=sys.stderr)
    finally:
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
