#!/usr/bin/env python3
"""prefrl benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload adapt_ap --seed 0 --seconds 35 --trace 0

Run from the repository root. ``--trace 0`` repeats the workload's fixed-size
command until ``--seconds`` is spent (at least twice) and reports the
end-to-end metrics; ``--trace 1`` does the same untraced repetitions, then one
traced repetition and the layer probes, and reports the per-layer metrics.
Which metrics exist, with their units, is read from ``BENCHMARK.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give provenance and detail. Outputs go to
``.perfbench/<workload>-s<seed>/``. The exit code is 1 when any output check
fails and 2 when the sources are missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# layers named by the per-layer metrics; the other prefrl modules are traced
# too and appear in the detail line
LAYERS = ("encoder", "agent", "nn", "environment", "oracle", "training",
          "checkpoint", "harness", "data")
JUDGE_CALLS = ("oracle.LLMOracle.choose", "oracle.SyntheticOracle.choose")
# set-ups timed per run: one per repetition, and after each repetition as many
# set-up-only runs as fit in SETUP_SLICE_S at that repetition's set-up time (at
# most SETUP_SLICE_MAX), so that the samples span the whole run as the
# repetitions do; topped up at the end to at least SETUP_MIN
SETUP_MIN, SETUP_SLICE_MAX, SETUP_SLICE_S = 11, 10, 0.2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_process() -> None:
    """Pin BLAS/OpenMP to one thread (before numpy loads) and keep judge
    traffic on the loopback stub."""
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ.pop("ORACLE_API_KEY", None)
    sys.path.insert(0, str(ROOT / "src"))


def provenance(numpy_version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "prefrl").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": numpy_version,
            "threads": {name: os.environ[name] for name in PINNED_THREADS},
            "git_commit": commit, "source_sha256": sources.hexdigest()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps, scales: list[float], setups: list[float], np) -> tuple[dict, int]:
    """Medians over the repetitions (and over the set-ups) of each one's
    figure, each repetition's times multiplied by its scale; returns the
    metrics and the number of step intervals behind the percentiles."""
    def median(figure):
        return float(statistics.median(figure(r) * f for r, f in zip(reps, scales)))
    return {
        "steps_per_s": statistics.median(r.steps / (r.loop_s * f) for r, f in zip(reps, scales)),
        "step_ms_p50": median(lambda r: np.percentile(r.intervals_ms, 50)),
        "step_ms_p99": median(lambda r: np.percentile(r.intervals_ms, 99)),
        "setup_s": statistics.median(setups),
        "wall_s": median(lambda r: r.wall_s),
        "peak_rss_mb": peak_rss_mb(),
        "final_test_return": reps[0].final_test_return,
    }, sum(r.intervals_ms.size for r in reps)


def per_layer(tracer, rep, traced_wall_s: float, untraced_wall_s: float,
              np) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics of the traced repetition, the full layer table, and
    check failures. Layer times are as measured; the two walls compared for
    the tracing overhead are scaled to the nominal host."""
    lo, hi = rep.loop_span
    steps = rep.steps
    functions = tracer.function_totals(lo, hi)
    loop = tracer.layer_totals(lo, hi)
    whole = tracer.layer_totals()
    cols = tracer.spans(lo, hi)
    remainder = rep.loop_ns - int(cols["duration"][cols["root"]].sum())
    self_sum = sum(v["self_ns"] for v in loop.values())
    failures = []
    if remainder < 0 or self_sum + remainder != rep.loop_ns:
        failures.append(f"trace: layer self times {self_sum} ns + untraced remainder {remainder} ns "
                        f"!= traced loop wall {rep.loop_ns} ns")

    def calls(layer):
        return loop.get(layer, {}).get("calls", 0) / steps

    def self_ms(layer):
        return loop.get(layer, {}).get("self_ns", 0) / steps / 1e6

    judge_ms = tracer.durations_of(JUDGE_CALLS, lo, hi) / 1e6
    metrics = {f"{layer}.self_ms_per_step": self_ms(layer) for layer in LAYERS}
    metrics.update({f"{layer}.calls_per_step": calls(layer) for layer in LAYERS})
    metrics.update({
        "agent.update.calls_per_step": functions.get("agent.update", {}).get("calls", 0) / steps,
        "oracle.call_ms_p50": float(np.percentile(judge_ms, 50)) if judge_ms.size else 0.0,
        "oracle.call_ms_p99": float(np.percentile(judge_ms, 99)) if judge_ms.size else 0.0,
        "oracle.retries": float(rep.judge_retries),
        "oracle.failed": float(rep.judge_failed),
        "oracle.none_rate": rep.judge_none / rep.judge_calls if rep.judge_calls else 0.0,
        "harness.self_ms": whole.get("harness", {}).get("self_ns", 0) / 1e6,
        "data.self_ms": whole.get("data", {}).get("self_ns", 0) / 1e6,
        "trace.overhead_frac": (traced_wall_s - untraced_wall_s) / untraced_wall_s,
    })
    table = {layer: {"calls_per_step": v["calls"] / steps,
                     "self_ms_per_step": v["self_ns"] / steps / 1e6,
                     "share": v["self_ns"] / rep.loop_ns}
             for layer, v in sorted(loop.items(), key=lambda kv: -kv[1]["self_ns"])}
    table["(untraced remainder)"] = {"self_ms_per_step": remainder / steps / 1e6,
                                     "share": remainder / rep.loop_ns}
    top = sorted(functions.items(), key=lambda kv: -kv[1]["self_ns"])[:15]
    table["(top functions)"] = {name: {"calls_per_step": v["calls"] / steps,
                                       "total_ms_per_step": v["total_ns"] / steps / 1e6,
                                       "self_ms_per_step": v["self_ns"] / steps / 1e6}
                                for name, v in top}
    return metrics, table, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "prefrl" / "__init__.py").is_file():
        print(f"error: prefrl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prepare_process()
    import numpy as np

    import probes
    import workloads
    from hostspeed import NOMINAL_S, Reference
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"({', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out = ROOT / ".perfbench" / f"{workload.name}-s{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "provenance": provenance(np.__version__),
            "judge_stub": {"delay_s": workloads.JUDGE_DELAY_S,
                           "fail_every": workloads.JUDGE_FAIL_EVERY,
                           "backoff_s": workloads.JUDGE_BACKOFF_S}}
    cfg = workload.config(args.seed)
    failures: list[str] = []
    attempted = failed = 0
    reps = []

    def account(rep) -> None:
        nonlocal attempted, failed
        expected = workload.steps(cfg)
        attempted += expected + rep.judge_calls
        failed += expected - rep.steps + rep.judge_failed
        failures.extend(rep.failures)

    reference = Reference()
    refs: list[float] = []

    def host_scale() -> float:
        """Scale for the repetition that just ran: nominal over the mean of
        the reference timings taken before and after it."""
        refs.append(reference.seconds())
        return NOMINAL_S / ((refs[-2] + refs[-1]) / 2)

    started = time.perf_counter()
    try:
        prepared = workload.prepare(cfg, out, args.seed)
        info["prepare_s"] = time.perf_counter() - started
        started = time.perf_counter()
        refs.append(reference.seconds())
        scales = []
        setups, setup_scales = [], []   # each set-up with the scale of the repetition before it

        def time_setups(count: int) -> None:
            for _ in range(count):
                setups.append(workload.setup_s(cfg, prepared, out, args.seed))
                setup_scales.append(scales[-1])

        while True:
            repdir = out / f"rep{len(reps)}"
            repdir.mkdir()
            reps.append(workload.run(cfg, prepared, repdir, args.seed))
            scales.append(host_scale())
            account(reps[-1])
            setups.append(reps[-1].setup_s)
            setup_scales.append(scales[-1])
            time_setups(min(SETUP_SLICE_MAX, int(SETUP_SLICE_S / reps[-1].setup_s)))
            elapsed = time.perf_counter() - started
            if len(reps) >= 2 and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
        time_setups(SETUP_MIN - len(setups))
        if len({r.curve_digest for r in reps}) != 1 or len({r.final_test_return for r in reps}) != 1:
            failures.append("repetitions with the same seed gave different curves or final returns")
        loop_scales, setup_scales = ((scales, setup_scales) if workload.host_scaled
                                     else ([1.0] * len(reps), [1.0] * len(setups)))
        metrics, samples = end_to_end(
            reps, loop_scales, [s * f for s, f in zip(setups, setup_scales)], np)
        info.update(repetitions=[{"setup_s": r.setup_s, "loop_s": r.loop_s, "wall_s": r.wall_s,
                                  "step_ms_p50": float(np.percentile(r.intervals_ms, 50)),
                                  "step_ms_p99": float(np.percentile(r.intervals_ms, 99)),
                                  "host_scale": f} for r, f in zip(reps, scales)],
                    reference_s=refs, setups_s=setups, step_samples=samples,
                    curve_digest=reps[0].curve_digest,
                    final_test_return=reps[0].final_test_return,
                    end_to_end=metrics,
                    end_to_end_unscaled=end_to_end(reps, [1.0] * len(reps), setups, np)[0])
        if args.trace:
            untraced_wall = metrics["wall_s"]
            tracer = Tracer()
            repdir = out / "traced"
            repdir.mkdir()
            with tracer:
                tracer.begin_run(f"{workload.name}-s{args.seed}-traced")
                rep = workload.run(cfg, prepared, repdir, args.seed, tracer=tracer)
            traced_wall = rep.wall_s * (host_scale() if workload.host_scaled else 1.0)
            account(rep)
            if rep.curve_digest != reps[0].curve_digest:
                failures.append("the traced repetition's curve differs from the untraced ones")
            metrics, table, trace_failures = per_layer(tracer, rep, traced_wall, untraced_wall, np)
            failures.extend(trace_failures)
            probe_metrics, unavailable, probe_failures = probes.run_probes(
                cfg, rep.agent, rep.seen_steps, rep.seen_judge_calls, out, args.seed)
            metrics.update(probe_metrics)
            failures.extend(probe_failures)
            spans = tracer.write_jsonl(out / "trace_spans.jsonl")
            info.update(layers=table, spans=spans, probes_unavailable=unavailable,
                        per_layer=metrics)
    except Exception:  # report any failure of the code under test as a failed run
        traceback.print_exc()
        failures.append("run raised: " + traceback.format_exc().strip().splitlines()[-1])
        attempted += workload.steps(cfg)
        failed += workload.steps(cfg)
        metrics = {}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not failures:
        failures.append(f"metrics not produced: {missing}")
    info["failures"] = failures
    (out / "result.json").write_text(json.dumps(info, indent=2, default=str) + "\n",
                                     encoding="utf-8")
    print(json.dumps(info, default=str))
    result = {"correct": not failures, "attempted": max(attempted, 1), "failed": failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
