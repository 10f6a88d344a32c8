#!/usr/bin/env python3
"""Simulator benchmark: one workload per process, from a source checkout.

    python3 simbench/run.py --workload rollout-n100 --seed 1 --seconds 35 --trace 0

Runs whole rounds of the workload for about --seconds seconds, checks
every episode against the independent evaluator, and prints one JSON
object as the last line of standard output. With --trace 0 it reports
the end-to-end metrics; with --trace 1 it runs each round twice, once
untraced and once under the span tracer, and reports per-layer metrics
normalised per traced episode. See README.md.
"""

import os
import sys

# One BLAS thread: the benchmark runs on a small shared machine, and the
# program's matrices are tiny. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", "r", encoding="ascii") as fh:
        stat = fh.read()
    start_ticks = int(stat[stat.rindex(")") + 2:].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float, min_rounds: int):
    """Whole rounds, at least min_rounds, until `seconds` have passed."""
    results = []
    started = time.perf_counter()
    while len(results) < min_rounds or time.perf_counter() - started < seconds:
        results.append(workload.run_round(len(results)))
    return results


def frames_per_s(results) -> float:
    return sum(r.frames for r in results) / sum(r.job_s for r in results)


def episodes(results) -> int:
    return sum(r.episodes for r in results)


def end_to_end(workload, setup_s: float, seconds: float):
    results = run_rounds(workload, seconds, workload.aoi_rounds)
    aoi = [a for r in results[:workload.aoi_rounds] for a in r.aoi]
    metrics = {
        "setup_s": (setup_s, "s"),
        "frames_per_s": (frames_per_s(results), "1/s"),
        "episode_ms_p50": (statistics.median(
            [ms for r in results for ms in r.episode_ms]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB"),
        "mean_aoi_s": (statistics.fmean(aoi), "sim_s"),
    }
    return episodes(results), metrics


def traced_round(workload, tracer, r: int):
    tracer.install()
    try:
        return workload.run_round(r, tracer)
    finally:
        tracer.uninstall()


def per_layer(workload, seconds: float):
    """Each round runs untraced and traced on the same inputs, in
    alternating order, so the overhead ratio compares like with like."""
    from check import CheckError
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < seconds:
        r = len(plain)
        if r % 2:
            traced.append(traced_round(workload, tracer, r))
            plain.append(workload.run_round(r))
        else:
            plain.append(workload.run_round(r))
            traced.append(traced_round(workload, tracer, r))
        if traced[-1].aoi + traced[-1].train_aoi != plain[-1].aoi + plain[-1].train_aoi:
            raise CheckError(f"round {r}: the traced run reached another AoI "
                             "than the untraced run on the same inputs")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload.name}.npz"))

    n = episodes(traced)
    totals = tracer.layer_totals()
    metrics = {}
    for layer, (calls, self_ms) in totals.items():
        metrics[f"{layer}.calls"] = (calls / n, "count/episode")
        metrics[f"{layer}.self_ms"] = (self_ms / n, "ms/episode")
    decisions = totals["icl.controller.icl_decide"][0]
    retrieves = totals["icl.pool.retrieve"][0]
    exchanges = [s for r in traced for s in r.exchanges]
    metrics.update({
        "icl.attempts_per_decision": (
            totals["icl.backends.complete"][0] / decisions if decisions else 0.0,
            "ratio"),
        "icl.fallback_decisions": (sum(s.fallbacks for s in exchanges) / n,
                                   "count/episode"),
        "icl.request_chars_per_decision": (
            sum(s.request_chars for s in exchanges) / decisions if decisions else 0.0,
            "chars"),
        "icl.pool.records_per_retrieve": (
            tracer.retrieved_records / retrieves if retrieves else 0.0, "records"),
        "harness.output_bytes": (sum(r.output_bytes for r in traced) / n,
                                 "bytes/episode"),
        "ppo.train_aoi_s": (statistics.fmean(traced[0].train_aoi)
                            if traced[0].train_aoi else 0.0, "sim_s"),
        "trace.overhead_ratio": (frames_per_s(traced) / frames_per_s(plain), "ratio"),
    })
    return episodes(plain) + n, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "frsicl")):
        print(f"error: no program source at {os.path.join(ROOT, 'src')}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose one of "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload](args.seed, work_dir)
        setup_s = process_age_s()
        if args.trace:
            attempted, metrics = per_layer(workload, args.seconds)
        else:
            attempted, metrics = end_to_end(workload, setup_s, args.seconds)
    except Exception:  # a failed check (check.CheckError) or a program fault
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
