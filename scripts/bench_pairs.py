#!/usr/bin/env python3
"""Paired benchmark: a base revision against the current checkout.

    python3 scripts/bench_pairs.py --pairs 10 --out BENCH_6.json

Exports the base revision (default HEAD~) with `git archive` into a
temporary directory, then runs `simbench/run.py` on every workload of
BENCHMARK.json `--pairs` (at least 2) times per side, each run as long
as its `run_seconds`. Pair i runs both sides with seed FIRST_SEED + i;
the side that goes first alternates from pair to pair, so slow drift of
a shared machine falls on both. The output JSON holds, per workload and
end-to-end metric (as BENCHMARK.json names them), each side's runs,
median, q1 and q3, and the share of pairs the change won; a tie wins
nothing. A run that fails its checks stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 101


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:  # quartiles need two runs per side
        parser.error("--pairs must be at least 2")
    return args


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed in {tree}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs, metrics):
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["base"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "base": spread(base), "change": spread(change),
                     "change_won_share": won / len(runs)}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    result = {
        "base": git("rev-parse", args.base),
        "change": git("rev-parse", "HEAD") + (" + uncommitted changes"
                                              if git("status", "--porcelain") else ""),
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": list(range(FIRST_SEED, FIRST_SEED + args.pairs)),
        "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0]},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_tree:
        export(args.base, base_tree)
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for i, seed in enumerate(result["seeds"]):
                sides = [("base", base_tree), ("change", ROOT)]
                pair = {}
                for side, tree in sides if i % 2 == 0 else sides[::-1]:
                    started = time.perf_counter()
                    pair[side] = run_once(tree, workload, seed, seconds)
                    print(f"{workload} pair {i} {side}: "
                          f"frames_per_s {pair[side]['frames_per_s']:.0f} "
                          f"({time.perf_counter() - started:.0f} s)", flush=True)
                runs.append(pair)
            result["workloads"][workload] = summarize(runs, bench["end_to_end"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
