#!/usr/bin/env python3
"""Parent-vs-change comparison for the likelihood benchmark.

Runs the benchmark alternately in two checkouts (the parent commit and the
change), one seed per pair, and applies the rule a performance claim must
meet:

* at least 10 pairs, alternating which side runs first;
* per metric: each side's median and quartiles;
* a gain needs the change to win at least 9/10 of the pairs (ties count for
  neither side) and the medians to differ by more than the parent's
  interquartile range;
* a regression is a change median worse than the parent's by more than the
  metric's bound from BENCHMARK.json;
* a metric whose run-to-run spread (IQR / median) exceeds its bound is
  "unresolved", unless every change run beats every parent run;
* a gain does not count when the change has more failed evaluations, or
  more runs failing a correctness gate, than the parent. A run that fails
  a gate (exit code 1) still reports its metrics and its `failed` count.

Usage:
  python3 likbench/compare.py --parent PARENT_DIR --change CHANGE_DIR \\
      --workload matern-1e9 [--pairs 10] [--seed0 1000] [--save runs.jsonl]
  python3 likbench/compare.py --from runs.jsonl

Each directory is a checkout holding BENCHMARK.json; its benchmark is built
into <dir>/.bench_build. Both checkouts must carry the same BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    # Exit code 1 with a result line is a run whose correctness gates
    # failed: it still counts, through its `failed` evaluations.
    if out.returncode not in (0, 1) or not lines:
        sys.exit(f"{checkout}: seed {seed} failed (exit {out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if out.returncode == 1:
        print(f"{checkout}: seed {seed}: correctness gate failed, "
              f"{result['failed']} failed evaluations", file=sys.stderr)
    return result


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(metric, parent, change):
    """Classify one metric from paired per-run values."""
    pairs = len(parent)
    mp, mc = statistics.median(parent), statistics.median(change)
    qp, qc = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    iqr_p = qp[2] - qp[0]
    spread = max(iqr_p / mp, (qc[2] - qc[0]) / mc)
    direction, bound = metric["better"], metric["bound"]
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    all_better = all(better(c, p, direction) for p in parent for c in change)
    worse_by = (mc - mp) / mp if direction == "lower" else (mp - mc) / mp
    if wins >= 0.9 * pairs and better(mc, mp, direction) and abs(mc - mp) > iqr_p:
        word = "gain"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "regression"
    else:
        word = "within bound"
    return {
        "parent": (mp, qp[0], qp[2]),
        "change": (mc, qc[0], qc[2]),
        "delta_pct": 100.0 * (mc - mp) / mp,
        "wins": wins,
        "spread": spread,
        "verdict": word,
    }


def report(bench, runs):
    pairs = len(runs)
    if pairs < 10:
        sys.exit(f"{pairs} pairs: the rule needs at least 10")
    fails = {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")}
    wrong = {side: sum(not r[side]["correct"] for r in runs) for side in ("parent", "change")}
    print(f"{pairs} pairs; failed evaluations parent={fails['parent']} change={fails['change']}; "
          f"runs failing a gate parent={wrong['parent']} change={wrong['change']}")
    print(f"{'metric':<16} {'parent median [Q1, Q3]':<32} {'change median [Q1, Q3]':<32} "
          f"{'delta':>8} {'wins':>6}  verdict")
    for m in bench["end_to_end"]:
        name = m["name"]
        v = verdict(m, [r["parent"]["metrics"][name]["value"] for r in runs],
                    [r["change"]["metrics"][name]["value"] for r in runs])
        if v["verdict"] == "gain" and (fails["change"] > fails["parent"]
                                       or wrong["change"] > wrong["parent"]):
            v["verdict"] = "not a gain: more failures"
        fmt = lambda t: f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"
        print(f"{name:<16} {fmt(v['parent']):<32} {fmt(v['change']):<32} "
              f"{v['delta_pct']:>+7.1f}% {v['wins']:>3}/{pairs}  {v['verdict']} "
              f"(spread {100 * v['spread']:.1f}%, bound {100 * m['bound']:.0f}%)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--save", help="append every pair's results to this JSON-lines file")
    ap.add_argument("--from", dest="load", help="re-analyse a file written by --save")
    a = ap.parse_args()

    if a.load:
        with open(a.load) as f:
            saved = [json.loads(line) for line in f if line.strip()]
        report(saved[0]["bench"], [s["runs"] for s in saved])
        return

    if not (a.parent and a.change and a.workload):
        ap.error("--parent, --change and --workload are required")
    benches = []
    for d in (a.parent, a.change):
        with open(os.path.join(d, "BENCHMARK.json")) as f:
            benches.append(json.load(f))
    if benches[0] != benches[1]:
        sys.exit("the two checkouts carry different BENCHMARK.json files")
    bench = benches[0]
    runs = []
    for i in range(a.pairs):
        seed = a.seed0 + i
        order = [("parent", a.parent), ("change", a.change)]
        if i % 2:
            order.reverse()
        pair = {side: run_once(d, bench, a.workload, seed) for side, d in order}
        runs.append(pair)
        if a.save:
            with open(a.save, "a") as f:
                f.write(json.dumps({"bench": bench, "workload": a.workload,
                                    "seed": seed, "runs": pair}) + "\n")
        print(f"pair {i + 1}/{a.pairs} (seed {seed}) done", file=sys.stderr)
    report(bench, runs)


if __name__ == "__main__":
    main()
