#!/usr/bin/env python3
"""Compare two sets of bench/e2e runs: the regression gate.

    python3 bench/e2e/bench_diff.py BASE.jsonl CHANGE.jsonl

Each file holds run records appended by `run.py --record`.  Run the two
commits alternately with identical settings, so the i-th untraced run of a
workload in BASE pairs with the i-th in CHANGE.  A record whose correctness
checks failed is refused.  For every (workload, end-to-end metric) the report
gives each side's median and quartiles, the change of the medians, and the
pairs the change won (ties count for neither), and a verdict, taken in this
order:

  gain        the change won at least 9/10 of the pairs and the medians differ
              by more than the base's interquartile distance
  regression  the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json
  unresolved  the spread (interquartile distance over median) of either side
              is wider than the bound, unless every run of the change is
              better than every run of the base
  slower      the base won at least 9/10 of the pairs and the medians differ
              by more than the base's interquartile distance, but by less
              than the bound: a real slowdown the bound still allows
  same        none of the above

Each workload's failed items over attempted items are summed per side; a
change that fails a larger share than the base is a regression too.  Traced
runs (--trace 1) of both sides name, per workload, the per-layer metric whose
median moved most, relative to the base, in its worse direction; a counter
that leaves 0 in its worse direction ranks first.

Exit code: 1 when any metric regressed, else 2 when any metric is
unresolved, else 0.
"""

import argparse
import collections
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9


def load(path):
    runs = collections.defaultdict(list)
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        r = json.loads(line)
        if not r["correct"]:
            sys.exit(f"error: {path}:{number}: {r['workload']} seed "
                     f"{r['seed']} failed its correctness checks")
        runs[(r["workload"], r["trace"])].append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_share(base, change, better):
    """Relative move of the median, positive when the change is worse.  A
    move away from a base of 0 has no relative size and reads infinite."""
    move = change - base if better == "lower" else base - change
    if base == 0:
        return math.copysign(math.inf, move) if move else 0.0
    return move / abs(base)


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def compare(metric, base_runs, change_runs):
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    a = [r["metrics"][name]["value"] for r in base_runs]
    b = [r["metrics"][name]["value"] for r in change_runs]
    qa, qb = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(beats(y, x, better) for x, y in pairs)
    losses = sum(beats(x, y, better) for x, y in pairs)
    worse = worse_share(qa[1], qb[1], better)
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    all_better = all(beats(y, x, better) for x in a for y in b)
    resolved = abs(qb[1] - qa[1]) > qa[2] - qa[0]
    if wins >= WIN_SHARE * len(pairs) and worse <= 0 and resolved:
        verdict = "gain"
    elif worse > bound:
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif losses >= WIN_SHARE * len(pairs) and worse > 0 and resolved:
        verdict = "slower"
    else:
        verdict = "same"
    return {"metric": name, "base": qa, "change": qb, "worse": worse,
            "wins": wins, "pairs": len(pairs), "spread": spread,
            "bound": bound, "verdict": verdict}


def failures(runs):
    """(failed, attempted) summed over runs."""
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def worst_layer(spec, base_runs, change_runs):
    worst = None
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name.startswith("trace."):
            continue  # the benchmark's own overhead, not a layer
        a = statistics.median(r["metrics"][name]["value"] for r in base_runs)
        b = statistics.median(r["metrics"][name]["value"] for r in change_runs)
        move = worse_share(a, b, metric["better"])
        if worst is None or move > worst[1]:
            worst = (name, move, a, b)
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(args.base), load(args.change)

    verdicts_seen = set()
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        a_runs = base.get((workload, 0), [])
        b_runs = change.get((workload, 0), [])
        n = min(len(a_runs), len(b_runs))
        if n == 0:
            continue
        if len(a_runs) != len(b_runs):
            print(f"note: {workload}: {len(a_runs)} base vs {len(b_runs)} "
                  f"change runs; comparing the first {n} pairs")
        a_runs, b_runs = a_runs[:n], b_runs[:n]
        print(f"\n{workload} ({n} pairs)")
        print(f"  {'metric':<16} {'base median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'worse':>8} {'wins':>6} "
              f"{'spread':>7} {'bound':>6}  verdict")
        results = [compare(m, a_runs, b_runs) for m in spec["end_to_end"]]
        for r in results:
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"  {r['metric']:<16} {fmt(r['base']):>34} "
                  f"{fmt(r['change']):>34} {r['worse']:>+8.1%} "
                  f"{r['wins']:>3}/{r['pairs']:<2} {r['spread']:>7.1%} "
                  f"{r['bound']:>6.0%}  {r['verdict']}")
        (fa, na), (fb, nb) = failures(a_runs), failures(b_runs)
        more_failures = fb * na > fa * nb
        print(f"  failed items: base {fa}/{na}, change {fb}/{nb}"
              + ("  regression" if more_failures else ""))
        verdicts = [f"{r['metric']} {r['verdict']}" for r in results
                    if r["verdict"] != "same"]
        verdicts_seen |= {r["verdict"] for r in results}
        if more_failures:
            verdicts.append("failures regression")
            verdicts_seen.add("regression")
        a_trace, b_trace = base.get((workload, 1)), change.get((workload, 1))
        layer = "no traced runs on both sides"
        if a_trace and b_trace:
            name, move, a, b = worst_layer(spec, a_trace, b_trace)
            layer = (f"{name} {a:.6g} -> {b:.6g} ({move:+.1%} worse)"
                     if move > 0 else "no per-layer metric got worse")
        rows.append(f"{workload:<18} {', '.join(verdicts) or 'all same':<60} "
                    f"worst layer: {layer}")

    print("\nsummary (one row per workload)")
    for row in rows:
        print("  " + row)
    if "regression" in verdicts_seen:
        return 1
    return 2 if "unresolved" in verdicts_seen else 0


if __name__ == "__main__":
    sys.exit(main())
