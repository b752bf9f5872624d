#!/usr/bin/env python3
"""End-to-end benchmark of vstack: build bench_e2e from source, run workloads.

    python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--record FILE] [--write-expected]

Run from anywhere; paths resolve against the repository root.  The first
call configures and builds bench_e2e (Release) under .bench_build/e2e; later
calls rebuild only what changed.  Without --workload every workload runs in
turn.  For each workload the script prints `workload metric value unit`
lines and then one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics (a layer the workload does not
exercise reads 0), and the spans go to .bench_build/traces/.  The exit code
is nonzero when a correctness check fails.  --record appends each result,
with the machine stamp, to FILE as one JSON line (the input of
bench_diff.py).  --write-expected stores the run's checked outputs as
expected/<workload>.json, which later runs with the same seed must match.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ["paper_sweep", "campaign_threads", "campaign_shards", "ext_grid"]
RUN_TIMEOUT_S = 170
EXPECTED_REL_TOL = 1e-6


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("error: the repository's CMakeLists.txt is not in " + str(ROOT))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                  "--target", "bench_e2e"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("error: build step failed: " + " ".join(cmd))
    return BUILD / "bench_e2e"


def run_binary(binary, workload, args, deadline):
    """Run one workload in its own process group; returns its result."""
    work = (ROOT / ".bench_build" / "work" /
            f"{workload}-{args.seed}-{os.getpid()}")
    cmd = [str(binary), f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--work-dir={work}"]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={traces / f'{workload}-seed{args.seed}.json'}")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"error: {workload} did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: bench_e2e failed on {workload} "
                 f"(exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def check_expected(workload, seed, results, problems):
    """Compare checked outputs with expected/<workload>.json for its seed."""
    path = HERE / "expected" / f"{workload}.json"
    if not path.is_file():
        problems.append(f"missing {path.relative_to(ROOT)}")
        return
    expected = json.loads(path.read_text())
    if expected["seed"] != seed:
        return
    want = expected["results"]
    for name in sorted(set(want) | set(results)):
        if name not in results or name not in want:
            problems.append(f"result {name} is not in both this run and "
                            f"{path.name}")
            continue
        got, exp = results[name], want[name]
        same = (got == exp if float(exp).is_integer()
                else abs(got - exp) <= EXPECTED_REL_TOL * abs(exp))
        if not same:
            problems.append(f"result {name} = {got!r}, expected {exp!r}")


def declared_metrics(trace, result, problems):
    """The BENCHMARK.json metric set for this mode, filled from the run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {d["name"] for d in declared}
    for name in sorted(set(result["metrics"]) - names):
        problems.append(f"metric {name} is not declared in BENCHMARK.json")
    metrics = {}
    for d in declared:
        got = result["metrics"].get(d["name"])
        if got is None:
            # Per-layer metrics of layers this workload never calls read 0.
            if not trace:
                problems.append(f"end-to-end metric {d['name']} missing")
            value = 0.0
        else:
            value = got["value"]
            if got["unit"] != d["unit"]:
                problems.append(f"metric {d['name']} reported in "
                                f"{got['unit']}, declared {d['unit']}")
            if not math.isfinite(value):
                problems.append(f"metric {d['name']} is not finite")
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", type=Path,
                        help="append each result as a JSON line to this file")
    parser.add_argument("--write-expected", action="store_true",
                        help="store the checked outputs as expected/")
    args = parser.parse_args()

    binary = build()
    all_correct = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        result = run_binary(binary, workload, args, deadline)
        problems = list(result["problems"])
        if args.write_expected:
            path = HERE / "expected" / f"{workload}.json"
            expected = {"workload": workload, "seed": args.seed,
                        "results": result["results"]}
            path.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
        else:
            check_expected(workload, args.seed, result["results"], problems)
        metrics = declared_metrics(args.trace, result, problems)
        for problem in problems:
            print(f"{workload} CHECK FAILED: {problem}")
        for name, m in metrics.items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        final = {"correct": not problems, "attempted": result["attempted"],
                 "failed": result["failed"], "metrics": metrics}
        if args.record:
            record = {"workload": workload, "seed": args.seed,
                      "trace": args.trace, "machine": result["machine"],
                      **final}
            with args.record.open("a") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")
        print(json.dumps(final), flush=True)
        all_correct = all_correct and not problems
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
