#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not of the library).

    python3 perfbench/smoke_test.py

Run from the repository root. It builds the driver, then checks that:
  * the output validators accept reference outputs and reject a corrupted
    BFS label vector and a corrupted PageRank vector;
  * every workload in BENCHMARK.json runs on tiny inputs with --trace 0 and
    --trace 1, prints a result line with exactly the contract's keys, and
    prints exactly the metric names and units BENCHMARK.json lists;
  * the thread-budget guard refuses a graph workload when the process may
    use fewer CPUs than the workload needs.
Exits 0 when all checks pass.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    driver = run.build_driver()
    if driver is None:
        print("FAIL build")
        return 1

    out = subprocess.run([str(driver), "--validator-selftest"],
                         capture_output=True, text=True)
    selftest = json.loads(out.stdout.strip().splitlines()[-1])
    for key, value in selftest.items():
        if key != "kind":
            check(value is True, "validator self-test: " + key)

    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(run.BENCH_DIR / "run.py"),
                   "--workload", w["name"], "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            res = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                                 text=True)
            what = "%s --trace %d" % (w["name"], trace)
            check(res.returncode == 0, what + ": exit code 0")
            if res.returncode != 0:
                print(res.stderr[-2000:])
                continue
            result = json.loads(res.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  what + ": result keys")
            check(result["correct"] and result["failed"] == 0,
                  what + ": outputs validated, no failed reps")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, what + ": metric names and units match")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      what + ": end-to-end metrics are nonzero")

    # Two hosts x (1 compute + 1 communication thread) need four CPUs.
    res = subprocess.run([str(driver), "--workload", "bfs_grid", "--seed", "1",
                          "--seconds", "1", "--smoke"],
                         capture_output=True, text=True,
                         preexec_fn=lambda: os.sched_setaffinity(0, {0}))
    check(res.returncode == 3 and not res.stdout,
          "thread budget: refused on one CPU")

    print("smoke test %s" % ("FAILED" if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
