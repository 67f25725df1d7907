#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver, runs one workload, prints metrics.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The driver binary is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build). The driver prints one
JSON record per repetition; this script checks them, aggregates them into the
metrics named in BENCHMARK.json and prints, as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer metrics.
A few human-readable '#' lines (medians with a tail percentile and sample
count, speed-up ratios, error rate, thread budget) come before it.
See perfbench/NOTES.md for what each workload and metric is for.
"""
import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BACKENDS = ("lci", "probe", "rma")
# Rep deadline: a driver that prints nothing for this long is killed and the
# rep in flight counts as failed (a healthy rep takes a few seconds at most).
SILENCE_LIMIT_S = 60.0
# Whole-run deadline beyond --seconds (input generation, references, the
# last cycle's overshoot).
RUN_SLACK_S = 90.0

IN_PROGRAM_SPANS = ("round", "compute", "sync_phase", "gather", "send",
                    "recv", "apply", "flush", "direct_put", "produce", "drain")
BENCH_SPANS = ("bench.partition", "bench.engine_setup", "bench.warmup",
               "bench.app", "bench.reference")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_driver():
    """Configures and builds the driver; returns its path or None on failure."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return build_dir / "perfbench_driver"


def run_driver(cmd, deadline):
    """Runs the driver, collecting its JSON lines until EOF or a deadline.

    Returns (records, exit_code, timed_out)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LCR_")}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    fd = proc.stdout.fileno()
    buf, lines = b"", []
    last = time.monotonic()
    timed_out = False
    while True:
        limit = min(deadline, last + SILENCE_LIMIT_S)
        now = time.monotonic()
        if now >= limit:
            timed_out = True
            break
        if not sel.select(timeout=limit - now):
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        last = time.monotonic()
        buf += chunk
        *complete, buf = buf.split(b"\n")
        lines.extend(complete)
    if timed_out:
        os.killpg(proc.pid, signal.SIGKILL)
    code = proc.wait()
    sel.close()
    proc.stdout.close()
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            log("perfbench: ignoring driver line: " + line[:200].decode(
                errors="replace"))
    return records, code, timed_out


def med(xs):
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """Highest of p90/p95/p99 with at least ten samples beyond it, or None."""
    xs = sorted(xs)
    n = len(xs)
    best = None
    for p in (90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = (p, xs[min(n - 1, -(-p * n // 100) - 1)])
    return best


def ratio(a, b):
    return a / b if b else 0.0


class Reps:
    """Successful reps of one pass (untraced or traced), by backend."""

    def __init__(self, reps):
        self.by = {b: [r for r in reps if r["backend"] == b] for b in BACKENDS}
        self.all = reps

    def med(self, b, fn):
        return med(fn(r) for r in self.by[b])

    def cnt(self, b, key):
        return self.med(b, lambda r: r["counters"][key])


def end_to_end(u):
    # Backends differ in set-up cost, so each gets its own median; a median
    # of the pooled reps would fall between the clusters and jump with one rep.
    setups = [u.med(b, lambda r: r["setup_s"]) for b in BACKENDS if u.by[b]]
    return {
        "time_s.lci": (u.med("lci", lambda r: r["time_s"]), "s"),
        "time_s.probe": (u.med("probe", lambda r: r["time_s"]), "s"),
        "setup_s": (statistics.mean(setups) if setups else 0.0, "s"),
        "comm_mem_kb.lci": (u.med("lci", lambda r: r["mem_kb"]), "kB"),
        "comm_mem_kb.probe": (u.med("probe", lambda r: r["mem_kb"]), "kB"),
    }


def per_layer(workload, meta, u, t):
    m = {}
    abelian = workload in ("bfs_grid", "pagerank_rmat")
    gemini = workload == "gemini_bfs_kron"
    hosts = meta["hosts"]

    m["graph.partition_s"] = (med(r["partition_s"] for r in u.all), "s")
    m["graph.mem_bytes"] = (med(r.get("graph_mem_bytes", 0) for r in u.all),
                            "bytes")

    ref_s = meta["reference_s"]
    m["apps.reference_s"] = (ref_s, "s")
    m["apps.rounds"] = (med(r.get("rounds", 0) for r in u.all), "count")
    for b in BACKENDS:
        time_b = u.med(b, lambda r: r["time_s"])
        m["apps.compute_s." + b] = (
            u.med(b, lambda r: r["compute_s"]) if abelian else 0.0, "s")
        m["apps.time_over_ref." + b] = (ratio(time_b, ref_s), "ratio")

    def bucket(r, key):  # per-host mean seconds of a summed *_ns counter
        return r["counters"][key] * 1e-9 / hosts

    for b in BACKENDS:
        on = abelian and u.by[b]
        m["abelian.comm_s." + b] = (
            u.med(b, lambda r: r["comm_s"]) if on else 0.0, "s")
        for name, key in (("gather_s", "sync.gather_ns"),
                          ("apply_s", "sync.apply_ns"),
                          ("direct_s", "sync.direct_ns")):
            m["abelian.%s.%s" % (name, b)] = (
                u.med(b, lambda r: bucket(r, key)) if on else 0.0, "s")
        m["abelian.wait_s." + b] = (u.med(b, lambda r: max(0.0, r["comm_s"] - (
            bucket(r, "sync.gather_ns") + bucket(r, "sync.apply_ns") +
            bucket(r, "sync.direct_ns")))) if on else 0.0, "s")
        m["abelian.msgs." + b] = (u.med(b, lambda r: r["msgs"]) if on else 0,
                                  "count")
        m["abelian.bytes." + b] = (u.med(b, lambda r: r["bytes"]) if on else 0,
                                   "bytes")

    def dense_share(r):
        c = r["counters"]
        chunks = c["sync.fmt_sparse"] + c["sync.fmt_varint"] + c["sync.fmt_dense"]
        return ratio(c["sync.fmt_dense"], chunks)

    m["abelian.dense_chunk_share"] = (
        med(dense_share(r) for r in u.all) if abelian else 0.0, "ratio")

    for b in ("lci", "probe"):
        for name, key, unit in (("comm_s", "comm_s", "s"),
                                ("compute_s", "compute_s", "s"),
                                ("msgs", "msgs", "count"),
                                ("bytes", "bytes", "bytes")):
            m["gemini.%s.%s" % (name, b)] = (
                u.med(b, lambda r: r[key]) if gemini else 0.0, unit)

    m["lci.sends"] = (u.med("lci", lambda r: r["counters"]["lci.eager_sends"] +
                            r["counters"]["lci.rdv_sends"]), "count")
    m["lci.recvs"] = (u.cnt("lci", "lci.recvs"), "count")
    m["lci.progress_events"] = (u.cnt("lci", "lci.progress_events"), "count")
    m["lci.lease_share"] = (u.med("lci", lambda r: ratio(
        r["counters"]["lci.lease_sends"], r["counters"]["lci.eager_sends"])),
        "ratio")

    m["mpilite.iprobes"] = (u.cnt("probe", "mpilite.iprobes"), "count")
    m["mpilite.probe_hit_ratio"] = (u.med("probe", lambda r: ratio(
        r["counters"]["mpilite.irecvs"], r["counters"]["mpilite.iprobes"])),
        "ratio")
    for name, key in (("umq_scan_per_recv", "mpilite.umq_scanned"),
                      ("prq_scan_per_recv", "mpilite.prq_scanned")):
        m["mpilite." + name] = (u.med("probe", lambda r: ratio(
            r["counters"][key], r["counters"]["mpilite.irecvs"])), "count")

    for b in BACKENDS:
        m["fabric.sends." + b] = (u.cnt(b, "fabric.sends"), "count")
        m["fabric.puts." + b] = (u.cnt(b, "fabric.puts"), "count")
        m["fabric.bytes_tx." + b] = (u.cnt(b, "fabric.bytes_tx"), "bytes")
        m["fabric.polls_per_msg." + b] = (u.med(b, lambda r: ratio(
            r["counters"]["fabric.cq_polls"],
            r["counters"]["fabric.sends"] + r["counters"]["fabric.puts"])),
            "ratio")
        m["fabric.soft_retries." + b] = (u.med(b, lambda r: sum(
            r["counters"][k] for k in ("fabric.retries_no_rx",
                                       "fabric.retries_throttled",
                                       "fabric.retries_cq_full"))), "count")

    # End-to-end figures of the RMA backend, which Gemini lacks; a gated
    # metric may never read 0, so these two are reported here.
    m["time_s.rma"] = (u.med("rma", lambda r: r["time_s"]), "s")
    m["comm_mem_kb.rma"] = (u.med("rma", lambda r: r["mem_kb"]), "kB")

    # Traced pass: self time per span, summed over the reps of one cycle
    # (one rep per backend), median over cycles.
    cycles = {}
    for r in t.all:
        cycles.setdefault(r["cycle"], []).append(r)

    def per_cycle(fn):
        return med(sum(fn(r) for r in rs) for rs in cycles.values())

    for span in IN_PROGRAM_SPANS + BENCH_SPANS:
        if span == "bench.reference":
            value = meta.get("reference_self_s", 0.0)
        else:
            value = per_cycle(lambda r: r["self_s"].get(span, 0.0))
        m["self_s." + span] = (value, "s")
    for b in BACKENDS:
        m["abelian.comm_thread.idle_frac." + b] = (t.med(b, lambda r: ratio(
            r["counters"]["abelian.comm_thread.idle_ns"],
            r["counters"]["abelian.comm_thread.idle_ns"] +
            r["counters"]["abelian.comm_thread.work_ns"])) if abelian else 0.0,
            "ratio")
    traced = sum(t.med(b, lambda r: r["time_s"]) for b in BACKENDS)
    untraced = sum(u.med(b, lambda r: r["time_s"]) for b in BACKENDS)
    m["trace.overhead"] = (ratio(traced, untraced), "ratio")
    m["trace.unattributed_s"] = (per_cycle(lambda r: r["unattributed_s"]), "s")
    m["trace.unattributed_share"] = (ratio(
        sum(r["unattributed_s"] for r in t.all),
        sum(r["app_span_s"] for r in t.all)), "ratio")
    m["trace.dropped"] = (max((r["trace_dropped"] for r in t.all), default=0),
                          "count")
    return m


def summary_lines(workload, meta, reps, attempted, failed):
    out = ["# %s seed=%s nproc=%d os_threads=%d hosts=%d compute_threads=%d"
           % (workload, meta["seed"], meta["nproc"], meta["os_threads"],
              meta["hosts"], meta["compute_threads"])]
    medians = {}
    for b in BACKENDS:
        xs = [r["time_s"] for r in reps.by[b]]
        if not xs:
            continue
        medians[b] = med(xs)
        tl = tail(xs)
        tl_text = " p%d=%.6g" % tl if tl else " (no tail percentile: n<100)"
        out.append("# time_s.%s median=%.6g%s n=%d" % (b, medians[b], tl_text,
                                                       len(xs)))
    for b in ("probe", "rma"):
        if b in medians and medians.get("lci"):
            out.append("# speed-up of lci over %s (not gated): %.3fx" %
                       (b, medians[b] / medians["lci"]))
    out.append("# error_rate=%d/%d=%.4g" % (failed, attempted,
                                            ratio(failed, attempted)))
    return out


def expected_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (smoke test only)")
    args = ap.parse_args()

    expected = expected_units(args.trace)
    driver = build_driver()
    if driver is None:
        return 1
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    deadline = time.monotonic() + args.seconds + RUN_SLACK_S
    records, code, timed_out = run_driver(cmd, deadline)

    metas = [r for r in records if r.get("kind") == "meta"]
    if not metas:
        log("perfbench: driver exited with code %d before measuring" % code)
        return 1
    meta = metas[0]
    reps = [r for r in records if r.get("kind") == "rep"]
    finished = any(r.get("kind") == "done" for r in records)
    attempted = len(reps)
    failed = sum(1 for r in reps if not r["ok"])
    for r in reps:
        if not r["ok"]:
            log("perfbench: %s rep failed: %s" % (r["backend"], r["error"]))
    if not finished:  # the rep in flight died or missed its deadline
        attempted += 1
        failed += 1
        log("perfbench: driver %s (exit code %d)" % (
            "missed its deadline" if timed_out else "died", code))
    ok = [r for r in reps if r["ok"] and not r.get("warmup")]
    untraced = Reps([r for r in ok if not r["traced"]])
    traced = Reps([r for r in ok if r["traced"]])

    if args.trace:
        metrics = per_layer(args.workload, meta, untraced, traced)
    else:
        metrics = end_to_end(untraced)
    units = {k: unit for k, (_, unit) in metrics.items()}
    if units != expected:
        log("perfbench: metric names or units differ from BENCHMARK.json: %s"
            % sorted(set(units.items()) ^ set(expected.items())))
        return 1

    for line in summary_lines(args.workload, meta, untraced, attempted, failed):
        print(line)
    if args.trace and metrics["trace.dropped"][0]:
        print("# warning: %d spans dropped (ring overflow); self_s.* "
              "undercount" % metrics["trace.dropped"][0])
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
