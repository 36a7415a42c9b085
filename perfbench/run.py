#!/usr/bin/env python3
"""Camelot-TM host-cost benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout. Builds the benchmark binary
(perfbench/camelot_bench.cc) against src/ in two trees under .bench_build/:
an optimized RelWithDebInfo tree for timing and a -pg tree for gprof. Then:

  --trace 0  runs the workload for T host seconds with tracing off and
             prints the end-to-end metrics of BENCHMARK.json.
  --trace 1  runs the workload three times at the same seed (untraced,
             traced with spans and allocation counting, and under gprof),
             checks that every work count and virtual-time result agrees,
             and prints the per-layer metrics, including each src/ module's
             share of self time and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Any correctness gate
that fails prints the reason and exits 1. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"
TREES = {"opt": False, "pg": True}  # tree name -> built with -pg
WORLD_WORKLOADS = ("local_crank", "dist_bank")
# The reference kernel's time on a host of reference speed. Each pass times the
# kernel every 50 ms of its timed phase (camelot_bench.cc, RefKernel); a
# reference second is a host second of the pass rescaled by REF_KERNEL_S / the
# kernel's mean time in that pass.
REF_KERNEL_S = 0.001

# What a unit of work is in each workload, for work_per_ref_s and work_per_host_s.
WORK_UNIT = {
    "local_crank": "commits",
    "dist_bank": "commits",
    "chaos_sweep": "scenario runs",
    "modelcheck": "model states",
}

MODULES = ("sim", "net", "ipc", "comman", "wal", "diskmgr", "lockmgr", "server",
           "tranman", "recovery", "stats", "harness", "analysis", "base")
PROFILE_BUCKETS = MODULES + ("libc.alloc", "libc.other", "std", "other")
# malloc and free, operator new and delete, and camelot_bench's counting wrappers.
ALLOC_SYMBOL = re.compile(
    r"^(_Zn[wa]|_Zd[la]|(__libc_)?(malloc|free|calloc|realloc|cfree)$|_int_|"
    r"malloc_|unlink_chunk|tcache|sysmalloc|alloc_perturb|__malloc)|Counted(Alloc|Free)")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(tree, gprof):
    """Configures (once) and builds one tree; returns the binary's path."""
    build_dir = os.path.join(BUILD_DIR, tree)
    log_path = os.path.join(BUILD_DIR, tree + ".log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                      "-DPERFBENCH_GPROF=" + ("ON" if gprof else "OFF")])
    steps.append(["cmake", "--build", build_dir, "--target", "camelot_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, env=env) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build of the %s tree failed (log: %s)" % (tree, log_path))
    return os.path.join(build_dir, "camelot_bench")


def run_binary(binary, args, traced=False, check_reference=False, trace_out=None, env=None,
               ref_kernel=True):
    """Runs one pass of the workload in a fresh process; returns its JSON result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    if not ref_kernel:
        cmd.append("--no-ref-kernel")
    if check_reference:
        cmd.append("--check-reference")
    if traced:
        cmd.append("--traced")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, CAMELOT_ARTIFACT_DIR=os.path.join(BUILD_DIR, "artifacts"),
               **(env or {}))
    os.makedirs(env["CAMELOT_ARTIFACT_DIR"], exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          universal_newlines=True)
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(binary, args, seconds, traced=False, check_reference=False, env=None,
               ref_kernel=True):
    """Runs passes, one process each, until `seconds` have gone (at least one).

    Returns the first pass's result with the per-pass host measurements of
    every pass collected in lists. Every pass must reproduce the first pass's
    work counts and virtual-time results exactly.
    """
    trace_out = None
    if traced:
        trace_out = os.path.join(BUILD_DIR, "traces",
                                 "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    # The first pass also runs the reference check, so the clock starts after it.
    passes = [run_binary(binary, args, traced=traced, check_reference=check_reference,
                         trace_out=trace_out, env=env, ref_kernel=ref_kernel)]
    start = time.monotonic() - passes[0]["host_s"]
    while time.monotonic() - start < seconds:
        passes.append(run_binary(binary, args, traced=traced, env=env, ref_kernel=ref_kernel))
    run = dict(passes[0])
    run["setup_s"] = [s for p in passes for s in p["setup_s"]]
    for key in ("host_s", "work", "ref_s", "ref_runs", "step_ms", "peak_rss_mb"):
        run[key] = [p[key] for p in passes]
    run["violations"] = list(passes[0]["violations"])
    for i, p in enumerate(passes[1:], start=2):
        run["violations"] += p["violations"]
        if p["counts"] != passes[0]["counts"]:
            run["violations"].append("pass %d counts differ from pass 1 at the same seed: %s"
                                     % (i, ", ".join(count_diff(passes[0], p))))
    return run


def count_diff(a, b):
    return sorted(k for k in set(a["counts"]) | set(b["counts"])
                  if a["counts"].get(k) != b["counts"].get(k))


def percentile(samples, p):
    """Nearest-rank percentile, as camelot::Summary computes it."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def host_facts(args, trace):
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             universal_newlines=True)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except OSError:
        pass
    compiler = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                              universal_newlines=True).stdout.splitlines()[0]
    return ("host: nproc=%d compiler=%r build=%s commit=%s workload=%s seed=%d trace=%d"
            % (os.cpu_count() or 0, compiler, BUILD_TYPE, commit, args.workload, args.seed,
               trace))


# --- Per-module self time from gprof ------------------------------------------------

def symbol_bucket(symbol, source):
    """The profile bucket of a function, from its mangled name and source file."""
    m = re.search(r"/src/(\w+)/", source)
    if m and m.group(1) in MODULES:
        return m.group(1)
    if ALLOC_SYMBOL.search(symbol):
        return "libc.alloc"
    if "/c++/" in source or re.match(r"_ZN?K?St", symbol):
        return "std"
    if not source.startswith("/"):  # No line info: static libc and libstdc++ code.
        return "libc.other"
    return "other"


def gprof_self_frac(binary, gmon_files):
    flat = subprocess.run(["gprof", "-b", "-p", "--no-demangle", binary] + gmon_files,
                          stdout=subprocess.PIPE, universal_newlines=True, check=True).stdout
    self_s = {}
    for line in flat.splitlines():
        fields = line.split()
        if len(fields) >= 4 and re.match(r"^\d+\.\d+$", fields[0]):
            self_s[fields[-1]] = self_s.get(fields[-1], 0.0) + float(fields[2])
    addresses = {}
    nm = subprocess.run(["nm", "--defined-only", binary], stdout=subprocess.PIPE,
                        universal_newlines=True, check=True).stdout
    for line in nm.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[2] in self_s:
            addresses.setdefault(fields[2], fields[0])
    names = sorted(addresses)
    lines = subprocess.run(["addr2line", "-e", binary] + [addresses[n] for n in names],
                           stdout=subprocess.PIPE, universal_newlines=True,
                           check=True).stdout.splitlines()
    source = dict(zip(names, lines))
    total = sum(self_s.values())
    frac = {bucket: 0.0 for bucket in PROFILE_BUCKETS}
    for symbol, seconds in self_s.items():
        bucket = symbol_bucket(symbol, source.get(symbol, "?"))
        frac[bucket] += seconds / total if total else 0.0
    return frac, total


# --- Metrics --------------------------------------------------------------------------

def median_rate(run):
    """Median over passes of work per host second of the timed phase."""
    return statistics.median(w / h for w, h in zip(run["work"], run["host_s"]))


def ref_kernel_s(run):
    """The reference kernel's mean time over every pass of the run."""
    return sum(run["ref_s"]) / sum(run["ref_runs"])


def ref_rate(run):
    """Work of all passes per reference second of their timed phases."""
    ref_s = sum(h * REF_KERNEL_S * n / r
                for h, r, n in zip(run["host_s"], run["ref_s"], run["ref_runs"]))
    return sum(run["work"]) / ref_s


def end_to_end(run):
    return {
        "work_per_ref_s": (ref_rate(run), "1/ref_s"),
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(run["peak_rss_mb"]), "MB"),
    }


def per_layer(plain, traced, profile, profile_s):
    counts = plain["counts"]
    alloc = traced["alloc"]
    host_s = statistics.median(plain["host_s"])
    traced_s = statistics.median(traced["host_s"])
    commits = counts.get("commits", 0.0)
    runs = counts.get("runs", 0.0)
    states = counts.get("analysis.states", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    count_units = {
        "sim.events_per_commit": "1/commit", "sim.pooled_post_frac": "ratio",
        "net.datagrams_per_commit": "1/commit", "net.multicasts_per_commit": "1/commit",
        "ipc.local_calls_per_commit": "1/commit", "ipc.remote_calls_per_commit": "1/commit",
        "wal.appends_per_commit": "1/commit", "wal.forces_per_commit": "1/commit",
        "wal.batch_frac": "ratio", "wal.bytes_per_commit": "B/commit",
        "diskmgr.writes_per_commit": "1/commit", "diskmgr.hit_frac": "ratio",
        "lockmgr.acquisitions_per_commit": "1/commit", "lockmgr.wait_frac": "ratio",
        "lockmgr.timeouts": "count", "lockmgr.hold_ms_mean": "vt_ms",
        "server.ops_per_commit": "1/commit",
        "tranman.pool_wait_ms_p50": "vt_ms", "tranman.pool_wait_ms_p99": "vt_ms",
        "tranman.pool_queued_frac": "ratio", "tranman.piggybacked_per_commit": "1/commit",
        "tranman.live_families_end": "count", "ledger.events_per_commit": "1/commit",
        "chaos.client_ok_per_run": "1/run",
        "analysis.states": "count", "analysis.transitions": "count",
        "analysis.dedup_frac": "ratio",
        "vt_tps": "txn/vt_s", "vt_commit_p50_ms": "vt_ms", "vt_commit_p99_ms": "vt_ms",
    }
    for name, unit in count_units.items():
        m[name] = (counts.get(name, 0.0), unit)
    m["sim.host_ns_per_event"] = (
        ratio(host_s * 1e9, counts.get("sim.events", 0.0)), "ns/event")
    m["alloc.count_per_commit"] = (ratio(alloc["alloc.count"], commits), "1/commit")
    m["alloc.bytes_per_commit"] = (ratio(alloc["alloc.bytes"], commits), "B/commit")
    m["alloc.count_per_run"] = (ratio(alloc["alloc.count"], runs), "1/run")
    m["alloc.bytes_per_state"] = (ratio(alloc["alloc.bytes"], states), "B/state")
    m["analysis.bytes_per_state"] = (ratio(alloc.get("alloc.peak_live_bytes", 0.0), states),
                                     "B/state")
    m["analysis.states_per_host_s"] = (ratio(states, host_s), "1/s")
    m["harness.setup_ms"] = (statistics.median(plain["setup_s"]) * 1e3, "ms")
    m["harness.audit_ms"] = (plain["host"].get("harness.audit_ms", 0.0), "ms")
    m["retained_bytes_per_commit"] = (plain["host"].get("retained_bytes_per_commit", 0.0),
                                      "B/commit")
    m["fail_frac"] = (ratio(plain["failed"], plain["attempted"]), "ratio")
    m["trace.overhead_frac"] = (ratio(traced_s - host_s, host_s), "ratio")
    m["gprof.self_s"] = (profile_s, "s")
    for bucket in PROFILE_BUCKETS:
        m[bucket + ".self_frac"] = (profile[bucket], "ratio")
    return m


def report(args, run, metrics, violations):
    steps = [s for p in run["step_ms"] for s in p]
    print("workload %s: %d pass(es), %d steps, work unit = %s"
          % (args.workload, len(run["host_s"]), len(steps), WORK_UNIT[args.workload]))
    if args.workload == "dist_bank":
        print("  open loop: Poisson arrivals are generated in virtual time, so the "
              "generator is never late; latency runs from each arrival's due time")
    named = {
        "local_crank": [("commits_per_host_s", median_rate(run), "commits/s")],
        "dist_bank": [("commits_per_host_s", median_rate(run), "commits/s")],
        "chaos_sweep": [("runs_per_host_s", median_rate(run), "runs/s")],
        "modelcheck": [("verdict_s", statistics.median(run["host_s"]), "s")],
    }[args.workload]
    named += [("work_per_host_s", median_rate(run), "1/s"),
              ("ref_kernel_ms (n=%d)" % sum(run["ref_runs"]), ref_kernel_s(run) * 1e3, "ms")]
    named.append(("step_host_ms_p50 (n=%d)" % len(steps), percentile(steps, 50), "ms"))
    if args.workload != "modelcheck":
        named.append(("step_host_ms_p99 (n=%d)" % len(steps), percentile(steps, 99), "ms"))
    counts = run["counts"]
    if args.workload in WORLD_WORKLOADS:
        named += [("retained_bytes_per_commit",
                   run["host"].get("retained_bytes_per_commit", 0.0), "B"),
                  ("vt_tps", counts["vt_tps"], "txn/virtual s"),
                  ("vt_commit_p50_ms", counts["vt_commit_p50_ms"], "virtual ms"),
                  ("vt_commit_p99_ms", counts["vt_commit_p99_ms"], "virtual ms")]
    named.append(("fail_frac (%d/%d)" % (run["failed"], run["attempted"]),
                  run["failed"] / run["attempted"], "ratio"))
    for name, value, unit in named:
        print("  %-34s %14.6g %s" % (name, value, unit))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-34s %14.6g %s" % (name, value, unit))
    for recipe in run["failures"]:
        print("  failing run: " + recipe)
    for v in violations:
        print("  GATE FAILED: " + v)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORK_UNIT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/; run from a full source checkout")

    # Both trees are built on the first run, so no later run pays for a build.
    binaries = {tree: build(tree, gprof) for tree, gprof in TREES.items()}
    print(host_facts(args, args.trace))

    if args.trace == 0:
        plain = run_passes(binaries["opt"], args, args.seconds, check_reference=True)
        violations = plain["violations"]
        metrics = end_to_end(plain)
    else:
        # The untraced, traced and profiled passes split the time.
        plain = run_passes(binaries["opt"], args, args.seconds / 3, check_reference=True)
        traced = run_passes(binaries["opt"], args, args.seconds / 3, traced=True)
        profile_dir = os.path.join(BUILD_DIR, "gprof", args.workload)
        shutil.rmtree(profile_dir, ignore_errors=True)
        os.makedirs(profile_dir)
        # The reference kernel is off here, so it stays out of the profile.
        profiled = run_passes(binaries["pg"], args, args.seconds / 3,
                              env={"GMON_OUT_PREFIX": os.path.join(profile_dir, "gmon")},
                              ref_kernel=False)
        gmon_files = sorted(os.path.join(profile_dir, f) for f in os.listdir(profile_dir))
        profile, profile_s = gprof_self_frac(binaries["pg"], gmon_files)
        violations = plain["violations"] + traced["violations"] + profiled["violations"]
        for name, other in (("traced", traced), ("gprof", profiled)):
            if other["counts"] != plain["counts"]:
                violations.append("%s run counts differ from the untraced run: %s"
                                  % (name, ", ".join(count_diff(plain, other))))
        metrics = per_layer(plain, traced, profile, profile_s)

    report(args, plain, metrics, violations)
    result = {
        "correct": not violations,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if not violations else 1)


if __name__ == "__main__":
    main()
