#!/usr/bin/env python3
"""CFS metadata benchmark: builds perfbench/ and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload read-mix --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test      # generator and replay checks
  python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

A run builds the benchmark (and the CFS libraries it measures) into
.bench_build/perfbench, runs the cfs_perfbench binary, and passes its
output through: one "metric <name> <value> <unit>" line per metric, a
provenance line, and as the last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. Results and traced spans are also
written to .bench_build/perfbench/out/.

The metric and workload lists below are the single source of truth for
BENCHMARK.json; a run fails if the binary prints a different set.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
RUN_TIMEOUT_S = 170

WORKLOADS = [
    ("read-mix",
     "Table 1 production mix with Zipf popularity over a namespace 8x the "
     "client dentry cache: resolution, the cache, FileStore attr reads and "
     "TafDB dentry reads do the work"),
    ("shared-dir-writes",
     "4 clients create/unlink/mkdir/rmdir/setattr in one shared directory "
     "(Fig 11 at 100% contention): primitives, raft group commit, WAL and "
     "FileStore writes on one hot shard"),
    ("rename-mix",
     "Sec 5.6 mix, 90% intra-directory file renames and 10% cross-directory "
     "file or directory renames: the only workload that drives the Renamer, "
     "its lock manager and cache invalidation"),
]

# (name, unit, better, bound). Wall-leg figures of successful ops only.
# cpu_us_per_op and sim_host_us_per_op are per-layer: CPU time per op
# moves by 30-80% with the load other tenants put on a shared machine
# (same code, minutes apart), which no bound of at most 25% can absorb.
# error_rate is per-layer because it is 0 on every correct run.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.15),
    ("p50_us", "us", "lower", 0.15),
    ("p99_us", "us", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

OPS = ["getattr", "lookup", "setattr", "create", "unlink", "readdir",
       "rename", "rename_cross", "rename_dir", "mkdir", "rmdir"]

# (name, unit, better)
PER_LAYER = (
    [(f"core.{op}.{p}", "us", "lower") for op in OPS
     for p in ("p50_us", "p99_us")]
    + [
        ("cpu_us_per_op", "us/op", "lower"),
        ("sim_host_us_per_op", "us/op", "lower"),
        ("error_rate", "ratio", "lower"),
        ("core.samples", "count", "higher"),
        ("core.beyond_p99", "count", "higher"),
        ("core.resolve_us", "us/op", "lower"),
        ("core.resolve_cached_us", "us/op", "lower"),
        ("dentry_cache.hit_ratio", "ratio", "higher"),
        ("dentry_cache.lookups", "count/op", "lower"),
        ("dentry_cache.revalidate", "count/op", "lower"),
        ("dentry_cache.stale", "count/op", "lower"),
        ("dentry_cache.evict", "count/op", "lower"),
        ("net.rpcs", "count/op", "lower"),
        ("net.op_rpcs", "count/op", "lower"),
        ("net.injected_us", "us/op", "lower"),
        ("net.rpc_us", "us/op", "lower"),
        ("net.sleep_overshoot", "ratio", "lower"),
        ("tafdb.primitives", "count/op", "lower"),
        ("tafdb.reads", "count/op", "lower"),
        ("tafdb.txn_commits", "count/op", "lower"),
        ("tafdb.aborts", "count/op", "lower"),
        ("tafdb.exec_us", "us/op", "lower"),
        ("tafdb.hot_shard_share", "ratio", "lower"),
        ("tafdb.shard_calls", "count/op", "lower"),
        ("filestore.attr_reads", "count/op", "lower"),
        ("filestore.mutations", "count/op", "lower"),
        ("filestore.hot_node_share", "ratio", "lower"),
        ("filestore.node_calls", "count/op", "lower"),
        ("raft.proposals", "count/op", "lower"),
        ("raft.append_us", "us/op", "lower"),
        ("wal.appends", "count/op", "lower"),
        ("wal.fsyncs", "count/op", "lower"),
        ("wal.group_commit_batch", "ratio", "higher"),
        ("wal.fsync_us", "us/op", "lower"),
        ("txn.lock_acquisitions", "count/op", "lower"),
        ("txn.lock_contended_ratio", "ratio", "lower"),
        ("txn.lock_wait_us", "us/op", "lower"),
        ("txn.2pc_runs", "count/op", "lower"),
        ("txn.2pc_us", "us/op", "lower"),
        ("renamer.renames", "count/op", "lower"),
        ("renamer.us", "us/op", "lower"),
        ("renamer.aborted", "count", "lower"),
        ("gc.events_per_s", "1/s", "lower"),
        ("gc.orphan_attrs_deleted", "count", "lower"),
        ("gc.dangling_entries_removed", "count", "lower"),
        ("proc.user_us", "us/op", "lower"),
        ("proc.sys_us", "us/op", "lower"),
        ("proc.ctx_switches", "count/op", "lower"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
        ("sim.ops", "count", "higher"),
        ("sim.virtual_ops_per_s", "1/s", "higher"),
        ("sim.virtual_p50_us", "us", "lower"),
        ("sim.virtual_p99_us", "us", "lower"),
        ("sim.net.rpcs", "count/op", "lower"),
        ("sim.tafdb.primitives", "count/op", "lower"),
        ("sim.tafdb.reads", "count/op", "lower"),
        ("sim.filestore.attr_reads", "count/op", "lower"),
        ("sim.raft.proposals", "count/op", "lower"),
        ("sim.wal.fsyncs", "count/op", "lower"),
        ("sim.dentry_cache.hit_ratio", "ratio", "higher"),
        ("sim.txn.lock_acquisitions", "count/op", "lower"),
        ("sim.renamer.renames", "count/op", "lower"),
    ]
)


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no CFS sources under {ROOT}/src; nothing to measure")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def source_id():
    """The commit when run in a git checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def check_result(line, trace):
    """Returns an error message, or None when `line` is a valid result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(result)}"
    table = PER_LAYER if trace else END_TO_END
    want = {m[0]: m[1] for m in table}
    got = {n: v.get("unit") for n, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from the spec: missing {missing}, extra {extra}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w[0] for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args()

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        return 0
    if args.self_test:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]
                              ).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["cfs_perfbench"]):
        return 1

    cmd = [os.path.join(BUILD, "cfs_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace) if lines else "no output"
    if error is not None:
        print("\n".join(lines[:-1]))
        log(f"exit {proc.returncode}: {error}")
        return 1
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
