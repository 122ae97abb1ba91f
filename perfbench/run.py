#!/usr/bin/env python3
"""Builds and runs the HARBOR end-to-end benchmark.

Builds perfbench/harbor_perf from the repository's src/ tree, runs one
workload and prints, as the last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. Human-readable diagnostics come first.

    python3 perfbench/run.py --workload trickle_commit --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. The build and the per-run data directory
live under $CARGO_TARGET_DIR (default .bench_build); the data directory is
deleted when the run ends.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("trickle_commit", "warehouse_scan", "recovery_catchup")
RUN_TIMEOUT_S = 170

# Which end-to-end metric, on which workload, each per-layer metric should
# move. Printed beside the traced run's numbers; README.md explains it.
LAYER_MOVES = {
    "workload.parse_us": "commit_p50_us on trickle_commit",
    "core.begin_us": "commit_p50_us, commit_p90_us on trickle_commit",
    "core.dml_us": "commit_p50_us, commit_p90_us on trickle_commit",
    "core.commit_us": "commit_p50_us, commit_p90_us on trickle_commit",
    "core.dml_busy_us": "commit_per_s, commit_busy_p50_us on trickle_commit",
    "core.commit_busy_us": "commit_per_s, commit_busy_p50_us on trickle_commit",
    "net.rpc_idle_us": "none gated (paced_p50_us diagnostic)",
    "net.rpc_busy_us": "commit_busy_p50_us on trickle_commit",
    "runtime.tasks_per_commit": "cpu_us_per_commit on trickle_commit",
    "runtime.spares_spawned": "cpu_us_per_commit on trickle_commit",
    "proc.cpu_us_per_commit_idle":
        "none gated (guards paced-latency gains bought with spinning)",
    "core.query_row_ms": "query_row_p50_ms on warehouse_scan",
    "core.query_col_ms": "query_col_p50_ms on warehouse_scan",
    "core.query_row_empty_ms": "query_row_p50_ms on warehouse_scan",
    "core.query_col_empty_ms": "query_col_p50_ms on warehouse_scan",
    "scan.row_rows_per_s": "query_row_p50_ms on warehouse_scan",
    "scan.col_rows_per_s": "query_col_p50_ms on warehouse_scan",
    "core.snapshot_time_us": "query_*_p50_ms on warehouse_scan (small share)",
    "proc.cpu_ms_per_query": "query_* on warehouse_scan",
    "core.bulk_load_rows_per_s": "setup_s on all workloads",
    "core.checkpoint_ms": "setup_s on all workloads",
    "core.crash_ms": "none (watched)",
    "lock.shared_table_abort_frac": "none (known lock-timeout defect)",
    "host.probe_ms": "none (host-speed diagnostic)",
}
for _layout in ("row", "col"):
    for _part in ("restart_ms", "phase1_ms", "phase2_insert_ms",
                  "phase2_delete_ms", "phase3_ms", "copy_us_per_row",
                  "rows_copied", "phase2_rounds"):
        LAYER_MOVES[f"recovery.{_layout}.{_part}"] = (
            f"recovery_{_layout}_ms on recovery_catchup")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "harbor_perf",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(build_dir, "harbor_perf")


def run_binary(binary, args, data_dir, env):
    env = dict(env, HARBOR_SEED=str(args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--size", args.size]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"harbor_perf exited {proc.returncode} "
                           "without a result")
    return proc.returncode, json.loads(lines[-1])


def select(found, wanted, label):
    """The metrics BENCHMARK.json names, each finite and with its unit."""
    out = {}
    for spec in wanted:
        m = found.get(spec["name"])
        if m is None or not math.isfinite(m["value"]):
            raise RuntimeError(f"{label} metric {spec['name']} not measured")
        if m["unit"] != spec["unit"]:
            raise RuntimeError(f"{label} metric {spec['name']} has unit "
                               f"{m['unit']}, BENCHMARK.json says "
                               f"{spec['unit']}")
        out[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def print_diagnostics(args, result, cache_file):
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size} "
          f"data_dir_fs={result['data_dir_fs']}")
    for name, m in sorted(result["diag"].items()):
        print(f"# diag {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        return
    untraced = {}
    if os.path.isfile(cache_file):
        with open(cache_file) as f:
            untraced = json.load(f)["metrics"]
    print("# end-to-end, untraced vs traced (difference = tracing overhead):")
    for name, m in sorted(result["metrics"].items()):
        base = untraced.get(name)
        if base:
            diff = 100.0 * (m["value"] - base["value"]) / base["value"]
            print(f"#   {name:22s} untraced {base['value']:12.6g}  "
                  f"traced {m['value']:12.6g} {m['unit']:5s} ({diff:+.1f}%)")
        else:
            print(f"#   {name:22s} untraced {'(not run)':>12s}  "
                  f"traced {m['value']:12.6g} {m['unit']}")
    print("# per-layer -> the end-to-end metric it should move:")
    for name, m in sorted(result["layers"].items()):
        print(f"#   {name:32s} {m['value']:12.6g} {m['unit']:8s} -> "
              f"{LAYER_MOVES.get(name, '?')}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small tables, for the smoke test")
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be within 1..60")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no HARBOR source tree at", os.path.join(ROOT, "src"))
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    # Compiler temporaries stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(build_dir, env)
    data_dir = os.path.join(build_dir, f"data-{os.getpid()}")
    try:
        rc, result = run_binary(binary, args, data_dir, env)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    if rc != 0 or not result["correct"]:
        log(f"run.py: harbor_perf exited {rc}; correctness checks failed")
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        return 1

    cache_dir = os.path.join(build_dir, "results")
    cache_file = os.path.join(
        cache_dir, f"{args.workload}-seed{args.seed}-s{args.seconds}-"
        f"{args.size}.json")
    print_diagnostics(args, result, cache_file)
    if args.trace:
        metrics = select(result["layers"], spec["per_layer"], "per-layer")
    else:
        metrics = select(result["metrics"], spec["end_to_end"], "end-to-end")
        os.makedirs(cache_dir, exist_ok=True)
        with open(cache_file, "w") as f:
            json.dump({"metrics": result["metrics"]}, f)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
