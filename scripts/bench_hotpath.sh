#!/usr/bin/env bash
# Quantifies the allocation-free query hot path (reusable sketch scratch +
# batched, prefetching flat-index probes) against the pre-overhaul
# allocating path (deque sketch kernel + single-key probes).
#
# Runs the BM_Hotpath* family of bench_micro in the Release build with
# repetitions, keeps the median of each series, and writes a summary JSON
# (default: BENCH_hotpath.json at the repo root) with the derived speedups
# and a host block (CPU count and model, compiler, git SHA).
# Exits non-zero if the end-to-end map_segment speedup drops below 1.5x.
#
# Usage: scripts/bench_hotpath.sh [output.json]
#   JEM_BENCH_REPS     repetitions per benchmark (default 5)
#   JEM_BENCH_MIN_TIME min seconds per repetition (default 0.5)
# Builds in its own directory (build-bench), apart from Tier-1's build/.
set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${JEM_BENCH_REPS:-5}"
MIN_TIME="${JEM_BENCH_MIN_TIME:-0.5}"
OUT="${1:-BENCH_hotpath.json}"
RAW="build-bench/bench_hotpath_raw.json"

cmake -B build-bench -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench --target bench_micro jem_map

# Metrics snapshot of a demo run (docs/observability.md): embedded in the
# summary so a regression report carries its own hot-path counters
# (sketch hit rate, probe lengths, candidates per segment).
METRICS="build-bench/bench_hotpath_metrics.json"
./build-bench/examples/jem_map --demo --metrics "$METRICS" \
  --output /dev/null >/dev/null

./build-bench/bench/bench_micro \
  --benchmark_filter='^BM_Hotpath' \
  --benchmark_repetitions="$REPS" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="$RAW" --benchmark_out_format=json

python3 - "$RAW" "$OUT" "$REPS" "$METRICS" <<'PY'
import json
import os
import re
import subprocess
import sys

raw_path, out_path, reps = sys.argv[1], sys.argv[2], int(sys.argv[3])
raw = json.load(open(raw_path))
metrics = json.load(open(sys.argv[4]))

medians = {}
for bench in raw["benchmarks"]:
    if bench.get("aggregate_name") != "median":
        continue
    name = bench["run_name"]
    medians[name] = {
        "cpu_time_ns": bench["cpu_time"],
        "real_time_ns": bench["real_time"],
    }
    if "items_per_second" in bench:
        medians[name]["items_per_second"] = bench["items_per_second"]

def speedup(baseline, fast):
    return medians[baseline]["cpu_time_ns"] / medians[fast]["cpu_time_ns"]

def run(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"

def compiler():
    cxx = "c++"
    try:
        with open("build-bench/CMakeCache.txt") as f:
            m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.+)$", f.read(), re.M)
            if m:
                cxx = m.group(1)
    except OSError:
        pass
    return run(cxx, "--version").splitlines()[0]

sha = run("git", "rev-parse", "HEAD")
if run("git", "status", "--porcelain", "--untracked-files=no") not in ("", "unknown"):
    sha += "-dirty"
host = {
    "cpus": os.cpu_count(),
    "cpu_model": cpu_model(),
    "compiler": compiler(),
    "git_sha": sha,
}

speedups = {
    # Segment sketching: pre-overhaul deque kernel vs reusable scratch.
    "sketch_scratch_vs_reference":
        speedup("BM_HotpathSketchReference", "BM_HotpathSketchScratch"),
    # Segment sketching: current allocating API vs reusable scratch.
    "sketch_scratch_vs_alloc":
        speedup("BM_HotpathSketchAlloc", "BM_HotpathSketchScratch"),
    # End-to-end query mapping: pre-overhaul alloc + single-key probe path
    # vs hot path.
    "map_segment_hot_vs_reference":
        speedup("BM_HotpathMapSegmentReference", "BM_HotpathMapSegment"),
}

summary = {
    "generated_by": "scripts/bench_hotpath.sh",
    "benchmark_binary": "build-bench/bench/bench_micro",
    "host": host,
    "repetitions": reps,
    "aggregate": "median",
    "benchmarks": medians,
    "speedups": {k: round(v, 3) for k, v in speedups.items()},
    "engine_segments_per_second": round(
        medians["BM_HotpathEngineSegmentsPerSec"]["items_per_second"], 1),
    # Demo-run metrics snapshot (docs/observability.md): the hot-path
    # counters that explain a throughput shift (hit rate, probe lengths).
    "metrics": metrics["metrics"],
    "acceptance": {
        "criterion": "map_segment_hot_vs_reference >= 1.5",
        "pass": speedups["map_segment_hot_vs_reference"] >= 1.5,
    },
}

with open(out_path, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")

print(json.dumps(summary["speedups"], indent=2))
ok = summary["acceptance"]["pass"]
print("hot-path acceptance:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
PY
