#!/usr/bin/env bash
# Measures the always-on mapping service (docs/serve.md): request latency
# percentiles and throughput of a live MappingServer under concurrent load,
# via bench/bench_serve. Writes a summary JSON (default: BENCH_serve.json at
# the repo root) with p50/p99 latency, req/s and the host it ran on.
#
# Usage: scripts/bench_serve.sh [output.json]
#   JEM_BENCH_SERVE_REQUESTS total requests       (default 2000)
#   JEM_BENCH_SERVE_CLIENTS  concurrent clients   (default 8)
#   JEM_BENCH_SERVE_WORKERS  server workers       (default 4)
#   JEM_BENCH_SERVE_SWEEP    open-loop rates rps  (default 100,300,600)
#   JEM_BENCH_SERVE_PER_POINT requests per point  (default 300)
# Builds in its own directory (build-bench), apart from Tier-1's build/.
set -euo pipefail
cd "$(dirname "$0")/.."

REQUESTS="${JEM_BENCH_SERVE_REQUESTS:-2000}"
CLIENTS="${JEM_BENCH_SERVE_CLIENTS:-8}"
WORKERS="${JEM_BENCH_SERVE_WORKERS:-4}"
SWEEP="${JEM_BENCH_SERVE_SWEEP:-100,300,600}"
PER_POINT="${JEM_BENCH_SERVE_PER_POINT:-300}"
OUT="${1:-BENCH_serve.json}"

cmake -B build-bench -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench --target bench_serve jem

# Cold run (cache off): every request pays the map kernel.
./build-bench/bench/bench_serve --requests "$REQUESTS" --clients "$CLIENTS" \
  --workers "$WORKERS" --cache 0 --out "$OUT"

# Warm run (default cache): repeated segments come from the LRU. Printed for
# comparison; the JSON keeps the cold numbers, which are the honest ones.
./build-bench/bench/bench_serve --requests "$REQUESTS" --clients "$CLIENTS" \
  --workers "$WORKERS"

# Offered-load curve (ROADMAP item 4c): a live demo server driven by
# `jem loadgen` in open-loop mode at each swept rate, Zipf-skewed queries.
# The resulting latency/shed curve is spliced into the summary JSON as
# "load_curve".
DIR=$(mktemp -d /tmp/jem_bench_loadgen.XXXXXX)
trap 'rm -rf "$DIR"' EXIT
./build-bench/examples/jem serve --demo --port 0 --port-file "$DIR/port" \
  --workers "$WORKERS" &
SERVE_PID=$!
for _ in $(seq 1 200); do
  [[ -s "$DIR/port" ]] && break
  sleep 0.05
done
[[ -s "$DIR/port" ]] || { echo "error: jem serve never published its port" >&2
  kill "$SERVE_PID" 2>/dev/null || true; exit 1; }
./build-bench/examples/jem loadgen --demo --port "$(cat "$DIR/port")" \
  --mode open --sweep "$SWEEP" --requests "$PER_POINT" \
  --clients "$CLIENTS" --out "$DIR/curve.json"

# Snapshot the server's own windowed SLO view (docs/observability.md) while
# the loadgen traffic is still inside the 10s/1m windows; it lands in the
# summary JSON as "slo_window" next to the client-side percentiles.
./build-bench/examples/jem probe --demo --port "$(cat "$DIR/port")" \
  --requests 1 --clients 1 --healthz-out "$DIR/healthz.json"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
# /healthz is a single JSON line whose last member is "slo":{...}; strip the
# prefix and the outer brace to keep just the windowed object.
SLO=$(sed -e 's/.*"slo"://' -e 's/}$//' "$DIR/healthz.json")

# The host block scripts/bench_hotpath.sh writes (CPU count and model,
# compiler, git SHA), so serve numbers are compared on one recorded host.
HOST=$(python3 - <<'PY'
import json, os, re, subprocess

def run(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"

model = "unknown"
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
except OSError:
    pass
cxx = "c++"
try:
    with open("build-bench/CMakeCache.txt") as f:
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.+)$", f.read(), re.M)
        if m:
            cxx = m.group(1)
except OSError:
    pass
sha = run("git", "rev-parse", "HEAD")
if run("git", "status", "--porcelain", "--untracked-files=no") not in ("", "unknown"):
    sha += "-dirty"
print(json.dumps({"cpus": os.cpu_count(), "cpu_model": model,
                  "compiler": run(cxx, "--version").splitlines()[0],
                  "git_sha": sha}))
PY
)

# Splice the curve into the summary (no jq in the image: drop the closing
# brace, append the new key, close again).
{
  sed '$d' "$OUT"
  printf '  ,"host": %s\n' "$HOST"
  printf '  ,"load_curve": '
  cat "$DIR/curve.json"
  printf '  ,"slo_window": %s\n' "$SLO"
  printf '}\n'
} > "$OUT.tmp"
mv "$OUT.tmp" "$OUT"

echo "bench_serve: wrote $OUT (with host, load_curve and slo_window)"
