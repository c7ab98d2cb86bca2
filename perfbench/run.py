#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 12 --trace 0

Run it from the repository root. The first run configures and builds the
benchmark (the repository libraries included) under .bench_build/, or under
$CARGO_TARGET_DIR when that is set; later runs only rebuild what changed.
The workload's scratch files live under the same directory and are removed
when the run ends. The last line of stdout is the result JSON (see
perfbench/README.md); build output and diagnostics go to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build(build_dir):
    """Configures once, then builds incrementally; False on any failure."""
    out = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=out, stderr=out,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    command = ["cmake", "--build", str(build_dir), "--target", "perfbench",
               "-j", "4"]
    return subprocess.run(command, stdout=out, stderr=out,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are " + ", ".join(sorted(result))
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if wanted != got:
        return "metrics differ from BENCHMARK.json: " + ", ".join(
            sorted(set(wanted.items()) ^ set(got.items())))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = build_root() / "perfbench"
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    workdir = build_root() / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir), "--git-sha", git_sha()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: workload timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print(f"run.py: perfbench exited with {done.returncode}",
              file=sys.stderr)
        return 1
    problem = check_result(lines[-1], args.trace == 1)
    if problem is not None:
        sys.stderr.write(done.stdout)
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
