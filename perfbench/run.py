#!/usr/bin/env python3
"""Build and run the live KV benchmark.

    python3 perfbench/run.py --workload hot-durable --seed 1 --seconds 15 --trace 0

Builds perfbench/kvbench (and the mcpaxos library it links, from this
checkout's sources) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench under the checkout root, then runs one workload.
The last stdout line is the JSON result; on a build failure, a failed
output check or a timeout nothing is printed on stdout and the exit code
is nonzero. Scratch data directories live under the build directory and
are removed when the run ends.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot-durable", "read-sharded", "coord-crash")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build kvbench; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "kvbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "kvbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(out_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    work = os.path.join(out_root, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    # A terminated runner must not leave the cluster process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(5))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(os.path.join(work, f"run-{proc.pid}"), ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode if proc.returncode > 0 else 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
