#!/usr/bin/env python3
"""End-to-end benchmark of libiqs: builds the benchmark from source, runs one
workload, and passes its output through.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_range --seed 1 --seconds 30 --trace 0

Workloads: serve_range, direct_batch, churn_log (see perfbench/src/*.cc).
--trace 0 prints the end-to-end metrics; --trace 1 is a separate run that
prints the per-layer metrics and writes its spans, as Chrome trace-event
JSON, under <build dir>/traces/. The last line of standard output is the
JSON result; the exit code is nonzero if the build fails or any output
check fails.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
as a Release build of src/ plus perfbench/src/, with its own CMake project in
perfbench/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def source_hash():
    """Hash of the sources the benchmark was built from, for the meta block."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_range", "direct_batch", "churn_log"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-commit", git_commit(), "--source-hash", source_hash()]
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]

    child = subprocess.Popen(cmd)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
