#!/usr/bin/env python3
"""Build and run one workload of the OFMF benchmark.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload poll_read --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the OFMF
libraries from src/) into .bench_build/; later runs rebuild incrementally.
Build output goes to stderr. The benchmark binary's report goes to stdout,
and its last line is the JSON result. The exit code is the binary's: 0 only
when every operation succeeded and every output check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("poll_read", "compose_churn", "federated_read")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(out):
    """Configures (once) and builds the benchmark binary; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "ofmf_bench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("benchmark build failed", file=sys.stderr)
        return 2
    command = [
        os.path.join(out, "ofmf_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--source-id", source_id(),
        "--work-dir", os.path.join(out, "work"),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
