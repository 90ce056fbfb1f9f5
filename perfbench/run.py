#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload upload|churn|mine --seed N \
        --seconds S --trace 0|1

The first run configures and builds perfbench/ (and the ppdm libraries
from the checkout's sources) in Release mode under the build directory,
`$CARGO_TARGET_DIR` if set, else `.bench_build`; later runs only rebuild
what changed. Build output goes to stderr. The benchmark's own output,
ending in one JSON line, goes to stdout. The host fingerprint's git sha
is read here, at run time (`unknown` outside a git checkout). Exits
non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(root):
    binary = os.path.join(root, "perfbench", "perfbench")
    cmake_dir = os.path.join(root, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    if not os.path.exists(binary):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j2"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return binary


def git_sha():
    """HEAD of the git checkout this benchmark sits in, else "unknown"."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=HERE,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return "unknown"
    # A checkout that is not a repository may sit inside another one.
    if os.path.realpath(lines[0]) != os.path.realpath(os.path.dirname(HERE)):
        return "unknown"
    return lines[1]


def main(argv):
    root = build_dir()
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    out_dir = os.path.join(root, "out")
    args = list(argv)
    if "--out-dir" not in args:
        args += ["--out-dir", out_dir]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
