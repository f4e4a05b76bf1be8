#!/usr/bin/env python3
"""Builds and runs the out-of-process load benchmark.

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds manirank_serve and the load
generator (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. Build output
goes to stderr; the last line of stdout is the JSON result. The workloads
and metrics are described in BENCHMARK.json and perfbench/LAYERS.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys


def source_digest(root):
    """Content hash of the server sources: the checkout need not be a git
    repository, so this identifies the code under test."""
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(root, base)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(
                os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(root, "src")):
        print("perfbench: run from the repository root (no CMakeLists.txt/src here)",
              file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    quiet = {"stdout": sys.stderr}
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", bench, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", build, "-j", jobs, "--target",
                    "manirank_load", "manirank_serve"], check=True, **quiet)

    command = [
        os.path.join(build, "manirank_load"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--serve-bin", os.path.join(build, "manirank", "manirank_serve"),
        "--work-dir", os.path.join(build, "work"),
        "--commit", source_digest(root),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
