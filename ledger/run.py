#!/usr/bin/env python3
"""Builds the ledger benchmark from source and runs one workload.

Run from the repository root:

    python3 ledger/run.py --workload fig2-flat --seed 42 --seconds 10 --trace 0

The build (CMake, Release) goes to $CARGO_TARGET_DIR/ledger, or to
.bench_build/ledger when the variable is unset; scratch files (the
trace-roundtrip trace, the serve-stream socket) go to its tmp/
subdirectory.  Build output goes to stderr, so the benchmark's last
stdout line is its JSON result.  Exits non-zero, without a result, when
the sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("ledger: the rats sources are missing next to " + HERE)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("ledger: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", build_dir, "--target", "ledger", "-j", jobs]
    if subprocess.call(command, stdout=sys.stderr) != 0:
        sys.exit("ledger: build failed")
    return os.path.join(build_dir, "ledger")


def main():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(base, "ledger"))
    binary = build(build_dir)
    command = [
        binary,
        "--refs",
        os.path.join(HERE, "references.txt"),
        "--tmp",
        os.path.join(build_dir, "tmp"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(subprocess.call(command))


if __name__ == "__main__":
    main()
