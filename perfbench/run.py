#!/usr/bin/env python3
"""Build and run the flowtune control-plane benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload loopback_closed --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (the flowtune sources
under src/ plus the benchmark program in perfbench/src) into the build directory:
$CARGO_TARGET_DIR when it is set, else .bench_build, both relative to the
checkout. Later calls rebuild incrementally. Build output goes to stderr;
the program's report goes to stdout, and its last line is the JSON result.
Exits non-zero without a result when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter must not reach stdout: its last line is the result.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=840) != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: no src/ next to perfbench/; "
                         "run from a full checkout\n")
        return 2
    bdir = build_dir()
    if not build(bdir):
        return 1
    exe = os.path.join(bdir, "perfbench")
    args = sys.argv[1:]
    if "--trace-out" not in args:
        args += ["--trace-out", os.path.join(bdir, "traces")]
    sys.stdout.flush()
    proc = subprocess.run([exe] + args, cwd=ROOT, timeout=170)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
