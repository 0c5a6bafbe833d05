#!/usr/bin/env python3
"""Build and run the gaudisim benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-repro --seed 1 --seconds 30 --trace 0

Workloads: paper-repro, serve-ladder, cluster-longctx (see BENCHMARK.json for
why each was chosen).  The gaudibench binary is built from source with CMake into
$CARGO_TARGET_DIR (default: .bench_build) on first use; later runs only
re-check that the build is up to date.  All build output goes to stderr, so
the last line of stdout is always the benchmark's JSON result.  Any further
arguments are passed to the binary unchanged (for example `--passes N`,
which replaces the time budget by a fixed pass count).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "gaudibench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "gaudibench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    # Inherited simulator switches would change what is measured (memo
    # replays, fault injection, validation); the binary pins them too.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GAUDI_")}
    return subprocess.run([binary, "--out-dir", build_dir] + sys.argv[1:],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
