#!/usr/bin/env python3
"""Build the ehw serving stack and the benchmark from source, then run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload http_small_jobs --seed 1 --seconds 20 --trace 0

Workloads: http_small_jobs, service_paper_batch, http_stream_drift.  The
last line of standard output is the result as one JSON object.  Builds go
to $CARGO_TARGET_DIR (default: .bench_build); the traced run writes its
spans under .bench_trace/.  See perfbench/NOTES.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates", "ehw-server"))
    ):
        print("run.py: the ehw workspace is not next to perfbench/", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ehw-server", "--bin", "ehw-serve"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for build in builds:
        if subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(build), file=sys.stderr)
            return 2
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, env=env)
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "ehw-perfbench"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(release, "ehw-serve"),
        "--rustc-version", rustc.stdout.strip() or "unknown",
    ]
    return subprocess.run(bench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
