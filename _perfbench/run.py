#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 _perfbench/run.py --workload largeN --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see main.go). The build
uses only the local Go toolchain and keeps its cache and output under
$CARGO_TARGET_DIR (default .bench_build) in the current directory, so the
first run compiles everything and later runs reuse it.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
        PPROF_TMPDIR=os.path.join(out, "pprof"),
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    os.execve(binary, [binary, "--scratch", out] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
