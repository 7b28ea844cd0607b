#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload covert --seed 1 --seconds 10 --trace 0

Every argument is passed to the binary (see perfbench/main.go). The
build writes only under .bench_build/ in the current directory: the Go
build cache, the binary and the benchmark's scratch files all live
there. The exit status is the binary's, or 1 when the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench-bin")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOTOOLCHAIN": "local",
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
    })
    os.makedirs(build, exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
