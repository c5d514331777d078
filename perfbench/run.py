#!/usr/bin/env python3
"""Build and run the GDN benchmark from the root of a checkout.

    python3 perfbench/run.py --workload small_cached --seed 1 --seconds 10 --trace 0

The Go build cache, the benchmark binary, each run's state directory
and the span files of traced runs all stay under .bench_build/ in the
current directory. Exit status and output are the benchmark's; a failed
build exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    build = os.path.join(os.getcwd(), ".bench_build")
    src = os.path.dirname(os.path.abspath(__file__))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        # The go command keeps telemetry counters under the user config
        # directory; point it inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTMPDIR=tmp,
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
