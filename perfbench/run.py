#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go package beside this file).

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-cold --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark; see main.go for the flags. The
package is built from the checkout's sources into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go build cache, GOPATH,
HOME and temporary files kept inside it, so nothing outside the checkout is
read or written. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache")):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOENV="off", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode if built.returncode > 0 else 1)
    bench = subprocess.run([binary, "--workdir", build] + sys.argv[1:], cwd=root)
    sys.exit(bench.returncode if bench.returncode >= 0 else 1)


if __name__ == "__main__":
    main()
