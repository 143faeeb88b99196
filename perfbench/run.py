#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of a qgov checkout:

    python3 perfbench/run.py --workload longlived-flat --seed 1 --seconds 10 --trace 0

The Go toolchain's cache, its temporary files and the binary all live
under .bench_build/ in the checkout, so nothing is read or written
outside it. Every argument is passed to the benchmark; the last line it
prints is the JSON result. A failed build or run exits non-zero without
printing a result.
"""

import os
import shutil
import subprocess
import sys

# The benchmark must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "go-cache"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config"), ("TMPDIR", "tmp")):
        env[key] = os.path.join(out, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=mod"
    env["GOWORK"] = "off"
    binary = os.path.join(out, "perfbench", "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
