#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot-dashboard --seed 1 --seconds 15 --trace 0

The Go program in this directory is built into $CARGO_TARGET_DIR (default
.bench_build) with its build cache there too, so nothing is written outside
the checkout. Every argument is passed through; the last stdout line is the
result object described in README.md.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The git commit when there is one, else a hash of the Go sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, GOCACHE=os.path.join(build, "gocache"), GOTOOLCHAIN="local",
               GOPROXY="off", GOWORK="off", GOFLAGS="")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--workdir", os.path.join(build, "work"), "--commit", revision()] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
