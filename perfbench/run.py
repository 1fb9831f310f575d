#!/usr/bin/env python3
"""Builds and runs the sssj open-loop benchmark.

    python3 perfbench/run.py --workload dense-str --seed 7 --seconds 25 --trace 0

Run from the repository root. The benchmark is its own Cargo package
(perfbench/Cargo.toml) that depends on the workspace crates by path; it
is built in release mode into $CARGO_TARGET_DIR (default .bench_build).
The last line of standard output is the result JSON; build output goes
to standard error. With --trace 0 the program runs with SSSJ_TRACE=off.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-1 over the workspace sources, so a result names its code even
    where no git metadata exists."""
    h = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = [
                os.path.join(d, f)
                for d, _, fs in os.walk(path)
                for f in fs
                if f.endswith((".rs", ".toml"))
            ]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: no workspace crates next to perfbench/", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # Only this checkout's own metadata names the commit; a copy without
    # it must not report an enclosing repository's HEAD.
    has_git = os.path.exists(os.path.join(ROOT, ".git"))
    env["PERFBENCH_COMMIT"] = (
        command_output(["git", "rev-parse", "HEAD"]) if has_git else "unknown"
    )
    env["PERFBENCH_SOURCE"] = source_digest()
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    if args.trace == 0:
        env["SSSJ_TRACE"] = "off"
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
