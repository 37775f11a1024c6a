#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench/main.exe with dune,
then runs it with the same arguments plus the machine's CPU count; the last
line of its standard output is the JSON result. Exits non-zero without a
result when the sources or the OCaml toolchain are missing, the build
fails, or a check inside the run fails.
"""
import argparse
import glob
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pmake64-kill", "ocean16-write", "serve16-kill", "fuzz-batch")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
SCRATCH = ".perfbench_tmp"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    opam = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return opam[-1] if opam else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a full source tree")
    dune = find_dune()
    if dune is None:
        fail("dune not found")
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    build = subprocess.run(
        [dune, "build", "--root", ".", "perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0:
        fail("build failed")
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--nproc", str(len(os.sched_getaffinity(0))), "--tmp", SCRATCH],
            env=env, timeout=175)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
