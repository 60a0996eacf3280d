#!/usr/bin/env python3
"""Build the benchmark and petitd from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-cold --seed 1 --seconds 25 --trace 0

Workloads: analyze-cold, serve-mixed, vm-kernels.  The benchmark's
tables go to standard output; its last line is one JSON object
{correct, attempted, failed, metrics}.  The exit status is non-zero when
the build fails, a correctness check fails, or the run overruns.
Spans of a traced run (--trace 1) and the reference stamps of
vm-kernels are written under .perfbench/ in the checkout.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("analyze-cold", "serve-mixed", "vm-kernels")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of a full checkout (no dune-project/lib here)")

    # Keep every build product inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "./perfbench/main.exe", "./bin/petitd.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if build.returncode != 0:
        sys.exit(f"run.py: build failed with status {build.returncode}")

    out_dir = ".perfbench"
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join("_build", "default", "perfbench", "main.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--petitd", os.path.join("_build", "default", "bin", "petitd.exe"),
        "--out", out_dir,
    ]
    sys.stdout.flush()
    # The benchmark leads its own process group, with the petitd it
    # starts; whatever way it ends, nothing of the group outlives us.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        status = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        status = None
    reap_group(proc)
    if status is None:
        sys.exit(f"run.py: {args.workload} overran {RUN_TIMEOUT_S} s")
    sys.exit(status)


def reap_group(proc):
    """Kill what is left of the benchmark's process group and wait until
    it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
