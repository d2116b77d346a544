"""Build the end-to-end benchmark from source and run one workload.

Run from the root of a checkout:

    python3 bench/e2e/run.py --workload printf5-local --seed 42 --seconds 20 --trace 0

--trace 0 runs the untraced mode (end-to-end metrics), --trace 1 the traced
mode (per-layer metrics).  The last line of standard output is the result
JSON printed by bench/e2e/main.exe.  Build output goes to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "bench", "e2e", "main.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found on PATH")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of a full checkout (no dune-project or lib/ here)")
    # a termination request kills the child through subprocess.run's cleanup
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the shared dune cache lives outside the checkout: keep the build inside
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ".", "./bench/e2e/main.exe"],
        stdout=sys.stderr,
        env=env,
        timeout=880,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    cmd = [EXE, "run", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.trace:
        cmd.append("--traced")
    sys.exit(subprocess.run(cmd, timeout=175).returncode)


if __name__ == "__main__":
    main()
