#!/usr/bin/env python3
"""Build and run the controller benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper_mixed --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is the OCaml program perfbench/main.exe, built here with
dune from the checkout's own sources.  This wrapper builds it, runs it
with the given arguments, forwards its output (whose last line is the
JSON result) and exits with its exit code.  It exits non-zero without a
result when the checkout holds no DREAM sources to build.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_mixed", "wide_tcam", "degraded_ops")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, env, capture):
    """Run [cmd] to completion, killing it on timeout; return (code, output)."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.STDOUT if capture else None,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fault-seed", type=int)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a DREAM checkout: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    # Keep every build artefact inside the checkout's _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "@perfbench/selftest" if args.self_test else "perfbench/main.exe"
    code, out = run_child(
        [dune, "build", "--root", ".", "--display", "quiet", target],
        BUILD_TIMEOUT_S,
        env,
        capture=not args.self_test,
    )
    if code != 0:
        if out:
            sys.stderr.write(out)
        fail("build of %s failed" % target)
    if args.self_test:
        return

    cmd = [
        os.path.join("_build", "default", "perfbench", "main.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.fault_seed is not None:
        cmd += ["--fault-seed", str(args.fault_seed)]
    sys.stdout.flush()
    code, _ = run_child(cmd, RUN_TIMEOUT_S, env, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
