#!/usr/bin/env python3
"""Build and run the ixtune end-to-end benchmark.

    python3 perfbench/run.py --workload mcts-paper|greedy-sweep|daemon-open \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark package
(perfbench/Cargo.toml) and the ixtuned daemon in release mode into
$CARGO_TARGET_DIR (default .bench_build), runs one measurement, and prints
its report; the last line of standard output is the JSON result. Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mcts-paper", "greedy-sweep", "daemon-open")
# The run itself must end well inside three minutes.
RUN_TIMEOUT_S = 170
# Source trees whose content the digest covers.
SOURCE_DIRS = ("crates", "src", "vendor", "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed: cargo " + " ".join(args))


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def source_digest(target):
    """SHA-256 over the paths and contents of the source trees, so a run
    names the code it measured even where git is absent."""
    h = hashlib.sha256()
    skip = {os.path.realpath(target), os.path.realpath(os.path.join(ROOT, "target"))}
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if os.path.realpath(os.path.join(dirpath, d)) not in skip)
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    a = p.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail("the repository's crates are missing; run from a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    cargo(["build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")], target)
    cargo(["build", "--release", "--offline", "--quiet",
           "-p", "ixtune-service", "--bin", "ixtuned"], target)

    print(f"git_rev {git_rev()}")
    print(f"source_sha256 {source_digest(target)}")
    sys.stdout.flush()

    run_dir = os.path.join(target, "perfbench-run", f"{a.workload}-{a.seed}-{os.getpid()}")
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--ixtuned", os.path.join(target, "release", "ixtuned"),
           "--run-dir", run_dir]
    # A session of its own, so a timeout takes down the daemon too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)

    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"run exited with {proc.returncode}")
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        fail("the run printed no result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
