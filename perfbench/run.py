#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the GT-Pin flow.

    python3 perfbench/run.py --workload explore|validate|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The library and the benchmark are
built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; results and Chrome traces land in
<build dir>/results. The benchmark's last line of stdout is one JSON
object with correct, attempted, failed and metrics.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(target):
    """Configure once, then build @target; returns the build tree."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under " + os.path.join(ROOT, "src"), 2)
    tree = os.path.join(build_dir(), "perfbench")
    os.makedirs(tree, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", tree, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    with open(os.path.join(tree, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True)
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e), 3)
            if p.returncode != 0:
                sys.stderr.write(p.stdout[-4000:])
                fail("build step failed: " + " ".join(cmd), 3)
    return tree


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def child_env(tmp):
    # The library's defaults are what is measured: no GT_* override
    # reaches the benchmark, and spill files stay in the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GT_")}
    env["TMPDIR"] = tmp
    return env


def scratch_dir():
    return os.path.join(build_dir(), "tmp-%d" % os.getpid())


def run_in_scratch(cmd, timeout):
    tmp = scratch_dir()
    os.makedirs(tmp, exist_ok=True)
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(tmp),
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % timeout, 4)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["explore", "validate", "serve"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        tree = build("perfbench_tests")
        binary = os.path.join(tree, "perfbench_tests")
        if not os.path.isfile(binary):
            fail("perfbench_tests was not built (GTest not found)", 3)
        sys.exit(run_in_scratch([binary], 600))

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    tree = build("perfbench")
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(tree, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", results,
           "--scratch", scratch_dir(),
           "--git-rev", git_revision(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    sys.exit(run_in_scratch(cmd, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
