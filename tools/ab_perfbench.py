#!/usr/bin/env python3
"""A/B the end-to-end benchmark: a parent revision against this checkout.

    python3 tools/ab_perfbench.py --parent REV --pairs 10 \\
        --workload explore --seed 7 --seconds 20 --trace 0

Exports REV with `git archive` into a scratch directory, then runs
`perfbench/run.py` with identical arguments alternately on both
sides: pair i runs the parent first when i is even and this checkout
first when i is odd. Each side builds into its own `.bench_build`, so
a build never lands inside a timed run of the other side.

Per workload and metric it prints each side's median and quartiles,
how many pairs the change won, and whether the gain rule holds: the
change wins at least 90% of the pairs AND its median beats the
parent's by more than the parent's interquartile range. It also
flags any end-to-end metric worse than the parent's median by more
than its BENCHMARK.json bound, any run that is not correct, and any
sim_digest that differs between the sides.

`--json PATH` writes every run's metrics and the summary.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print("ab_perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def export_parent(rev, scratch):
    """git archive @rev into @scratch/<sha>; reused if already there."""
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                        rev + "^{commit}"], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        fail("unknown revision %r: %s" % (rev, p.stderr.strip()))
    sha = p.stdout.strip()
    dest = os.path.join(scratch, "parent-" + sha[:12])
    if os.path.isfile(os.path.join(dest, "perfbench", "run.py")):
        return dest, sha
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        shutil.rmtree(dest, ignore_errors=True)
        fail("git archive of %s failed" % sha)
    return dest, sha


def run_side(checkout, workload, args):
    """One perfbench run in @checkout; returns its parsed result."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(checkout, ".bench_build")
    p = subprocess.run(cmd, cwd=checkout, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(p.stderr[-4000:])
        fail("perfbench failed in %s (exit %d)" % (checkout, p.returncode))
    result = json.loads(lines[-1])
    digest = re.search(r"^sim_digest (\S+)$", p.stdout, re.MULTILINE)
    result["sim_digest"] = digest.group(1) if digest else None
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(metric, better, bound, parent, change):
    """Median/IQR of both sides, wins, the gain rule and the bound."""
    pairs = len(parent)
    lower = better == "lower"
    wins = sum(1 for a, b in zip(parent, change)
               if (b < a if lower else b > a))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = (pmed - cmed) if lower else (cmed - pmed)
    gain = wins >= math.ceil(0.9 * pairs) and gap > (pq3 - pq1)
    worse = None
    if bound is not None and pmed != 0:
        rel = (cmed - pmed) / abs(pmed)
        worse = (rel if lower else -rel) > bound
    return {"metric": metric, "better": better, "bound": bound,
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "delta_pct": 100.0 * (cmed - pmed) / pmed if pmed else None,
            "wins": wins, "pairs": pairs, "gain_rule": gain,
            "beyond_bound": worse}


def fmt(v):
    if v is None:
        return "-"
    if v != 0 and (abs(v) >= 1e5 or abs(v) < 1e-3):
        return "%.4g" % v
    return "%.4f" % v if abs(v) < 10 else "%.2f" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD",
                    help="revision to compare against (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=["explore", "validate", "serve"],
                    help="repeatable; default: every workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scratch", default=os.path.join(
        tempfile.gettempdir(), "ab_perfbench"),
        help="where the parent is exported (reused across calls)")
    ap.add_argument("--json", help="write runs and summary here")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # Untraced runs report the end-to-end metrics, traced runs the
    # per-layer ones; rows for metrics the runs lack are skipped.
    metrics = [(m["name"], m["better"], m["bound"])
               for m in bench["end_to_end"]]
    metrics += [(m["name"], m["better"], None)
                for m in bench["per_layer"]]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    parent_dir, sha = export_parent(args.parent, args.scratch)
    sides = {"parent": parent_dir, "change": ROOT}
    print("parent %s (%s) vs change %s; %d pairs, seed %d, %gs, trace %d"
          % (args.parent, sha[:12], ROOT, args.pairs, args.seed,
             args.seconds, args.trace), flush=True)

    report = {"parent_rev": sha, "seed": args.seed, "pairs": args.pairs,
              "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    status = 0
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
            for side in order:
                runs[side].append(run_side(sides[side], workload, args))
            print("  %s pair %d/%d done (%s first)"
                  % (workload, i + 1, args.pairs, order[0]), flush=True)

        rows = []
        for name, better, bound in metrics:
            values = {s: [r["metrics"].get(name, {}).get("value")
                          for r in runs[s]] for s in runs}
            if any(v is None for s in values for v in values[s]):
                continue
            rows.append(summarize(name, better, bound,
                                  values["parent"], values["change"]))
        correct = all(r["correct"] for s in runs for r in runs[s])
        digests = {s: sorted({r["sim_digest"] for r in runs[s]})
                   for s in runs}
        failed = {s: sum(r["failed"] for r in runs[s]) /
                  max(1, sum(r["attempted"] for r in runs[s]))
                  for s in runs}

        print("\n%s: correct=%s, sim_digest parent=%s change=%s%s, "
              "failed-op share parent=%.4f change=%.4f"
              % (workload, correct, ",".join(map(str, digests["parent"])),
                 ",".join(map(str, digests["change"])),
                 "" if digests["parent"] == digests["change"]
                 else "  DIGESTS DIFFER", failed["parent"],
                 failed["change"]))
        print("  %-28s %28s %28s %8s %6s %5s %6s"
              % ("metric", "parent median [q1, q3]",
                 "change median [q1, q3]", "delta%", "wins", "gain",
                 "bound"))
        for r in rows:
            p, c = r["parent"], r["change"]
            bound = "-" if r["beyond_bound"] is None else \
                    ("WORSE" if r["beyond_bound"] else "ok")
            print("  %-28s %28s %28s %8s %6s %5s %6s"
                  % (r["metric"],
                     "%s [%s, %s]" % (fmt(p["median"]), fmt(p["q1"]),
                                      fmt(p["q3"])),
                     "%s [%s, %s]" % (fmt(c["median"]), fmt(c["q1"]),
                                      fmt(c["q3"])),
                     "-" if r["delta_pct"] is None
                     else "%+.1f" % r["delta_pct"],
                     "%d/%d" % (r["wins"], r["pairs"]),
                     "yes" if r["gain_rule"] else "no", bound))
        if not correct or digests["parent"] != digests["change"] or \
                any(r["beyond_bound"] for r in rows) or \
                failed["change"] > failed["parent"]:
            status = 1
        report["workloads"][workload] = {
            "runs": runs, "summary": rows, "correct": correct,
            "sim_digest": digests, "failed_share": failed}

    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(status)


if __name__ == "__main__":
    main()
