#!/usr/bin/env python3
"""Interleaved A/B runs of two perfbench builds, with their spread.

Usage:
    ab_run.py --parent CMD --change CMD --workload NAME
              [--seeds 1,2] [--n 10] [--trace 0|1] [--out samples.json]

CMD is a perfbench binary, or any shell-quoted command whose standard
output ends with perfbench's JSON line, e.g.
"build-a/perfbench" or "python3 ../parent/perfbench/run.py". Each
run appends "--workload NAME --seed K --seconds S --trace T", where S
is the run_seconds of the repository's BENCHMARK.json (found next to
this script's directory, so the tool works from any directory).

The two commands run alternately, N pairs in all, cycling through
the seeds; every second pair (2, 4, ...) runs the change first so
slow drift on the host does not favour either side. For every metric
both sides report, the summary prints the parent and change medians,
their min/max and interquartile range, and how many pairs the change
won. A metric's direction ("better": lower or higher) comes from
BENCHMARK.json; metrics it does not name count lower as better.
"gain" marks a metric where the change won at least 90% of the pairs
and its median beats the parent's by more than the parent's IQR. No
metric is marked when the change failed a larger share of its
operations than the parent did.

Exit status: 0, or 1 when a run fails or reports correct = false.
Standard library only.
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "BENCHMARK.json")


def run_once(cmd, args):
    """Run one command; return its metrics and its attempted and failed
    operation counts from the final JSON line."""
    proc = subprocess.run(shlex.split(cmd) + args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("'%s' exited %d" % (cmd, proc.returncode))
    doc = json.loads(lines[-1])
    if not doc.get("correct", False):
        raise RuntimeError("'%s' reported correct = false" % cmd)
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    return metrics, doc["attempted"], doc["failed"]


def load_spec():
    """Run length and metric directions from BENCHMARK.json."""
    with open(SPEC) as f:
        spec = json.load(f)
    better = {m["name"]: m.get("better", "lower")
              for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    return spec["run_seconds"], better


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(samples, better, gains_allowed):
    """One row per metric present in every run of both sides."""
    names = [k for k in samples["parent"][0]
             if all(k in s for side in samples.values() for s in side)]
    rows = []
    for name in names:
        a = [s[name] for s in samples["parent"]]
        b = [s[name] for s in samples["change"]]
        lower = better.get(name, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        gap = statistics.median(a) - statistics.median(b)
        if not lower:
            gap = -gap
        gain = gains_allowed and wins >= 0.9 * len(a) and gap > iqr(a)
        rows.append((name, a, b, wins, gain))
    return rows


def main():
    ap = argparse.ArgumentParser(
        description="Interleaved A/B runs of two perfbench commands.")
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    opts = ap.parse_args()

    try:
        seconds, better = load_spec()
    except (OSError, ValueError, KeyError) as e:
        print("ab_run: cannot read %s: %s" % (os.path.normpath(SPEC), e),
              file=sys.stderr)
        return 1

    seeds = [int(s) for s in opts.seeds.split(",")]
    samples = {"parent": [], "change": []}
    ops = {"parent": [0, 0], "change": [0, 0]}  # attempted, failed
    for i in range(opts.n):
        seed = seeds[i % len(seeds)]
        args = ["--workload", opts.workload, "--seed", str(seed),
                "--seconds", "%g" % seconds, "--trace", str(opts.trace)]
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        try:
            for side in order:
                metrics, attempted, failed = run_once(getattr(opts, side),
                                                      args)
                samples[side].append(metrics)
                ops[side][0] += attempted
                ops[side][1] += failed
        except (RuntimeError, ValueError, KeyError) as e:
            print("ab_run: pair %d: %s" % (i + 1, e), file=sys.stderr)
            return 1
        print("ab_run: pair %d/%d done (seed %d, %s first)"
              % (i + 1, opts.n, seed, order[0]), file=sys.stderr)

    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(samples, f, indent=1)

    share = {side: (f / a if a else 0.0) for side, (a, f) in ops.items()}
    gains_allowed = share["change"] <= share["parent"]
    print("# ab_run: workload=%s pairs=%d seeds=%s seconds=%g"
          % (opts.workload, opts.n, opts.seeds, seconds))
    print("# failed: parent %d of %d, change %d of %d%s"
          % (ops["parent"][1], ops["parent"][0], ops["change"][1],
             ops["change"][0],
             "" if gains_allowed else
             " -- the change fails a larger share: no gain marked"))
    print("%-32s %12s %12s %8s %25s %25s %10s %10s %6s %4s"
          % ("metric", "parent_med", "change_med", "delta%",
             "parent_min..max", "change_min..max", "parent_iqr",
             "change_iqr", "wins", "gain"))
    for name, a, b, wins, gain in summarize(samples, better, gains_allowed):
        ma, mb = statistics.median(a), statistics.median(b)
        delta = 100.0 * (mb - ma) / ma if ma else 0.0
        print("%-32s %12.6g %12.6g %+8.1f %25s %25s %10.4g %10.4g %6s %4s"
              % (name, ma, mb, delta,
                 "%.4g..%.4g" % (min(a), max(a)),
                 "%.4g..%.4g" % (min(b), max(b)),
                 iqr(a), iqr(b), "%d/%d" % (wins, len(a)),
                 "yes" if gain else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
