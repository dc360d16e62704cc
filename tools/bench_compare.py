#!/usr/bin/env python3
"""Compare a fresh benchmark JSON against its committed baseline.

Usage:
    bench_compare.py BASELINE FRESH [--tolerance=0.25]

The comparison knows three classes of field and walks the two
documents together (stdlib json only):

  exact     integers and booleans — deterministic simulation counts
            (design points, metric counters, per-phase call counts).
            Any difference is a regression or an intentional change
            that must come with a baseline update. Keys named in
            EXACT_KEYS are pinned to this class whatever their type
            or suffix — recovery-drill outcomes (quarantined points,
            worker crash counts) must never be loosened into a
            ratio or skipped by a rename that picks up an ignored
            suffix.

  ratio     floats named "speedup" or ending in "_rate" — quality
            ratios that are meaningful across machines. Checked
            one-sided: the fresh value may exceed the baseline freely
            but must not fall below baseline * (1 - tolerance).
            A zero baseline is skipped (nothing to regress from).

  ignored   absolute wall-clock fields ("*_seconds", "*_ms", "*_us"),
            "hardware_concurrency", and free-text fields ("note") —
            machine-dependent by nature. Other strings (benchmark and
            workload names) still compare exactly so a swapped file
            is caught.

A key present in the baseline but missing from the fresh document is
an error unless it is ignored-class; extra ignored-class keys in the
fresh document are fine. Exit status 0 when every checked field
passes, 1 with one line per failure otherwise.
"""

import json
import sys

# "reps" is the best-of-N sampling depth: it describes the
# methodology of one run, not the result, so like wall-clock it
# never gates.
IGNORED_KEYS = ("hardware_concurrency", "note", "reps")
IGNORED_SUFFIXES = ("_seconds", "_ms", "_us")
RATIO_SUFFIXES = ("_rate",)
RATIO_KEYS = ("speedup", "warm_speedup", "strict_speedup",
              "speedup_vs_prior_batched")
# Fields that must match the baseline exactly no matter what their
# type or name suffix suggests: the supervisor recovery drill's
# outcome counts are correctness claims, not performance numbers.
EXACT_KEYS = (
    "quarantined_points",
    "worker_launches",
    "worker_crashes",
    "shards_resolved",
    "shard_retries",
    "shard_bisections",
    "points_priced",
    "healthy_points_identical",
    "design_points",
    # The cross-process telemetry snapshot: supervised shard/frame
    # accounting and the rollup-parity verdict are correctness
    # claims ("every worker counter streamed back and merged once"),
    # so they may never be loosened or silently dropped.
    "supervised_points",
    "supervised_shards",
    "supervised_worker_launches",
    "telemetry_metric_frames",
    "telemetry_phase_frames",
    "telemetry_flight_frames",
    "worker_namespace_counters",
    "rollup_counters_compared",
    "rollups_match_inprocess",
    # The sweep-service drill: every response byte-identical and the
    # warm re-sweep resolving entirely from the shared result store
    # are the service's contract (docs/service.md), not performance
    # numbers — pinned so no rename or suffix ever loosens them.
    "requests",
    "points_per_response",
    "responses_identical",
    "cold_store_appends",
    "warm_store_hits",
    "warm_store_misses",
    # L1 tag words read by the forest walks of the reference sweep: a
    # deterministic work counter, so a change to the walk's cost shows
    # as an exact diff instead of hiding in wall-clock noise.
    "cache.l1.tag_probes",
)


def is_exact(key):
    return key in EXACT_KEYS


def is_ignored(key):
    return not is_exact(key) and (key in IGNORED_KEYS or
                                  key.endswith(IGNORED_SUFFIXES))


def is_ratio(key):
    return not is_exact(key) and (key in RATIO_KEYS or
                                  key.endswith(RATIO_SUFFIXES))


def compare(base, fresh, tolerance, path, failures, counts, key=""):
    """Walk baseline-led; append failure strings, tally field classes.
    KEY is the field's own name, which may contain dots (metric names
    such as "cache.l1.tag_probes" do)."""
    if isinstance(base, dict):
        if not isinstance(fresh, dict):
            failures.append(f"{path}: object in baseline, "
                            f"{type(fresh).__name__} in fresh run")
            return
        for key, bval in sorted(base.items()):
            sub = f"{path}.{key}" if path else key
            if is_ignored(key):
                counts["ignored"] += 1
                continue
            if key not in fresh:
                if isinstance(bval, str):
                    counts["ignored"] += 1
                else:
                    failures.append(f"{sub}: missing from fresh run")
                continue
            compare(bval, fresh[key], tolerance, sub, failures, counts,
                    key)
        for key in sorted(set(fresh) - set(base)):
            sub = f"{path}.{key}" if path else key
            if is_ignored(key) or isinstance(fresh[key], str):
                counts["ignored"] += 1
            else:
                failures.append(f"{sub}: not in the baseline "
                                "(new field? update the baseline)")
        return

    if isinstance(base, bool) or isinstance(base, str):
        counts["exact"] += 1
        if base != fresh:
            failures.append(f"{path}: '{fresh}' != baseline '{base}'")
    elif isinstance(base, int) and isinstance(fresh, int):
        counts["exact"] += 1
        if base != fresh:
            failures.append(f"{path}: {fresh} != baseline {base} "
                            f"({fresh - base:+d})")
    elif isinstance(base, (int, float)) and isinstance(fresh, (int, float)):
        if is_exact(key):
            counts["exact"] += 1
            if base != fresh:
                failures.append(f"{path}: {fresh} != baseline {base} "
                                "(exact-match field)")
        elif not is_ratio(key):
            # A float that is neither a ratio nor wall-clock: compare
            # symmetrically so schema drift does not slip through.
            counts["exact"] += 1
            limit = tolerance * max(abs(base), 1e-12)
            if abs(fresh - base) > limit:
                failures.append(f"{path}: {fresh} deviates from "
                                f"baseline {base} by more than "
                                f"{tolerance:.0%}")
        elif base == 0:
            counts["ignored"] += 1
        else:
            counts["ratio"] += 1
            floor = base * (1.0 - tolerance)
            if fresh < floor:
                failures.append(
                    f"{path}: {fresh:.3f} regressed below "
                    f"{floor:.3f} (baseline {base:.3f}, "
                    f"tolerance {tolerance:.0%})")
    else:
        failures.append(f"{path}: baseline {type(base).__name__} vs "
                        f"fresh {type(fresh).__name__}")


def main(argv):
    tolerance = 0.25
    files = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            files.append(arg)
    if len(files) != 2:
        print("usage: bench_compare.py BASELINE FRESH "
              "[--tolerance=0.25]", file=sys.stderr)
        return 2

    docs = []
    for path in files:
        try:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_compare: {path}: {e}", file=sys.stderr)
            return 2

    failures = []
    counts = {"exact": 0, "ratio": 0, "ignored": 0}
    compare(docs[0], docs[1], tolerance, "", failures, counts)
    if failures:
        for line in failures:
            print(f"bench_compare: {files[0]}: {line}", file=sys.stderr)
        print(f"bench_compare: FAIL ({len(failures)} field(s))",
              file=sys.stderr)
        return 1
    print(f"bench_compare: {files[0]}: OK ({counts['exact']} exact, "
          f"{counts['ratio']} ratio-gated, {counts['ignored']} "
          "machine-dependent fields skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
