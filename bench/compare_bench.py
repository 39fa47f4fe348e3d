#!/usr/bin/env python3
"""PR-over-PR trend report for the BENCH_*.json bench mirrors.

Every bench binary writes a machine-readable BENCH_<binary>.json (see
bench/bench_util.h). This script diffs two directories of those files —
typically a committed baseline (bench/baselines/) against a fresh run —
and prints per-metric deltas so perf regressions and wins are visible in
CI logs without plotting anything.

Usage:
  compare_bench.py --baseline bench/baselines --current build [--threshold 5]
  compare_bench.py --baseline bench/baselines --current build --update-baselines

Exit code is always 0 (the report is informational / non-blocking); pass
--strict to exit 1 when any timing-like metric regresses by more than
--threshold percent. --update-baselines prints the report, then copies the
current BENCH_*.json files over the baseline directory — run it (and commit
the result) when a PR intentionally moves a metric.
"""

import argparse
import json
import os
import shutil
import sys

# Metric-label substrings treated as "higher is better" when classifying a
# delta as improvement vs regression; everything else (seconds, bytes,
# edges, theta, ...) is "lower is better". Latency-style labels are listed
# explicitly and take precedence — a label like "serial.p99_ms" must stay
# lower-is-better even if a higher-is-better substring ever creeps into
# its prefix. Labels with no perf meaning (sizes of inputs like ".n" /
# ".m", machine descriptors) are reported but never classified.
LOWER_IS_BETTER = ("p50", "p90", "p99", "latency", "_ms")
HIGHER_IS_BETTER = ("per_sec", "speedup", "spread", "coverage", "fraction")
NEUTRAL = (".n", ".m", "num_sets", "total_nodes", "avg_in_run_len",
           "hardware_concurrency")


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    return {m["label"]: m["value"] for m in doc.get("metrics", [])}


def classify(label, old, new):
    if any(label.endswith(s) or s in label for s in NEUTRAL):
        return "·"
    if old == new:
        return "="
    if any(s in label for s in LOWER_IS_BETTER):
        better = new < old
    else:
        better = new > old if any(s in label for s in HIGHER_IS_BETTER) else new < old
    return "+" if better else "-"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory of baseline BENCH_*.json files")
    parser.add_argument("--current", required=True,
                        help="directory of freshly generated BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="percent change considered noteworthy")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on regressions beyond --threshold")
    parser.add_argument("--update-baselines", action="store_true",
                        help="after reporting, copy the current BENCH_*.json "
                             "over the baseline directory (commit the result "
                             "when a metric moved intentionally)")
    args = parser.parse_args()

    names = sorted(
        f for f in os.listdir(args.current)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not names:
        print(f"[compare_bench] no BENCH_*.json in {args.current!r}")
        return 0

    if not os.path.isdir(args.baseline):
        if args.update_baselines:
            os.makedirs(args.baseline, exist_ok=True)
        else:
            print(f"[compare_bench] no baseline directory {args.baseline!r}; "
                  "nothing to compare (first run?)")
            return 0

    regressions = 0
    for name in names:
        cur_path = os.path.join(args.current, name)
        base_path = os.path.join(args.baseline, name)
        print(f"\n== {name} ==")
        if not os.path.exists(base_path):
            print("   (new bench — no baseline)")
            for label, value in load_metrics(cur_path).items():
                print(f"   {label:45s} {value:>14.6g}")
            continue
        base = load_metrics(base_path)
        cur = load_metrics(cur_path)
        for label, value in cur.items():
            if label not in base:
                print(f" n {label:45s} {value:>14.6g}")
                continue
            old = base[label]
            pct = 0.0 if old == 0 else 100.0 * (value - old) / abs(old)
            mark = classify(label, old, value)
            flag = " <<<" if mark in "+-" and abs(pct) >= args.threshold else ""
            if mark == "-" and abs(pct) >= args.threshold:
                regressions += 1
            print(f" {mark} {label:45s} {old:>14.6g} -> {value:>14.6g} "
                  f"({pct:+6.1f}%){flag}")
        for label in sorted(set(base) - set(cur)):
            print(f" x {label:45s} (dropped)")

    print(f"\n[compare_bench] {regressions} regression(s) beyond "
          f"{args.threshold:.1f}%")

    if args.update_baselines:
        for name in names:
            shutil.copyfile(os.path.join(args.current, name),
                            os.path.join(args.baseline, name))
        print(f"[compare_bench] refreshed {len(names)} baseline file(s) in "
              f"{args.baseline!r}")
    return 1 if args.strict and regressions else 0


if __name__ == "__main__":
    sys.exit(main())
