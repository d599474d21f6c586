#!/usr/bin/env python3
"""Gate perf regressions between two edgetherm bench JSON summaries.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold PCT]
                     [--normalize-by BENCHMARK] [--metric COUNTER]
                     [--direction {lower,higher}]

Compares every benchmark that reports the gated counter (``ns_per_slot``
by default) in the baseline and exits 1 if any of them regressed by more
than the threshold (default 15%) or is missing from the current file, so
a deleted or filtered-out benchmark cannot drop out of the gate. Exits 2
on usage or I/O errors, 0 otherwise. ``--direction higher`` flips the regression test for
throughput-style metrics (requests per second: a *drop* beyond the
threshold fails).

Raw nanoseconds are not comparable across machines, so CI passes
``--normalize-by`` with an anchor benchmark measured in the same run
(conventionally the dense reference kernel): each metric is divided by
the anchor's value in its own file first, which cancels the machine's
clock speed and leaves the *ratio* to the anchor -- a property of the
code, not the hardware. Without ``--normalize-by`` the comparison is
absolute and only meaningful on one machine (e.g. against a baseline
you just generated locally).

The input format is the ``edgetherm-bench-perf-v1`` summary that
bench_perf_kernels writes or the ``edgetherm-bench-serve-v1`` summary
that bench_serve_throughput writes (see docs/performance.md). Both
files must carry the same schema. Only Python's standard library is
used.
"""

import argparse
import json
import sys


def fail_usage(message):
    print("bench_compare: error: %s" % message, file=sys.stderr)
    sys.exit(2)


def load_metrics(path, metric):
    """Map benchmark name -> metric value for runs that report it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        fail_usage("cannot read %s: %s" % (path, err))
    except json.JSONDecodeError as err:
        fail_usage("%s is not valid JSON: %s" % (path, err))

    schema = data.get("schema")
    known = ("edgetherm-bench-perf-v1", "edgetherm-bench-serve-v1")
    if schema not in known:
        fail_usage("%s has unexpected schema %r" % (path, schema))

    metrics = {}
    for run in data.get("benchmarks", []):
        value = run.get("counters", {}).get(metric)
        name = run.get("name")
        if name is None or value is None:
            continue
        if not isinstance(value, (int, float)) or value <= 0.0:
            fail_usage("%s: %s has non-positive %s" % (path, name, metric))
        metrics[name] = float(value)
    return metrics, schema


def normalize(metrics, anchor, path):
    if anchor not in metrics:
        fail_usage(
            "%s does not report the normalization anchor %r" % (path, anchor)
        )
    base = metrics[anchor]
    return {name: value / base for name, value in metrics.items()}


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bench_compare",
        description="Fail when a gated benchmark metric regresses.",
    )
    parser.add_argument("baseline", help="baseline BENCH_perf.json")
    parser.add_argument("current", help="current BENCH_perf.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=15.0,
        help="allowed regression in percent (default: %(default)s)",
    )
    parser.add_argument(
        "--normalize-by",
        metavar="BENCHMARK",
        help="divide each metric by this benchmark's value in the same "
        "file before comparing (hardware-independent ratios)",
    )
    parser.add_argument(
        "--metric",
        default="ns_per_slot",
        help="counter to gate on (default: %(default)s)",
    )
    parser.add_argument(
        "--direction",
        choices=("lower", "higher"),
        default="lower",
        help="whether lower or higher metric values are better "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        fail_usage("--threshold must be non-negative")

    baseline, baseline_schema = load_metrics(args.baseline, args.metric)
    current, current_schema = load_metrics(args.current, args.metric)
    if baseline_schema != current_schema:
        fail_usage(
            "schema mismatch: %s is %r but %s is %r"
            % (args.baseline, baseline_schema, args.current, current_schema)
        )
    if not baseline:
        fail_usage("%s reports no %s metrics" % (args.baseline, args.metric))
    if args.normalize_by:
        baseline = normalize(baseline, args.normalize_by, args.baseline)
        current = normalize(current, args.normalize_by, args.current)

    unit = "x anchor" if args.normalize_by else "ns"
    regressions = []
    missing = []
    width = max(len(name) for name in baseline)
    for name in sorted(baseline):
        if name not in current:
            print("MISSING   %-*s  (in baseline only)" % (width, name))
            missing.append(name)
            continue
        before, after = baseline[name], current[name]
        delta_pct = (after / before - 1.0) * 100.0
        regressed_pct = (
            delta_pct if args.direction == "lower" else -delta_pct
        )
        status = "OK"
        if regressed_pct > args.threshold:
            status = "REGRESSED"
            regressions.append((name, before, after, delta_pct))
        print(
            "%-10s%-*s  %12.4f -> %12.4f %s  (%+.1f%%)"
            % (status, width, name, before, after, unit, delta_pct)
        )
    for name in sorted(set(current) - set(baseline)):
        print("NEW       %-*s  %12.4f %s"
              % (width, name, current[name], unit))

    if missing:
        print(
            "\nbench_compare: %d baseline benchmark(s) missing from %s: %s"
            % (len(missing), args.current, ", ".join(missing)),
            file=sys.stderr,
        )
    if regressions:
        print(
            "\nbench_compare: %d metric(s) regressed more than %.1f%%:"
            % (len(regressions), args.threshold),
            file=sys.stderr,
        )
        for name, before, after, delta_pct in regressions:
            print(
                "  %s: %.4f -> %.4f %s (%+.1f%%)"
                % (name, before, after, unit, delta_pct),
                file=sys.stderr,
            )
    if missing or regressions:
        return 1
    print("\nbench_compare: all %d gated metric(s) within %.1f%%"
          % (len(baseline), args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
