#!/usr/bin/env python3
"""Compare, summarize and check run files of the end-to-end benchmark.

Each run of bench/e2e/run.sh leaves a JSON run file in
build-bench/e2e-runs/. This script reads them:

  compare.py compare --parent DIR_OR_FILES... --change DIR_OR_FILES...
      Parent-versus-change verdict per workload and end-to-end metric:
      improved, no worse, regressed or unresolved, judged against the
      bounds in BENCHMARK.json. A gain needs at least 10 seed-matched
      pairs, a win in 9/10 of them, and a median gap wider than the
      parent's interquartile range. When either side's spread exceeds
      the bound the verdict is unresolved, unless every change run beats
      every parent run. A regression lists the per-layer metrics (from
      --trace 1 runs of both sides) ranked by how far they moved the
      wrong way, so the gate names a layer. Exit 1 on any regression.

  compare.py spread FILES...
      Median and interquartile range over median per workload and
      metric, next to the metric's bound. Exit 1 when a gated spread
      exceeds its bound.

  compare.py names FILE
      Smoke check: every `t=<0|1> <json>` line (the last stdout line of
      a run) is correct and carries exactly the end-to-end (t=0) or
      per-layer (t=1) metric names of BENCHMARK.json, and every
      `file <path>` line names a run file carrying both sets.

Quartiles are statistics.quantiles(values, n=4), the same rule the
benchmark's acceptance uses.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def expand(items):
    """Run files from a mix of files, directories and globs."""
    files = []
    for item in items:
        if os.path.isdir(item):
            files.extend(sorted(glob.glob(os.path.join(item, "*.json"))))
        else:
            files.extend(sorted(glob.glob(item)) or [item])
    return files


def load_runs(items):
    runs = []
    for path in expand(items):
        with open(path) as f:
            run = json.load(f)
        if "workload" in run and "metrics" in run:
            run["_path"] = path
            runs.append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(v):
    return f"{v:.6g}"


def values_of(runs, metric, section="metrics"):
    return [r[section][metric]["value"] for r in runs
            if metric in r.get(section, {})]


def better_of(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(parent, change, metric, pairs):
    """One metric on one workload; returns (verdict, detail dict)."""
    better = metric["better"]
    bound = metric["bound"]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for p, c in pairs if better_of(c, p, better))
    spread = max((pq3 - pq1) / abs(pmed) if pmed else float("inf"),
                 (cq3 - cq1) / abs(cmed) if cmed else float("inf"))
    worse_by = (cmed - pmed) / abs(pmed) if pmed else 0.0
    if better == "higher":
        worse_by = -worse_by
    improved_dir = better_of(cmed, pmed, better)
    all_better = all(better_of(c, p, better) for c in change for p in parent)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and improved_dir
            and abs(cmed - pmed) > (pq3 - pq1)):
        v = "improved"
    elif spread > bound and not all_better:
        # Runs of one side disagree by more than the bound: no verdict.
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    else:
        v = "no worse"
    return v, dict(parent=(pq1, pmed, pq3), change=(cq1, cmed, cq3),
                   wins=wins, pairs=len(pairs), spread=spread,
                   worse_by=worse_by)


def layer_shifts(parent, change, bench):
    """Per-layer metrics ranked by their move in the worse direction."""
    shifts = []
    for m in bench["per_layer"]:
        p = values_of(parent, m["name"], "per_layer")
        c = values_of(change, m["name"], "per_layer")
        if not p or not c:
            continue
        pmed, cmed = statistics.median(p), statistics.median(c)
        rel = (cmed - pmed) / abs(pmed) if pmed else (0.0 if cmed == pmed
                                                      else float("inf"))
        if m["better"] == "higher":
            rel = -rel
        shifts.append((rel, m["name"], pmed, cmed, m["unit"]))
    shifts.sort(reverse=True)
    return shifts


def cmd_compare(args):
    bench = load_benchmark(args.benchmark)
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    workloads = sorted({r["workload"] for r in parent} &
                       {r["workload"] for r in change})
    if not workloads:
        print("compare.py: no workload has runs on both sides",
              file=sys.stderr)
        return 2
    regressed = False
    for w in workloads:
        p_runs = [r for r in parent if r["workload"] == w]
        c_runs = [r for r in change if r["workload"] == w]
        p_plain = [r for r in p_runs if not r.get("trace")]
        c_plain = [r for r in c_runs if not r.get("trace")]
        bad = [r["_path"] for r in p_plain + c_plain if not r["correct"]]
        print(f"== {w}: {len(p_plain)} parent runs, {len(c_plain)} change "
              f"runs")
        if bad:
            print("   incorrect or invalid runs (excluded): " +
                  ", ".join(bad))
        p_plain = [r for r in p_plain if r["correct"]]
        c_plain = [r for r in c_plain if r["correct"]]
        if not p_plain or not c_plain:
            print("   unresolved: no correct runs on one side")
            continue
        by_seed = {r["seed"]: r for r in p_plain}
        if len(by_seed) < 10:
            print(f"   note: {len(by_seed)} parent seeds; a gain needs at "
                  f"least 10 alternating pairs")
        print(f"   {'metric':<22}{'parent q1/med/q3':>34}"
              f"{'change q1/med/q3':>34}{'wins':>8}  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            p = values_of(p_plain, name)
            c = values_of(c_plain, name)
            if not p or not c:
                continue
            pairs = [(by_seed[r["seed"]]["metrics"][name]["value"],
                      r["metrics"][name]["value"])
                     for r in c_plain if r["seed"] in by_seed
                     and name in by_seed[r["seed"]]["metrics"]]
            v, d = verdict(p, c, m, pairs)
            pq = "/".join(fmt(x) for x in d["parent"])
            cq = "/".join(fmt(x) for x in d["change"])
            print(f"   {name:<22}{pq:>34} {cq:>34}"
                  f"{d['wins']:>4}/{d['pairs']:<3}  {v}"
                  f" (worse by {100 * d['worse_by']:+.1f}%, bound "
                  f"{100 * m['bound']:.0f}%, spread "
                  f"{100 * d['spread']:.1f}%)")
            if v == "regressed":
                regressed = True
                shifts = layer_shifts([r for r in p_runs if r.get("trace")],
                                      [r for r in c_runs if r.get("trace")],
                                      bench)
                if not shifts:
                    print("      no --trace 1 runs on both sides to name "
                          "a layer")
                for rel, lname, pmed, cmed, unit in shifts[:8]:
                    print(f"      {lname:<36} {fmt(pmed)} -> {fmt(cmed)} "
                          f"{unit} ({100 * rel:+.1f}% worse)")
    return 1 if regressed else 0


def cmd_spread(args):
    bench = load_benchmark(args.benchmark)
    runs = [r for r in load_runs(args.files) if not r.get("trace")]
    failed = False
    for w in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == w]
        wrong = [r["_path"] for r in mine if not r["correct"]]
        print(f"== {w}: {len(mine)} runs" +
              (f", {len(wrong)} incorrect" if wrong else ""))
        failed |= bool(wrong)
        for m in bench["end_to_end"]:
            v = values_of(mine, m["name"])
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            gated = m["name"] != "setup_s"
            if spread <= m["bound"] / 3:
                state = "ok"
            elif spread <= m["bound"]:
                state = "within bound, above a third of it"
            else:
                state = "EXCEEDS bound" if gated else "above bound (not gated)"
                failed |= gated
            print(f"   {m['name']:<22} median {fmt(med):>12} {m['unit']:<6}"
                  f" spread {100 * spread:5.1f}%  bound "
                  f"{100 * m['bound']:.0f}%  {state}")
    return 1 if failed else 0


def cmd_names(args):
    bench = load_benchmark(args.benchmark)
    want = {"0": {m["name"] for m in bench["end_to_end"]},
            "1": {m["name"] for m in bench["per_layer"]}}
    ok = True
    lines = 0

    def check(label, names, expected):
        nonlocal ok
        if names != expected:
            print(f"{label}: metric names differ from BENCHMARK.json: "
                  f"missing {sorted(expected - names)}, "
                  f"extra {sorted(names - expected)}")
            ok = False

    with open(args.file) as f:
        for line in f:
            tag, _, rest = line.strip().partition(" ")
            if tag == "file":
                # A run file carries both sets, whatever its mode.
                with open(rest) as run_file:
                    run = json.load(run_file)
                check(rest, set(run["metrics"]), want["0"])
                if run.get("trace"):
                    check(rest, set(run["per_layer"]), want["1"])
                continue
            trace = tag.partition("=")[2]
            try:
                result = json.loads(rest)
            except ValueError:
                print(f"not a result line: {line.strip()[:120]}")
                ok = False
                continue
            lines += 1
            check(f"t={trace} result line", set(result.get("metrics", {})),
                  want.get(trace, set()))
            if not result.get("correct") or result.get("failed"):
                print(f"t={trace}: run not correct: {rest[:200]}")
                ok = False
    print(f"smoke: {lines} result lines, names "
          f"{'match' if ok else 'DO NOT match'} BENCHMARK.json")
    return 0 if ok and lines else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("compare")
    c.add_argument("--parent", nargs="+", required=True)
    c.add_argument("--change", nargs="+", required=True)
    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    n = sub.add_parser("names")
    n.add_argument("file")
    args = ap.parse_args()
    return {"compare": cmd_compare, "spread": cmd_spread,
            "names": cmd_names}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
