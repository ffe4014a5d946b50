#!/usr/bin/env python3
"""Compares two sets of benchmark runs made by perfbench/run_benchmark.sh.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py --stability SET_A SET_B

For every (workload, end-to-end metric) it prints each side's median and
quartiles, the change of the medians, and the share of seed-paired runs
the new side won (ties count for neither; "-" when the sets share no
seed). A row reads:

  regression  the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json;
  gain        the new side won at least 9 of 10 pairs and the medians
              differ by more than the base's interquartile distance;
  unresolved  either side's spread (interquartile distance over median)
              exceeds the bound, so the bound cannot be judged, unless
              every new run beats every base run;
  ok          within the bound.

--stability takes two sets made from the same commit. A row reads
UNSTABLE when the medians differ by more than the bound, unresolved when
either spread exceeds it, and stable otherwise.
The exit code is 1 on a regression, an unresolved or unstable row, or
any failed run.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    """{workload: {seed: result}} plus the number of failed runs."""
    runs, failed = {}, 0
    for name in sorted(glob.glob(os.path.join(path, "*.s*.json"))):
        with open(name) as f:
            run = json.load(f)
        result = run["result"]
        if result is None or not result["correct"] or result["failed"]:
            failed += 1
            print("failed run: %s" % name, file=sys.stderr)
            continue
        runs.setdefault(run["workload"], {})[run["seed"]] = result["metrics"]
    return runs, failed


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / med if med else 0.0


def compare_metric(metric, base, new, stability):
    """One report row for a metric's per-seed values on both sides."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    b = [v[name]["value"] for v in base.values()]
    n = [v[name]["value"] for v in new.values()]
    (mb, b1, b3), (mn, n1, n3) = summary(b), summary(n)
    change = (mn - mb) / mb if mb else 0.0
    worse = change if lower else -change
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    pairs = [s for s in base if s in new]
    wins = sum(better(new[s][name]["value"], base[s][name]["value"]) for s in pairs)
    won = wins / len(pairs) if pairs else 0.0
    resolved = spread(b) <= bound and spread(n) <= bound
    if stability:
        status = "UNSTABLE" if abs(change) > bound else "stable" if resolved else "unresolved"
    elif not resolved:
        status = "better (all runs)" if all(better(x, y) for x in n for y in b) else "unresolved"
    elif worse > bound:
        status = "regression"
    elif worse < 0 and won >= 0.9 and abs(mn - mb) > (b3 - b1):
        status = "gain"
    else:
        status = "ok"
    return {"median": (mb, mn), "quartiles": ((b1, b3), (n1, n3)), "change": change,
            "won": won, "pairs": len(pairs), "status": status,
            "spread": (spread(b), spread(n)), "bound": bound}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stability", action="store_true",
                        help="both sets come from one commit; check they agree")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, base_failed = load_set(args.base)
    new, new_failed = load_set(args.new)

    bad = base_failed + new_failed > 0
    print("%-13s %-17s %24s %24s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]",
        "change", "won", "status"))
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in base or w not in new:
            print("%-13s missing from a set" % w)
            bad = True
            continue
        for metric in spec["end_to_end"]:
            row = compare_metric(metric, base[w], new[w], args.stability)
            bad |= row["status"] in ("regression", "unresolved", "UNSTABLE")
            (mb, mn), ((b1, b3), (n1, n3)) = row["median"], row["quartiles"]
            won = "%5.0f%%" % (100 * row["won"]) if row["pairs"] else "     -"
            print("%-13s %-17s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %+7.1f%% %s  %s"
                  " (spread %.1f%%/%.1f%%, bound %.0f%%)" % (
                      w, metric["name"], mb, b1, b3, mn, n1, n3, 100 * row["change"],
                      won, row["status"], 100 * row["spread"][0],
                      100 * row["spread"][1], 100 * row["bound"]))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
