#!/usr/bin/env python3
"""Collect benchmark result sets and compare them.

Run from a checkout root.

  collect  run workloads x seeds and append one JSON line per run:
      python3 perfbench/compare.py collect --out base.jsonl --seeds 1-10
      # two checkouts, alternating which runs first on every seed:
      python3 perfbench/compare.py collect --checkout ../parent --checkout . \\
          --out base.jsonl --out change.jsonl --seeds 1-10
  spread   per workload x end-to-end metric: median, quartiles and the
           quartile spread as a share of the median, against the bound:
      python3 perfbench/compare.py spread base.jsonl
  compare  per workload x end-to-end metric of two sets: medians,
           quartiles, pair win share and a verdict (better, worse,
           unchanged, unresolved):
      python3 perfbench/compare.py compare base.jsonl change.jsonl

Pairs are matched by (workload, seed).  A verdict of "better" needs the
change to win at least 90 % of pairs (ties count for neither) and the
medians to differ by more than the base's quartile spread.  When either
side's spread exceeds the metric's bound the verdict is "unresolved",
unless every run of the change beats every run of the base.  "worse"
means the change's median is worse than the base's by more than the
bound fixed in BENCHMARK.json, or that any run of the change was
incorrect or had a failed cell.  Runs always use trace 0 and the
run_seconds of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit("run failed (%d): %s in %s"
                         % (res.returncode, " ".join(cmd), checkout))
    host = None
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[5:])
    return {"workload": workload, "seed": seed, "host": host,
            "result": json.loads(lines[-1])}


def cmd_collect(args):
    spec = load_spec()
    checkouts = args.checkout or ["."]
    if len(checkouts) != len(args.out):
        raise SystemExit("give one --out per --checkout")
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for k in order:
                rec = run_once(checkouts[k], workload, seed,
                               spec["run_seconds"])
                with open(args.out[k], "a") as f:
                    f.write(json.dumps(rec) + "\n")
                r = rec["result"]
                print("%s seed=%d %s correct=%s %s" % (
                    workload, seed, checkouts[k], r["correct"],
                    " ".join("%s=%.4g" % (m, v["value"])
                             for m, v in r["metrics"].items())),
                    flush=True)


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["seed"])] = rec
    return runs


def failed_seeds(runs, workload):
    """Seeds of runs that were incorrect or had a failed cell."""
    return sorted(s for (w, s), r in runs.items() if w == workload and (
        not r["result"]["correct"] or r["result"]["failed"] > 0))


def values(runs, workload, metric):
    return {seed: rec["result"]["metrics"][metric]["value"]
            for (w, seed), rec in runs.items()
            if w == workload and metric in rec["result"]["metrics"]}


def quartiles(vals):
    if len(vals) < 2:
        v = vals[0] if vals else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def share(num, den):
    return num / den if den else (0.0 if num == 0 else float("inf"))


def cmd_spread(args):
    spec = load_spec()
    runs = load_set(args.set)
    workloads = sorted({w for w, _ in runs})
    ok = True
    print("%-20s %-14s %3s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread",
        "bound", "check (spread < bound/3)"))
    for w in workloads:
        bad_runs = failed_seeds(runs, w)
        if bad_runs:
            ok = False
            print("%-20s incorrect result at seeds %s" % (w, bad_runs))
        for m in spec["end_to_end"]:
            vals = list(values(runs, w, m["name"]).values())
            q1, med, q3 = quartiles(vals)
            spread = share(q3 - q1, med)
            if spread < m["bound"] / 3:
                verdict = "ok"
            else:
                verdict = "TOO WIDE" if spread > m["bound"] else "wide"
                ok = ok and spread <= m["bound"]
            print("%-20s %-14s %3d %12.6g %12.6g %12.6g %8.4f %6.4g  %s" % (
                w, m["name"], len(vals), q1, med, q3, spread, m["bound"],
                verdict))
    return 0 if ok else 1


def verdict(base, change, better, bound):
    """Verdict for one workload x metric; dicts are seed -> value."""
    sign = 1.0 if better == "lower" else -1.0
    b = sorted(base.values())
    c = sorted(change.values())
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    pairs = [(base[s], change[s]) for s in base if s in change]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_share = share(wins, len(pairs))
    gain = sign * (bmed - cmed)   # > 0: change is better
    all_better = bool(b and c) and (
        max(c) < min(b) if better == "lower" else min(c) > max(b))
    wide = max(share(bq3 - bq1, bmed), share(cq3 - cq1, cmed)) > bound
    if win_share >= 0.9 and gain > 0 and gain > bq3 - bq1:
        v = "better"
    elif wide and not all_better:
        v = "unresolved"
    elif -gain > bound * abs(bmed):
        v = "worse"
    else:
        v = "unchanged"
    return (bq1, bmed, bq3), (cq1, cmed, cq3), win_share, len(pairs), v


def cmd_compare(args):
    spec = load_spec()
    base, change = load_set(args.base), load_set(args.change)
    workloads = sorted({w for w, _ in base} & {w for w, _ in change})
    print("%-20s %-14s %-32s %-32s %5s %5s  %s" % (
        "workload", "metric", "base q1/median/q3", "change q1/median/q3",
        "pairs", "wins", "verdict"))
    worse = False
    for w in workloads:
        # A change with an incorrect run is worse, whatever its times.
        broken = failed_seeds(change, w)
        if broken:
            worse = True
            print("%-20s change has incorrect runs at seeds %s: worse"
                  % (w, broken))
        for m in spec["end_to_end"]:
            bv, cv = values(base, w, m["name"]), values(change, w, m["name"])
            if not bv or not cv:
                continue
            bq, cq, win_share, n, v = verdict(bv, cv, m["better"], m["bound"])
            if broken:
                v = "worse"
            worse = worse or v == "worse"
            print("%-20s %-14s %-32s %-32s %5d %5.2f  %s" % (
                w, m["name"], "/".join("%.5g" % x for x in bq),
                "/".join("%.5g" % x for x in cq), n, win_share, v))
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", action="append", required=True)
    c.add_argument("--checkout", action="append")
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread")
    s.add_argument("set")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("change")
    args = ap.parse_args()
    sys.exit({"collect": cmd_collect, "spread": cmd_spread,
              "compare": cmd_compare}[args.cmd](args) or 0)


if __name__ == "__main__":
    main()
