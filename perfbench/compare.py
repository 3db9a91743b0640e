#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or reports the spread of one set.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RUNS_DIR

Each directory holds the captured standard output of runs of
perfbench/run.py, one file per run (any file name). A run's workload, seed
and trace flag come from its `# meta {...}` line, its metrics from its last
line. Bounds and directions come from BENCHMARK.json.

With two directories, for every workload and end-to-end metric this prints
each side's median and quartiles, the pair wins of the change (runs are
paired by seed, else in file order; ties count for neither side), and a
verdict:

  better      the change wins at least 9 of every 10 pairs and the medians
              differ by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  either side's interquartile range, as a share of its median,
              exceeds the bound, and not every change run beats every
              parent run
  same        none of the above

Per-layer metrics (traced runs) are listed with medians only; they have no
bound and give no verdict. With one directory, it prints each metric's
median and its interquartile range as a share of the median, flagging
spreads above the bound and above a third of it.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(directory):
    """Returns {(workload, trace): [(seed, metrics dict)]}."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        meta, result = None, None
        with open(path, errors="replace") as f:
            lines = [l.strip() for l in f if l.strip()]
        for line in lines:
            if line.startswith("# meta "):
                meta = json.loads(line[len("# meta "):])
        if lines:
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = None
        if meta is None or result is None or "metrics" not in result:
            print("skipping %s: no result" % path, file=sys.stderr)
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        key = (meta["workload"], int(meta["trace"]))
        runs.setdefault(key, []).append((meta["seed"], values, result))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def pair_up(parent, change):
    by_seed = {seed: v for seed, v, _ in parent}
    pairs = [(by_seed[seed], v) for seed, v, _ in change if seed in by_seed]
    if len(pairs) < min(len(parent), len(change)):
        pairs = [(p[1], c[1]) for p, c in zip(parent, change)]
    return pairs


def verdict(metric, pvals, cvals, pairs):
    name, bound, direction = metric["name"], metric["bound"], metric["better"]
    _, pmed, _ = quartiles(pvals)
    p_q1, _, p_q3 = quartiles(pvals)
    _, cmed, _ = quartiles(cvals)
    wins = sum(1 for p, c in pairs if better(c[name], p[name], direction))
    losses = sum(1 for p, c in pairs if better(p[name], c[name], direction))
    worse_by = (cmed - pmed) / abs(pmed) if pmed else 0.0
    if direction == "higher":
        worse_by = -worse_by
    all_better = all(better(c, p, direction) for c in cvals for p in pvals)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > (p_q3 - p_q1):
        v = "better"
    elif worse_by > bound:
        v = "worse"
    elif (spread(pvals) > bound or spread(cvals) > bound) and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return wins, losses, worse_by, v


def fmt(x):
    return "%.6g" % x


def compare(bench, parent_runs, change_runs):
    e2e = bench["end_to_end"]
    layer = [m["name"] for m in bench["per_layer"]]
    for key in sorted(set(parent_runs) | set(change_runs)):
        workload, trace = key
        parent, change = parent_runs.get(key, []), change_runs.get(key, [])
        print("\n== %s (trace %d): %d parent runs, %d change runs" %
              (workload, trace, len(parent), len(change)))
        if not parent or not change:
            print("   missing runs on one side; nothing to compare")
            continue
        pairs = pair_up(parent, change)
        names = [m["name"] for m in e2e] if trace == 0 else layer
        print("   %-32s %-32s %-32s %-9s %s" %
              ("metric", "parent q1/median/q3", "change q1/median/q3",
               "wins", "verdict"))
        for name in names:
            pvals = [v[name] for _, v, _ in parent if name in v]
            cvals = [v[name] for _, v, _ in change if name in v]
            if not pvals or not cvals:
                continue
            ps = "/".join(fmt(x) for x in quartiles(pvals))
            cs = "/".join(fmt(x) for x in quartiles(cvals))
            metric = next((m for m in e2e if m["name"] == name), None)
            if metric is None:
                print("   %-32s %-32s %-32s" % (name, ps, cs))
                continue
            wins, losses, worse_by, v = verdict(metric, pvals, cvals, pairs)
            print("   %-32s %-32s %-32s %d-%d/%-5d %s (worse by %+.1f%%, bound %.0f%%)" %
                  (name, ps, cs, wins, losses, len(pairs), v, 100 * worse_by,
                   100 * metric["bound"]))
        for side, runs in (("parent", parent), ("change", change)):
            failed = sum(r["failed"] for _, _, r in runs)
            attempted = sum(r["attempted"] for _, _, r in runs)
            wrong = sum(1 for _, _, r in runs if not r["correct"])
            print("   %s: %d of %d operations failed, %d runs with failed checks" %
                  (side, failed, attempted, wrong))


def report_spread(bench, runs):
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    for (workload, trace), rs in sorted(runs.items()):
        print("\n== %s (trace %d): %d runs" % (workload, trace, len(rs)))
        names = list(e2e) if trace == 0 else [m["name"] for m in bench["per_layer"]]
        for name in names:
            vals = [v[name] for _, v, _ in rs if name in v]
            if not vals:
                print("   %-34s missing" % name)
                continue
            s = spread(vals) if len(vals) > 1 else 0.0
            flag = ""
            if name in e2e:
                bound = e2e[name]["bound"]
                flag = ("  > bound" if s > bound else
                        "  > bound/3" if s > bound / 3 else "  ok")
                flag += " (bound %.0f%%)" % (100 * bound)
            print("   %-34s median %-12s iqr/median %6.2f%%%s" %
                  (name, fmt(statistics.median(vals)), 100 * s, flag))


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    bench = load_benchmark()
    if len(argv) == 2:
        report_spread(bench, load_runs(argv[1]))
    else:
        compare(bench, load_runs(argv[1]), load_runs(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
