#!/usr/bin/env python3
"""Compare two sets of bench_e2e result documents against BENCHMARK.json.

    python3 e2ebench/e2e_compare.py --a A1.json A2.json ... [--b B1.json ...]

Each file is a document bench_e2e --json wrote (run.py keeps them under
.bench_build/results/); one file may hold several workloads. Set A is the
baseline (the parent commit), set B the change. Give the files of each set
in run order: A[i] and B[i] form pair i, and the runs of a pair should
alternate which side goes first.

For every workload and end-to-end metric it prints each set's median and
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
then:
  - with only --a: whether the spread stays within the metric's bound (and
    within a third of it, the margin a steady benchmark keeps);
  - with --b: the change of the median, in the metric's "worse" direction,
    against the bound: "ok", "REGRESSION", or "unresolved" when either
    set's spread exceeds the bound (unless every B run beats every A run);
    and the pair rule: with at least 10 pairs, a gain needs B to win at
    least 9 in 10 pairs and the medians to differ by more than A's spread.
Count metrics (per-layer unit "count" or "GFLOP") must read the same in
every run of both sets. Exits 1 on a regression, a count change, or more
failed operations in B than in A.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict

COUNT_UNITS = ("count", "GFLOP")


def load(paths):
    """{workload: [row, ...]} over every file, in the order given."""
    runs = defaultdict(list)
    for path in paths:
        with open(path) as f:
            for row in json.load(f)["rows"]:
                if row.get("row") == "workload":
                    runs[row["workload"]].append(row)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(base, new, better):
    """Relative change of the median toward "worse" (negative: better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def beats(x, y, better):
    return x < y if better == "lower" else x > y


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", nargs="+", required=True, help="baseline result files")
    ap.add_argument("--b", nargs="+", help="changed result files")
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    sets = {"A": load(args.a)}
    if args.b:
        sets["B"] = load(args.b)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]

    bad = False
    for wl in sorted(set().union(*(s.keys() for s in sets.values()))):
        print(f"== {wl}")
        for name, runs in sets.items():
            att = sum(int(r["attempted"]) for r in runs.get(wl, []))
            fail = sum(int(r["failed"]) for r in runs.get(wl, []))
            print(f"  set {name}: {len(runs.get(wl, []))} runs, "
                  f"{fail}/{att} operations failed")
        if "B" in sets:
            fa = sum(int(r["failed"]) for r in sets["A"].get(wl, []))
            fb = sum(int(r["failed"]) for r in sets["B"].get(wl, []))
            if fb > fa:
                print(f"  FAILURES: B failed {fb} operations, A failed {fa}")
                bad = True
        if any(len(s.get(wl, [])) == 0 for s in sets.values()):
            print("  (missing from a set; skipped)")
            continue

        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            vals = {k: [r[name] for r in s[wl] if name in r] for k, s in sets.items()}
            if any(not v for v in vals.values()):
                continue
            cells = []
            for k, v in vals.items():
                q1, med, q3 = quartiles(v)
                cells.append(f"{k} {fmt(med)} [{fmt(q1)}, {fmt(q3)}] "
                             f"spread {spread(v):.1%}")
            line = f"  {name:<22} " + " | ".join(cells)
            if "B" not in sets:
                s = spread(vals["A"])
                if s > bound:
                    verdict = f"UNSTEADY (> bound {bound:.0%})"
                    bad = True
                else:
                    verdict = "ok" if s <= bound / 3 else f"wide (> {bound / 3:.1%})"
                print(f"{line}  {verdict}")
                continue
            a, b = vals["A"], vals["B"]
            change = worse_by(statistics.median(a), statistics.median(b), better)
            unsteady = max(spread(a), spread(b)) > bound
            if unsteady:
                all_better = all(beats(y, x, better) for y in b for x in a)
                verdict = "ok" if all_better else "unresolved"
            elif change > bound:
                verdict = "REGRESSION"
                bad = True
            else:
                verdict = "ok"
            pairs = list(zip(a, b))
            wins = sum(beats(y, x, better) for x, y in pairs)
            losses = sum(beats(x, y, better) for x, y in pairs)
            gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                    and abs(statistics.median(b) - statistics.median(a))
                    > quartiles(a)[2] - quartiles(a)[0])
            print(f"{line}  worse by {change:+.1%} (bound {bound:.0%}) {verdict}; "
                  f"pairs B won {wins}, lost {losses} of {len(pairs)}"
                  f"{' -> GAIN' if gain else ''}")

        for name in counts:
            seen = {r.get(name) for s in sets.values() for r in s[wl] if name in r}
            if len(seen) > 1:
                print(f"  COUNT CHANGED {name}: {sorted(seen)}")
                bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
