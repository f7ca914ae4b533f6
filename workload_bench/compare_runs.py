#!/usr/bin/env python3
"""Compares workload-benchmark results against the bounds in BENCHMARK.json.

  compare_runs.py --base A/ --head B/       # verdict per workload x metric
  compare_runs.py --spread A/               # same-commit spread, to set bounds

Each argument is a result file written by run.py or a directory of them.
Give each side several runs (different --out directories, or different
seeds); pairs for the win rate are formed in sorted file order, so run the
two sides alternately. Untraced runs give the end-to-end rows; traced runs
(--trace 1) give the per-layer metrics listed under a row that improved or
regressed. A verdict is one of:

  improved      the head wins >= 90% of pairs and the medians differ by more
                than the base's interquartile range;
  unresolved    either side's spread (IQR / median) is wider than the bound;
  regressed     the head median is worse than the base by more than the bound;
  within bound  otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MOVE = 0.05  # per-layer medians that moved by more than this share


def load_runs(paths):
    """{(workload, traced): [result, ...]} from files and directories."""
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = {}
    for f in files:
        if f.name.startswith("trace_"):
            continue  # Chrome traces live next to the results
        r = json.loads(f.read_text())
        runs.setdefault((r["workload"], r["traced"]), []).append(r)
        if r["info"].get("valid", 1) == 0:
            print(f"warning: {f}: open-loop generator fell behind; run invalid",
                  file=sys.stderr)
        if r.get("host", {}).get("host_busy"):
            print(f"warning: {f}: host was busy at start", file=sys.stderr)
        if r["failed"]:
            print(f"warning: {f}: {r['failed']} failed checks", file=sys.stderr)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base, head, metric):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    med_b, med_h = statistics.median(base), statistics.median(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    q1, q3 = quartiles(base)
    gain = sign * (med_h - med_b) / med_b if med_b else 0.0
    if gain > 0 and wins >= 0.9 * len(pairs) and abs(med_h - med_b) > q3 - q1:
        return "improved", gain, wins / len(pairs)
    if max(spread(base), spread(head)) > metric["bound"]:
        return "unresolved", gain, wins / len(pairs)
    if -gain > metric["bound"]:
        return "regressed", gain, wins / len(pairs)
    return "within bound", gain, wins / len(pairs)


def moved_layers(base_runs, head_runs):
    """Per-layer metrics whose traced medians moved, largest move first."""
    moved = []
    for m in SPEC["per_layer"]:
        b = [r["layers"][m["name"]] for r in base_runs if m["name"] in r["layers"]]
        h = [r["layers"][m["name"]] for r in head_runs if m["name"] in r["layers"]]
        if not b or not h:
            continue
        med_b, med_h = statistics.median(b), statistics.median(h)
        if med_b and abs(med_h - med_b) / abs(med_b) > LAYER_MOVE:
            moved.append(((med_h - med_b) / abs(med_b), m, med_b, med_h))
    moved.sort(key=lambda x: -abs(x[0]))
    return moved


def fmt(v):
    return f"{v:.4g}"


def print_spread(runs):
    print(f"{'workload':16} {'metric':16} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    for workload in [w["name"] for w in SPEC["workloads"]]:
        results = runs.get((workload, False), [])
        for m in SPEC["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in results]
            if not vals:
                continue
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            rng = (max(vals) - min(vals)) / med if med else 0.0
            flag = "" if spread(vals) <= m["bound"] / 3 else "  > bound/3"
            print(f"{workload:16} {m['name']:16} {len(vals):3d} {fmt(med):>10} {fmt(q1):>10} "
                  f"{fmt(q3):>10} {spread(vals):8.4f} {rng:9.4f} {m['bound']:6.3f}{flag}")


def print_compare(base, head):
    print(f"{'workload':16} {'metric':16} {'base median [q1, q3]':>32} "
          f"{'head median [q1, q3]':>32} {'change':>8} {'wins':>5}  verdict")
    worst = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        b_runs, h_runs = base.get((workload, False), []), head.get((workload, False), [])
        if not b_runs or not h_runs:
            continue
        for m in SPEC["end_to_end"]:
            b = [r["metrics"][m["name"]] for r in b_runs]
            h = [r["metrics"][m["name"]] for r in h_runs]
            v, gain, win_rate = verdict(b, h, m)
            cols = []
            for vals in (b, h):
                q1, q3 = quartiles(vals)
                cols.append(f"{fmt(statistics.median(vals))} [{fmt(q1)}, {fmt(q3)}]")
            print(f"{workload:16} {m['name']:16} {cols[0]:>32} {cols[1]:>32} "
                  f"{100 * gain:+7.2f}% {win_rate:5.2f}  {v}")
            if v == "regressed":
                worst = 1
            if v in ("improved", "regressed"):
                for rel, lm, mb, mh in moved_layers(base.get((workload, True), []),
                                                    head.get((workload, True), []))[:10]:
                    print(f"{'':34}{lm['name']:36} {fmt(mb):>10} -> {fmt(mh):<10} "
                          f"{100 * rel:+.1f}% ({lm['better']} is better)")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", help="result files or directories")
    parser.add_argument("--head", nargs="+", help="result files or directories")
    parser.add_argument("--spread", nargs="+", help="one commit's results")
    args = parser.parse_args()
    if args.spread:
        print_spread(load_runs(args.spread))
        return 0
    if not (args.base and args.head):
        parser.error("give --spread, or both --base and --head")
    return print_compare(load_runs(args.base), load_runs(args.head))


if __name__ == "__main__":
    sys.exit(main())
