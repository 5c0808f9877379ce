#!/usr/bin/env python3
"""Render a parent-vs-change perfbench record as Markdown tables.

Usage, from the repository root:

    python3 results/bench_table.py results/perfbench_work_conserving.jsonl

Each input line is one perfbench run: {"side": "parent"|"change",
"workload", "seed", "trace": 0|1, "result": <perfbench's final JSON
line>}. Traced runs also carry "decomposition": the numbers of
perfbench's "decomposition of client latency" note (median self times,
us). Untraced runs give one row per workload and end-to-end metric of
BENCHMARK.json: the median and quartiles of each side, the change's
ratio to the parent, how many same-seed pairs the change wins, and
whether the change's median stays within the metric's regression
bound, and whether each side's spread (q3 - q1) stays within the same
bound taken as a share of the parent's median: a change whose runs
spread wider than that cannot be told apart from the parent. The last
column applies the claim rule: a gain "holds" when the change wins at
least 9 in 10 of the pairs (ties count for neither side) and its median
is better than the parent's by more than the parent's q3 - q1; it is
"unresolved" when either side's spread exceeds the bound, and "no"
otherwise. Traced runs give, per workload and side, the median over
runs of the per-layer metrics and of the latency decomposition. Runs of
gr-offline, which BENCHMARK.json does not gate, give each run's value of
a few metrics, in seed order.

A record whose runs mark each binary's origin with "perfbench" and
"served" keys ("parent"|"change") instead of "side" crossed the two
builds' benchmark and server binaries; it gives one row per workload
and combination, with the median of each end-to-end metric.
"""

import json
import os
import statistics
import sys

TRACED = [
    "batcher.server_p50_us",
    "batcher.queue_wait_us",
    "batcher.batch_mean",
    "model.rocket.b2_us",
    "wire.req_decode_us",
    "wire.reply_decode_us",
    "wire.reply_encode_us",
    "server.outside_p50_us",
    "batcher.shed",
    "batcher.ticket_allocs",
    "router.restarts",
]

# The in-process replay of each workload's batch call at batch size 1.
LANE_REPLAY = {
    "predict-closed": "model.rocket.b1_us",
    "augment-ndjson": "augment.apply_us",
    "predict-router": "model.inception.b1_us",
}


# Ungated workloads: (trace, metric) pairs listed run by run.
UNGATED = {
    "gr-offline": [(0, "latency_p50_us"), (0, "throughput_rps"),
                   (1, "pool.transform_speedup"), (1, "gr.transform_s")],
}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(path) as f:
        runs = [json.loads(line) for line in f if line.strip()]

    if any("side" not in r for r in runs):
        crossed(bench, runs)
        return

    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| change / parent | change wins | within bound | spread, parent / change / bound "
          "| gain claim |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in (w["name"] for w in bench["workloads"]):
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        if not plain:
            continue
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            side = {s: {r["seed"]: r["result"]["metrics"][name]["value"]
                        for r in plain if r["side"] == s} for s in ("parent", "change")}
            if not side["parent"] or not side["change"]:
                continue
            p1, pm, p3 = quartiles(sorted(side["parent"].values()))
            c1, cm, c3 = quartiles(sorted(side["change"].values()))
            seeds = sorted(set(side["parent"]) & set(side["change"]))
            wins = sum((side["change"][s] < side["parent"][s]) if lower
                       else (side["change"][s] > side["parent"][s]) for s in seeds)
            worse = (cm - pm) / pm if lower else (pm - cm) / pm
            bound = metric["bound"] * pm
            steady = p3 - p1 <= bound and c3 - c1 <= bound
            gain = (pm - cm) if lower else (cm - pm)
            if not steady:
                claim = "unresolved"
            elif seeds and wins >= 0.9 * len(seeds) and gain > p3 - p1:
                claim = "holds"
            else:
                claim = "no"
            print(f"| {workload} | `{name}` | {pm:.4g} [{p1:.4g}, {p3:.4g}] "
                  f"| {cm:.4g} [{c1:.4g}, {c3:.4g}] | {cm / pm:.3f} "
                  f"| {wins} of {len(seeds)} | {'yes' if worse <= metric['bound'] else 'NO'} "
                  f"| {p3 - p1:.3g} / {c3 - c1:.3g} / {bound:.3g} {'' if steady else 'WIDE'} "
                  f"| {claim} |")

    for workload, metrics in UNGATED.items():
        if not any(r["workload"] == workload for r in runs):
            continue
        print()
        print("| workload | metric | parent runs | change runs |")
        print("|---|---|---|---|")
        for trace, name in metrics:
            cells = []
            for side in ("parent", "change"):
                group = sorted((r for r in runs if r["workload"] == workload
                                and r["trace"] == trace and r["side"] == side),
                               key=lambda r: r["seed"])
                cells.append(", ".join(f"{r['result']['metrics'][name]['value']:.4g}"
                                       for r in group) or "–")
            print(f"| {workload} | `{name}` | {cells[0]} | {cells[1]} |")

    traced = [r for r in runs if r["trace"] == 1 and r["workload"] in LANE_REPLAY]
    if not traced:
        return
    groups = []
    for workload in (w["name"] for w in bench["workloads"]):
        for side in ("parent", "change"):
            group = [r for r in traced if r["workload"] == workload and r["side"] == side]
            if group:
                groups.append((workload, side, group))

    def med(values):
        return f"{statistics.median(values):.4g}" if values else "–"

    print()
    print("| workload | side | runs | " + " | ".join(f"`{m}`" for m in TRACED)
          + " | lane replay, b1 |")
    print("|---|---|---|" + "---|" * (len(TRACED) + 1))
    for workload, side, group in groups:
        cells = [med([r["result"]["metrics"][m]["value"] for r in group
                      if m in r["result"]["metrics"]]) for m in TRACED + [LANE_REPLAY[workload]]]
        print(f"| {workload} | {side} | {len(group)} | " + " | ".join(cells[:-1])
              + f" | `{LANE_REPLAY[workload]}` {cells[-1]} |")

    parts = ["outside", "server_codec", "unexplained", "queue_wait", "lane"]
    print()
    print("| workload | side | lane call | " + " | ".join(parts) + " |")
    print("|---|---|---|" + "---|" * len(parts))
    for workload, side, group in groups:
        cells = [med([r["decomposition"][p] for r in group]) for p in parts]
        lane = group[0]["decomposition"]["lane_name"]
        print(f"| {workload} | {side} | {lane} | " + " | ".join(cells) + " |")


def crossed(bench, runs):
    """One median row per workload and (perfbench, served) combination."""
    metrics = [m["name"] for m in bench["end_to_end"]]
    print("| workload | perfbench | served | runs | "
          + " | ".join(f"`{m}`" for m in metrics) + " |")
    print("|---|---|---|---|" + "---|" * len(metrics))
    combos = sorted({(r["workload"], r["perfbench"], r["served"]) for r in runs})
    for combo in combos:
        group = [r for r in runs if (r["workload"], r["perfbench"], r["served"]) == combo]
        cells = [f"{statistics.median(r['result']['metrics'][m]['value'] for r in group):.4g}"
                 for m in metrics]
        print(f"| {' | '.join(combo)} | {len(group)} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
