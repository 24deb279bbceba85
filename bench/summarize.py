"""Median and spread of each end-to-end metric over a set of result files.

    python3 bench/summarize.py bench/out/BENCH_*_trace0.json

For each workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the distance
between the quartiles as a share of the median.  ``--json`` prints the same
as one JSON object, the form of the entries in ``bench/BENCH_trend.json``.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics


def summarize(paths: list[str]) -> dict:
    values: dict = collections.defaultdict(lambda: collections.defaultdict(list))
    env = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        env = {k: v for k, v in res["env"].items() if k != "seed"}
        for name, m in res["metrics"].items():
            values[res["workload"]][name].append(m["value"])
        values[res["workload"]]["failed_frac"].append(res.get("failed_frac", 0.0))
    out = {}
    for workload, metrics in values.items():
        out[workload] = {}
        for name, xs in metrics.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            out[workload][name] = {
                "runs": len(xs), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
    return {"env": env, "workloads": out}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    summary = summarize(args.results)
    if args.json:
        print(json.dumps(summary, indent=1))
        return
    for workload, metrics in summary["workloads"].items():
        for name, s in metrics.items():
            print(f"{workload:<22} {name:<18} runs={s['runs']:<3} median={s['median']:<12.6g} "
                  f"q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} spread={s['spread']:.3f}")


if __name__ == "__main__":
    main()
