"""Diff two benchmark result files, one row per workload.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines that `run.py --out` appends; runs of the same
workload (usually several seeds) are pooled. For every end-to-end metric a
cell gives the change of the median and a verdict:

    WORSE       worse than the parent by more than the metric's bound
    better      better by more than the run-to-run spread
    same        neither
    unresolved  the spread (quartile distance over median, on either side)
                is wider than the bound, unless every new run beats every
                base run; always when a side has a single run

Per-layer metrics of traced runs, the per-command timings and the machine's
calibration loop (a fixed pure-Python loop that shows how fast the machine
was on each side) are listed below the table without a verdict. This script
only reports; it exits 0.
"""
from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values]}} from a results file."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                values = runs[(run["workload"], run["trace"])]
                values["detail:machine.loop_s"].append(
                    run["machine"]["loop_s"])
                for name, value in run["metrics"].items():
                    values[name].append(value)
                for name, detail in run.get("details", {}).items():
                    values[f"detail:{name}"].append(detail["median"])
    return runs


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(base, new, bound, lower_is_better=True) -> tuple[float, str]:
    sign = 1 if lower_is_better else -1
    change = (statistics.median(new) - statistics.median(base)) \
        / statistics.median(base)
    worse_by = sign * change
    spreads = [spread(base), spread(new)]
    if None in spreads or max(spreads) > bound:
        beats = (max(new) < min(base)) if lower_is_better \
            else (min(new) > max(base))
        return change, "better" if beats and None not in spreads \
            else "unresolved"
    if worse_by > bound:
        return change, "WORSE"
    if -worse_by > max(spreads):
        return change, "better"
    return change, "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(args.base), load(args.new)

    header = f"{'workload':16s}" + "".join(f"{m:>26s}" for m in e2e)
    print(header)
    shared = [key for key in base if key in new]
    for workload, trace in shared:
        if trace:
            continue
        cells = []
        for name, m in e2e.items():
            b, n = base[(workload, 0)][name], new[(workload, 0)][name]
            change, word = verdict(b, n, m["bound"], m["better"] == "lower")
            cells.append(f"{100 * change:+7.1f}% {word:>10s}")
        print(f"{workload:16s}" + "".join(f"{c:>26s}" for c in cells))

    for workload, trace in shared:
        b, n = base[(workload, trace)], new[(workload, trace)]
        rows = [name for name in b if name in n and (
            trace or name.startswith("detail:")
            and name.removeprefix("detail:") not in e2e)]
        if rows:
            print(f"\n{workload} ({'traced' if trace else 'per command'}):")
        for name in rows:
            bm, nm = statistics.median(b[name]), statistics.median(n[name])
            change = f"{100 * (nm - bm) / bm:+7.1f}%" if bm else "   n/a"
            print(f"  {name.removeprefix('detail:'):34s} {bm:>12.6g} -> "
                  f"{nm:<12.6g} {change}  ({len(b[name])} vs "
                  f"{len(n[name])} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
