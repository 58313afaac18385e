"""grover-forge benchmark: one command, run from the repository root.

    python3 bench/run.py --workload search-sparse --seed 1 --seconds 20
    python3 bench/run.py --workload all --seed 1 --out results.jsonl

Each workload runs in fresh single-threaded processes, one at a time: a few
that only set up (import and write the seeded inputs), then one that times
passes of the workload's CLI calls and checks every output. `--trace 1`
runs the traced per-layer pass instead (see layers.py). The last line of
stdout is a JSON object with correct/attempted/failed and the metrics that
BENCHMARK.json lists; `--out` appends the full result, with machine
details, as one JSON line for compare.py.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
WORKLOADS = ("search-sparse", "search-dense", "compile", "report-wide")
SETUP_ONLY_RUNS = 6       # plus the measuring process's own set-up
TIME_LIMIT_S = 170.0      # per workload, below the 180 s a run may take
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "loop_s": calibration_loop()}


def calibration_loop() -> float:
    """Fastest of five timings of a fixed pure-Python loop. The machine's
    speed drifts between sessions; this shows by how much, next to the
    results, without touching the package."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return min(times)


def spawn(mode: str, workload: str, seed: int, seconds: float,
          deadline: float, tag: str) -> dict:
    """Run worker.py in a fresh process and return its result.json."""
    workdir = WORK / f"{workload}-{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    try:
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), mode, workload,
             str(seed), str(seconds), repr(spawned_at), str(workdir)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"{mode} process for {workload} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads((workdir / "result.json").read_text())
        if (workdir / "spans.json").exists():
            spans = WORK / f"spans-{workload}-seed{seed}.json"
            shutil.move(str(workdir / "spans.json"), spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
        return result
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} ran past the "
                         "time limit") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summary(samples: list[float], unit: str) -> dict:
    """Median, sample count, and the highest of p50/p90/p99 that has at
    least ten samples beyond it (None when there are too few)."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered),
           "tail": None, "unit": unit}
    for p in (99, 90, 50):
        if len(ordered) * (100 - p) / 100 >= 10:
            out["tail"] = [p, ordered[math.ceil(len(ordered) * p / 100) - 1]]
            break
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        res = spawn("trace", name, seed, seconds, deadline, "trace")
        passes = res["passes"]
        failures = [f for p in passes for f in p["failures"].items()]
        failures += list(res["probe_failures"].items())
        attempted = sum(len(p["ops"]) for p in passes) + 1
        return {"metrics": res["metrics"], "attempted": attempted,
                "failed": len(failures), "failures": failures,
                "trace": {k: res[k] for k in ("layers", "counts", "dominant",
                                              "predicted", "prediction_holds",
                                              "spans", "spans_file",
                                              "paper_attempts")},
                "numpy": res["numpy"]}

    # Set-up-only processes run both before and after the measuring one,
    # so that one burst of load on the machine does not shift them all.
    def setup_only(i):
        return spawn("setup", name, seed, seconds, deadline,
                     f"setup{i}")["setup_s"]

    setups = [setup_only(i) for i in range(SETUP_ONLY_RUNS // 2)]
    res = spawn("measure", name, seed, seconds, deadline, "measure")
    setups.append(res["setup_s"])
    setups += [setup_only(i) for i in range(SETUP_ONLY_RUNS // 2,
                                            SETUP_ONLY_RUNS)]
    passes = res["passes"]
    checked = [res["warmup"]] + passes
    failures = [f for p in checked for f in p["failures"].items()]
    attempted = sum(len(p["ops"]) for p in checked)

    # A failed call counts against every timing: its pass reads as infinite.
    def pass_times(key=None):
        return [math.inf if p["failures"] else
                (sum(p["ops"].values()) if key is None else p["groups"][key])
                for p in passes]

    details = {"pass_s": summary(pass_times(), "s")}
    for group in passes[0]["groups"]:
        details[group] = summary(pass_times(group), "s")
    for key in passes[0]["counts"]:
        details[key] = summary([p["counts"][key] for p in passes], "count")
    details["setup_s"] = summary(setups, "s")
    metrics = {"setup_s": statistics.median(setups),
               "pass_s": details["pass_s"]["median"],
               "peak_rss_mb": res["peak_rss_mb"]}
    return {"metrics": metrics, "details": details, "attempted": attempted,
            "failed": len(failures), "failures": failures,
            "numpy": res["numpy"]}


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def _samples(detail) -> str:
    if detail is None:
        return ""
    tail = f", p{detail['tail'][0]}={detail['tail'][1]:.6g}" \
        if detail["tail"] else ""
    return f"  (median of {detail['n']}{tail})"


def report(name: str, result: dict, wanted: dict) -> None:
    print(f"[{name}] attempted={result['attempted']} "
          f"failed={result['failed']}")
    for op, reason in result["failures"]:
        print(f"  FAILED {op}: {reason}", file=sys.stderr)
    details = result.get("details", {})
    for metric, spec in wanted.items():
        print(f"  {metric:34s} {result['metrics'][metric]:>14.6g} "
              f"{spec['unit']}{_samples(details.get(metric))}")
    for metric, d in details.items():
        if metric not in wanted:
            print(f"  {metric:34s} {d['median']:>14.6g} {d['unit']}"
                  f"{_samples(d)}")
    trace = result.get("trace")
    if trace:
        print(f"  self time by layer ({trace['spans']} spans in "
              f"{trace['spans_file']}):")
        for layer, row in trace["layers"].items():
            print(f"    {layer:30s} {row['self_s']:10.4f} s "
                  f"{100 * row['share']:6.1f}%  {row['spans']} spans")
        verdict = "holds" if trace["prediction_holds"] else "DOES NOT HOLD"
        print(f"  dominant layer {trace['dominant']}; predicted "
              f"{' or '.join(trace['predicted'])}: {verdict}")
        for key, value in sorted(trace["counts"].items()):
            print(f"    count {key} = {value}")
        print(f"  paper_valid_ratio base: "
              f"{trace['paper_attempts']} attempts")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as a JSON "
                                      "line to this file")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the running worker is killed and
    # waited for and its working directory removed before exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "grover_forge" / "__init__.py").is_file():
        print(f"no grover_forge sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    info = machine()
    print(f"grover-forge bench seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
            mismatch = set(wanted) ^ set(result["metrics"])
            if mismatch:
                raise BenchError(f"metrics differ from BENCHMARK.json: "
                                 f"{sorted(mismatch)}")
            results[name] = result
            report(name, result, wanted)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    info["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    info["numpy"] = results[names[0]]["numpy"]
    print(f"machine: {info['cpu']}, nproc={info['nproc']}, "
          f"python={info['python']}, numpy={info['numpy']}, "
          f"load={info['loadavg']} -> {info['loadavg_end']}, "
          f"calibration loop {info['loop_s'] * 1e3:.2f} ms")

    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for name, result in results.items():
                fh.write(json.dumps({"workload": name, "seed": args.seed,
                                     "seconds": args.seconds,
                                     "trace": args.trace, "machine": info,
                                     **result}) + "\n")
    single = len(names) == 1
    metrics = {(m if single else f"{name}/{m}"):
               {"value": result["metrics"][m], "unit": wanted[m]["unit"]}
               for name, result in results.items() for m in wanted}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"]
                                       for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
