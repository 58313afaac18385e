"""One workload process. `run.py` starts a fresh one for every measurement.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS SPAWNED_AT WORKDIR

MODE is `setup` (import and generate inputs, then stop), `measure` (time
passes of the workload's CLI calls with no tracing) or `trace` (each call
untraced and then traced, then the per-layer probes of `layers.py`). SPAWNED_AT is the parent's CLOCK_MONOTONIC
reading just before it started this process, so set-up time includes
interpreter start and imports. The result goes to WORKDIR/result.json.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import tracing
import workloads


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def call_cli(cli, argv) -> tuple[float, object, str, str]:
    """Run `grover-forge ARGV` in-process: (seconds, exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        except Exception:  # the call failed; record it and keep measuring
            rc = "exception"
            err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def run_op(cli, op, tracer=None) -> dict:
    """One CLI call. With a tracer, the package is instrumented for the
    call and the call gets its own span tree under a `cli.main` root."""
    if tracer is None:
        seconds, rc, out, err = call_cli(cli, op.argv)
    else:
        remove = tracing.instrument(tracer)
        try:
            tracer.begin_op(op.name)
            with tracer.span("cli.main"):
                seconds, rc, out, err = call_cli(cli, op.argv)
        finally:
            remove()
    return {"op": op, "seconds": seconds, "rc": rc, "stdout": out,
            "stderr": err}


def check_pass(workload, results, seed) -> dict:
    """The workload's checks over one pass of results, and its timings."""
    try:
        failures, counts = workload.check(results, seed)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        failures = {r["op"].name: f"unreadable output: {exc!r}"
                    for r in results}
        counts = {}
    for res in results:
        if res["rc"] != 0 and res["op"].name in failures:
            failures[res["op"].name] += f" ({res['stderr'].strip()[-300:]})"
    groups: dict[str, float] = {}
    for res in results:
        groups[res["op"].group] = groups.get(res["op"].group, 0.0) \
            + res["seconds"]
    return {"ops": {r["op"].name: r["seconds"] for r in results},
            "groups": groups, "failures": failures, "counts": counts}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(cli, workload, ops, seed, seconds) -> dict:
    """One untimed warm-up pass, then passes over all ops until another
    pass would take the timed total past `seconds`; always at least one.
    Every pass is checked, between passes and outside the timings. Peak
    memory is read after the warm-up pass's calls, before any check has
    allocated anything."""
    results = [run_op(cli, op) for op in ops]
    rss = peak_rss_mb()
    warmup = check_pass(workload, results, seed)
    passes, timed = [], []
    while True:
        results = [run_op(cli, op) for op in ops]
        passes.append(check_pass(workload, results, seed))
        timed.append(sum(r["seconds"] for r in results))
        if sum(timed) + statistics.median(timed) > seconds:
            return {"warmup": warmup, "passes": passes, "peak_rss_mb": rss}


def trace(cli, workload, ops, seed, workdir) -> dict:
    """Each op untraced, then traced, so drift between the two stays
    small; then the per-layer probes. Returns the per-layer metrics, the
    self time of each layer in the traced calls, and the counts recorded
    at their span boundaries."""
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for op in ops:
        untraced.append(run_op(cli, op))
        traced.append(run_op(cli, op, tracer))
    passes = [check_pass(workload, untraced, seed),
              check_pass(workload, traced, seed)]
    replay_ops = set(range(len(tracer.ops)))
    layers_s = tracer.self_times(replay_ops)
    total = sum(s for s, _ in layers_s.values())
    dominant = max(layers_s, key=lambda k: layers_s[k][0])
    untraced_s = sum(passes[0]["ops"].values())

    probes = layers.Probes(tracer, seed, workdir)
    metrics = probes.run()
    metrics["trace.replay_s"] = untraced_s
    metrics["trace.overhead_s"] = sum(passes[1]["ops"].values()) - untraced_s
    tracer.dump(workdir / "spans.json")
    predicted = layers.PREDICTED[workload.name]
    return {
        "passes": passes,
        "metrics": metrics,
        "probe_failures": probes.failures,
        "paper_attempts": len(layers.VALIDITY_SIZES),
        "spans": len(tracer),
        "layers": {k: {"self_s": s, "share": s / total, "spans": n}
                   for k, (s, n) in sorted(layers_s.items(),
                                           key=lambda kv: -kv[1][0])},
        "counts": tracer.count_totals(replay_ops),
        "dominant": dominant,
        "predicted": sorted(predicted),
        "prediction_holds": dominant in predicted,
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, spawned_at, workdir = argv
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)

    import grover_forge
    from grover_forge import cli
    src = (Path.cwd() / "src").resolve()
    if src not in Path(grover_forge.__file__).resolve().parents:
        print(f"grover_forge imported from {grover_forge.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import numpy

    workload = workloads.WORKLOADS[name]
    ops = workload.generate(seed, workdir)
    setup_s = monotonic() - float(spawned_at)

    if mode == "setup":
        result = {}
    elif mode == "measure":
        result = measure(cli, workload, ops, seed, seconds)
    else:
        result = trace(cli, workload, ops, seed, workdir)
    result["setup_s"] = setup_s
    result.setdefault("peak_rss_mb", peak_rss_mb())
    result["numpy"] = numpy.__version__
    (workdir / "result.json").write_text(json.dumps(result),
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
