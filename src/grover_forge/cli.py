"""Command-line entry points: synth, simulate, compare.

Exit codes: 0 success, 2 validation error, 3 simulator limit exceeded,
4 gray-code permutation validation failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import complexity, engine
from .errors import PermutationValidationError, SimulatorLimitError, ValidationError
from .ir import save_circuit
from .lowering import lower
from .qasm import to_qasm
from .reduced import build_pi_sigma, build_U_tilde, target_bits
from .synth import build_O_conv, build_oracle, build_U
from .targets import TargetSet, parse_target_file

MAX_SWEEP_ROWS = 100_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grover-forge",
        description="Synthesize, simulate, and cost multi-target search "
                    "oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="emit a circuit as JSON")
    synth.add_argument("--targets", required=True, help="target-set file")
    synth.add_argument("--variant", required=True,
                       choices=["u", "u-tilde", "pi-sigma", "oracle",
                                "oracle-conv"])
    synth.add_argument("--out", required=True, help="circuit JSON path")
    synth.add_argument("--qasm", help="also write a lowered OpenQASM file")
    synth.add_argument("--mode", choices=["paper", "exact", "auto"],
                       default="auto",
                       help="permutation construction (pi-sigma only)")

    sim = sub.add_parser("simulate", help="run search iterations")
    sim.add_argument("--targets", required=True)
    sim.add_argument("--variant", required=True,
                     choices=list(engine.VARIANTS))
    sim.add_argument("--k", default="auto",
                     help="iteration count, or 'auto' for the analytic "
                          "optimum")
    sim.add_argument("--mode", choices=["paper", "exact", "auto"],
                     default="auto")
    sim.add_argument("--json", action="store_true", dest="as_json")
    sim.add_argument("--amplitudes", action="store_true",
                     help="include final amplitudes in the JSON report")

    cmp_ = sub.add_parser("compare", help="cost comparison / crossover sweep")
    cmp_.add_argument("--targets")
    cmp_.add_argument("--n", type=int, help="qubit count (with --s)")
    cmp_.add_argument("--s", type=int, help="target count (with --n)")
    cmp_.add_argument("--k", type=int, help="iteration count for the report")
    cmp_.add_argument("--sweep", nargs=2, metavar=("n=<list>", "gamma=<grid>"),
                      help="emit CSV rows, e.g. n=10,100,1000 "
                           "gamma=0.05:0.95:0.01")
    cmp_.add_argument("--json", action="store_true", dest="as_json")
    cmp_.add_argument("--out", help="write CSV/JSON here instead of stdout")
    return parser


def _load_targets(path) -> TargetSet:
    try:
        return parse_target_file(path)
    except OSError as exc:
        raise ValidationError(f"cannot read target file: {exc}") from exc


def _cmd_synth(args) -> int:
    targets = _load_targets(args.targets)
    plan = None
    if args.variant == "u":
        circuit = build_U(targets)
        bound = complexity.bound_U(targets.n, targets.size)
    elif args.variant == "u-tilde":
        circuit = build_U_tilde(targets.size, targets.n)
        bound = complexity.bound_U_tilde(target_bits(targets.size))
    elif args.variant == "pi-sigma":
        circuit, plan = build_pi_sigma(targets, args.mode)
        bound = complexity.bound_pi(targets.n, targets.size)
    elif args.variant == "oracle":
        circuit = build_oracle(targets)
        bound = None
    else:
        circuit = build_O_conv(targets)
        bound = complexity.bound_O_conv(targets.n, targets.size)
    # Lowering may refuse the circuit, so it runs before any file is written.
    lowered = lower(circuit) if args.qasm else None
    if plan is not None:
        with open(args.out + ".plan.json", "w", encoding="utf-8") as fh:
            json.dump(plan.to_json(), fh, indent=1)
    save_circuit(circuit, args.out)
    cost = complexity.count(circuit)
    line = f"{args.variant}: {len(circuit)} gates, counted cost {cost}"
    if bound is not None:
        line += f" (bound {bound})"
    print(line)
    if lowered is not None:
        with open(args.qasm, "w", encoding="utf-8") as fh:
            fh.write(to_qasm(lowered))
        print(f"lowered QASM written to {args.qasm}")
    return 0


def _with_amplitudes(text: str, amps) -> str:
    """`text`, a dict written by json.dumps(indent=1), with one more key,
    "amplitudes": [[re, im], ...], spliced in last.

    The bytes equal what json.dumps(indent=1) writes for the whole dict:
    json formats a finite float with float.__repr__, as %r does, and the
    amplitudes of a unitary run are finite.  Formatting 2**n pairs this
    way costs a fraction of what json's pure-Python indenting encoder does.
    """
    pair = "  [\n   %r,\n   %r\n  ]"
    block = ",\n".join([pair] * len(amps)) % tuple(amps.view(float).tolist())
    return f'{text[:-2]},\n "amplitudes": [\n{block}\n ]\n}}'


def _cmd_simulate(args) -> int:
    targets = _load_targets(args.targets)
    schedule = engine.analytic_schedule(targets.n, targets.size)
    if args.k == "auto":
        k = schedule.k_star
    else:
        try:
            k = int(args.k)
        except ValueError as exc:
            raise ValidationError(f"bad iteration count {args.k!r}") from exc

    rows = []
    final = None
    for step, state in engine.grover_states(targets, args.variant, k,
                                            args.mode):
        simulated = engine.success_probability(state, targets)
        rows.append({"k": step, "success": simulated,
                     "analytic": schedule.success(step)})
        final = state
    deviation = max(abs(r["success"] - r["analytic"]) for r in rows)
    report = {
        "variant": args.variant,
        "n": targets.n,
        "s": targets.size,
        "k": k,
        "k_star": schedule.k_star,
        "phi": schedule.phi,
        "iterations": rows,
        "max_deviation": deviation,
    }
    if args.as_json:
        text = json.dumps(report, indent=1)
        if args.amplitudes:
            text = _with_amplitudes(text, final.amplitudes)
        print(text)
    else:
        print(f"variant={args.variant} n={targets.n} |S|={targets.size} "
              f"k={k} (k*={schedule.k_star})")
        for row in rows:
            print(f"  k={row['k']:4d} success={row['success']:.12f} "
                  f"analytic={row['analytic']:.12f}")
        print(f"max |simulated - analytic| = {deviation:.3e}")
    return 0


def _parse_sweep(spec_n: str, spec_gamma: str):
    if not spec_n.startswith("n=") or not spec_gamma.startswith("gamma="):
        raise ValidationError("sweep wants n=<list> gamma=<grid>")
    try:
        n_list = [int(tok) for tok in spec_n[2:].split(",") if tok]
    except ValueError as exc:
        raise ValidationError(f"bad n list {spec_n!r}") from exc
    grid_spec = spec_gamma[len("gamma="):]
    try:
        if ":" in grid_spec:
            start, stop, step = (float(tok) for tok in grid_spec.split(":"))
        else:
            grid = [float(tok) for tok in grid_spec.split(",") if tok]
    except ValueError as exc:
        raise ValidationError(f"bad gamma grid {grid_spec!r}") from exc
    if ":" in grid_spec:
        if not step > 0:
            raise ValidationError(f"gamma step must be positive, got {step}")
        # The 1e-12 slack keeps a stop that float rounding misses by a hair.
        points = (stop + 1e-12 - start) / step + 1
        if not math.isfinite(points):
            raise ValidationError(f"bad gamma grid {grid_spec!r}")
        points = min(max(0, math.floor(points)), MAX_SWEEP_ROWS + 1)
        grid = [round(start + i * step, 12) for i in range(points)]
    if not n_list or not grid:
        raise ValidationError("empty sweep grid")
    if len(n_list) * len(grid) > MAX_SWEEP_ROWS:
        raise ValidationError(f"sweep has more than {MAX_SWEEP_ROWS} rows")
    return n_list, grid


def _compare_output(args, out) -> None:
    if args.sweep:
        n_list, grid = _parse_sweep(*args.sweep)
        rows = complexity.sweep_gamma(n_list, grid)
        writer = csv.writer(out)
        writer.writerow(["n", "gamma", "Gamma", "dominates"])
        for n, gamma, ratio, flag in rows:
            writer.writerow([n, f"{gamma:.6g}", f"{ratio:.10g}", int(flag)])
    elif args.targets:
        report = complexity.build_report(_load_targets(args.targets),
                                         k=args.k)
        if args.as_json:
            json.dump(report.to_json(), out, indent=1)
            out.write("\n")
        else:
            out.write(f"n={report.n} |S|={report.s} l={report.l} "
                      f"k={report.k}\n")
            for name, value in report.counts.items():
                bound = report.bounds.get(name)
                suffix = f" (bound {bound})" if bound is not None else ""
                out.write(f"  {name:16s} {value}{suffix}\n")
            out.write(f"Gamma={report.gamma_exact:.6g} "
                      f"(approx {report.gamma_approximate:.6g}) "
                      f"-> {report.verdict}\n")
    elif args.n is not None and args.s is not None:
        exact, approx = complexity.gamma_ratio(args.n, args.s)
        verdict = complexity.verdict_of(exact)
        if args.as_json:
            json.dump({"n": args.n, "s": args.s, "Gamma_exact": exact,
                       "Gamma_approx": approx, "verdict": verdict},
                      out, indent=1)
            out.write("\n")
        else:
            out.write(f"n={args.n} s={args.s} Gamma={exact:.6g} "
                      f"(approx {approx:.6g}) -> {verdict}\n")
    else:
        raise ValidationError("compare needs --targets, --n/--s, or --sweep")


def _cmd_compare(args) -> int:
    # The whole output is built before --out is opened, so invalid input
    # leaves no file behind.
    out = io.StringIO()
    _compare_output(args, out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"synth": _cmd_synth, "simulate": _cmd_simulate,
                "compare": _cmd_compare}
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulatorLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PermutationValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
