"""Per-layer probes for the traced run, and the layer each workload should
spend most of its time in.

The probes call each module's public functions directly, one span per call,
on seeded inputs shaped like the workloads' own, and every per-layer metric
comes from them. They are the same for every workload, so each per-layer
metric exists on every workload; where a workload's own time goes is the
traced pass in worker.py.
"""
from __future__ import annotations

import random
import statistics

import numpy as np

from workloads import (MAX_DEVIATION, WORKLOADS, TargetSpec, draw_labels,
                       write_targets)

# The layer expected to dominate each workload's traced pass.
PREDICTED = {
    "search-sparse": {"ir.apply[Single]"},
    "search-dense": {"ir.apply[Controlled]", "reduced"},
    "compile": {"lowering", "qasm"},
    "report-wide": {"synth", "reduced", "ir.validate"},
}
NORM_DRIFT = 1e-9
ITERATIONS = 4            # search iterations timed per variant
# Paper-mode attempts on n=10 sets at densities l/n = 0.1 .. 0.8.
VALIDITY_SIZES = (2, 4, 8, 16, 32, 64, 128, 256)
BUILDERS = ("U", "oracle", "U_tilde", "pi_sigma")


class Probes:
    """Direct calls into each module, one span per call."""

    def __init__(self, tracer, seed, workdir):
        self.tr = tracer
        self.workdir = workdir
        self.failures: dict[str, str] = {}
        self.metrics: dict[str, float] = {}
        rng = random.Random(f"grover-forge/probes/{seed}")
        self.state_rng = np.random.default_rng([seed, 11])

        def draw(spec):
            from grover_forge import TargetSet
            return TargetSet(spec.n, tuple(draw_labels(rng, spec)))

        def like(workload, index):
            return draw(WORKLOADS[workload].specs[index])

        self.sparse = like("search-sparse", 0)
        self.dense = like("search-dense", 0)
        self.wide = like("report-wide", 0)
        self.small = draw(TargetSpec(12, 3, "json"))  # full search, for drift
        self.lower_set = like("compile", 1)
        self.pi_set = like("compile", 0)
        self.validity = [draw(TargetSpec(10, s, "json"))
                         for s in VALIDITY_SIZES]

    def timed(self, name, fn, *args, repeat=1, **kwargs):
        """Median seconds over `repeat` calls, each its own span; returns
        (last result, seconds)."""
        times = []
        for _ in range(repeat):
            with self.tr.span(name) as sp:
                result = fn(*args, **kwargs)
            times.append(self.tr.end[sp.sid] - self.tr.start[sp.sid])
        return result, statistics.median(times)

    def run(self) -> dict:
        for part in (self.targets, self.synth, self.reduced, self.lowering,
                     self.ir, self.engine, self.complexity):
            self.tr.begin_op(f"probe:{part.__name__}")
            part()
        return self.metrics

    def targets(self):
        from grover_forge import parse_target_file
        labels = list(self.dense.labels)
        paths = []
        for fmt in ("json", "text"):
            path = self.workdir / f"probe-dense.{fmt}"
            write_targets(path, TargetSpec(self.dense.n, self.dense.size,
                                           fmt), labels)
            paths.append(path)
        times = [self.timed("targets.parse_target_file", parse_target_file,
                            p, repeat=3)[1] for p in paths]
        self.metrics["targets.parse_s"] = statistics.mean(times)

    def synth(self):
        from grover_forge import build_oracle, build_prefix_table, build_U
        _, self.metrics["dichotomy.prefix_table_s"] = self.timed(
            "dichotomy.build_prefix_table", build_prefix_table, self.wide,
            repeat=3)
        _, self.metrics["synth.build_U_s"] = self.timed(
            "synth.build_U", build_U, self.wide)
        self.wide_oracle, self.metrics["synth.build_oracle_s"] = self.timed(
            "synth.build_oracle", build_oracle, self.wide)
        self.metrics["synth.oracle_gates"] = len(self.wide_oracle)

    def reduced(self):
        from grover_forge import (PermutationValidationError, build_pi_sigma,
                                  build_U_tilde)
        _, self.metrics["reduced.build_U_tilde_s"] = self.timed(
            "reduced.build_U_tilde", build_U_tilde, self.dense.size,
            self.dense.n, repeat=5)

        def paper(targets):
            try:
                return build_pi_sigma(targets, "paper")
            except PermutationValidationError:
                return None

        _, self.metrics["reduced.pi_sigma_paper_s"] = self.timed(
            "reduced.build_pi_sigma", paper, self.dense)
        (self.pi_dense, _), seconds = self.timed(
            "reduced.build_pi_sigma", build_pi_sigma, self.dense, "exact",
            repeat=3)
        self.metrics["reduced.pi_sigma_exact_s"] = seconds
        self.metrics["reduced.pi_sigma_gates"] = len(self.pi_dense)
        valid = sum(self.timed("reduced.build_pi_sigma", paper, t)[0]
                    is not None for t in self.validity)
        self.metrics["reduced.paper_valid_ratio"] = valid / len(self.validity)

    def lowering(self):
        from grover_forge import (build_oracle, build_pi_sigma, build_U,
                                  build_U_tilde, count, lower, to_qasm)
        from grover_forge.ir import Controlled
        t = self.lower_set
        sources = {"U": build_U(t), "oracle": build_oracle(t),
                   "U_tilde": build_U_tilde(t.size, t.n),
                   "pi_sigma": build_pi_sigma(self.pi_set, "exact")[0]}
        qasm_s, qasm_bytes = 0.0, 0
        for b in BUILDERS:
            low, seconds = self.timed("lowering.lower", lower, sources[b])
            cnots = sum(isinstance(g, Controlled) for g in low.gates)
            self.metrics[f"lowering.lower_s.{b}"] = seconds
            self.metrics[f"lowering.cnots.{b}"] = cnots
            self.metrics[f"lowering.singles.{b}"] = len(low) - cnots
            self.metrics[f"lowering.cnot_per_cost.{b}"] = (
                cnots / count(sources[b]))
            text, seconds = self.timed("qasm.to_qasm", to_qasm, low)
            qasm_s += seconds
            qasm_bytes += len(text)
        self.metrics["qasm.to_qasm_s"] = qasm_s
        self.metrics["qasm.bytes"] = qasm_bytes

    def ir(self):
        from grover_forge import (Circuit, Controlled, Single,
                                  StateVector, apply_circuit, build_D,
                                  build_O_conv, build_oracle, save_circuit)
        from grover_forge.ir import H
        n = self.dense.n
        z = (self.state_rng.normal(size=1 << n)
             + 1j * self.state_rng.normal(size=1 << n))
        psi = StateVector(n, z / np.linalg.norm(z))
        oracle = build_oracle(self.dense)
        _, self.metrics["ir.save_circuit_s"] = self.timed(
            "ir.save_circuit", save_circuit, oracle,
            self.workdir / "probe-oracle.json", repeat=3)
        applied = {"single": 0, "controlled": 0, "pattern_phase": 0}

        def apply(label, circuit, repeat=1):
            out, seconds = self.timed(f"ir.apply_circuit[{label}]",
                                      apply_circuit, psi, circuit,
                                      repeat=repeat)
            if abs(out.norm() - 1.0) > NORM_DRIFT:
                self.failures[f"ir:{label}"] = f"norm {out.norm()!r}"
            for g in circuit.gates:
                kind = ("single" if isinstance(g, Single) else "controlled"
                        if isinstance(g, Controlled) else "pattern_phase")
                applied[kind] += repeat
            return seconds

        self.metrics["ir.apply_circuit_s.oracle"] = apply("oracle", oracle)
        self.metrics["ir.apply_circuit_s.D"] = apply("D", build_D(n), repeat=3)
        self.metrics["ir.apply_circuit_s.pi_sigma"] = apply("pi_sigma",
                                                      self.pi_dense)
        hadamards = Circuit(n, tuple(Single(H, q) for q in range(n)))
        self.metrics["ir.single_ns_per_amp"] = (
            apply("single", hadamards, repeat=3) / (n << n) * 1e9)
        controlled = Circuit(n, tuple(g for g in oracle.gates
                                      if isinstance(g, Controlled)))
        subspace = sum(1 << (n - len(g.controls)) for g in controlled.gates)
        self.metrics["ir.controlled_ns_per_amp"] = (
            apply("controlled", controlled) / subspace * 1e9)
        phases = build_O_conv(self.dense)
        self.metrics["ir.pattern_phase_us"] = (
            apply("pattern_phase", phases, repeat=3) / len(phases) * 1e6)
        for kind, total in applied.items():
            self.metrics[f"ir.gates_applied.{kind}"] = total

    def engine(self):
        from grover_forge import (analytic_schedule, grover_run,
                                  grover_states, success_probability)
        for v in ("conventional", "modified", "reduced"):
            _, self.metrics[f"engine.build_run_s.{v}"] = self.timed(
                "engine.grover_run", grover_run, self.dense, v, 0)
            _, start = self.timed("engine.grover_run", grover_run,
                                  self.sparse, v, 0)
            _, run = self.timed("engine.grover_run", grover_run,
                                self.sparse, v, ITERATIONS)
            self.metrics[f"engine.iteration_s.{v}"] = (
                (run - start) / ITERATIONS)
        sched = analytic_schedule(self.small.n, self.small.size)
        deviation = drift = 0.0
        for v in ("conventional", "modified", "reduced"):
            with self.tr.span("engine.grover_states"):
                for k, state in grover_states(self.small, v, sched.k_star):
                    p = success_probability(state, self.small)
                    deviation = max(deviation, abs(p - sched.success(k)))
                    drift = max(drift, abs(state.norm() - 1.0))
        self.metrics["engine.max_deviation"] = deviation
        self.metrics["engine.norm_drift"] = drift
        if not deviation <= MAX_DEVIATION:
            self.failures["engine:deviation"] = f"{deviation:.3e}"
        if not drift <= NORM_DRIFT:
            self.failures["engine:drift"] = f"{drift:.3e}"

    def complexity(self):
        from grover_forge import build_report, count, sweep_gamma
        _, self.metrics["complexity.build_report_s"] = self.timed(
            "complexity.build_report", build_report, self.wide)
        _, self.metrics["complexity.count_s"] = self.timed(
            "complexity.count", count, self.wide_oracle, repeat=3)
        grid = [round(0.05 + 0.01 * i, 12) for i in range(91)]
        _, self.metrics["complexity.sweep_s"] = self.timed(
            "complexity.sweep_gamma", sweep_gamma, [10, 100, 1000], grid,
            repeat=5)
