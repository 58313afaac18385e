"""End-to-end acceptance checks.

Each test prints one `criterion N: pass/fail` line (run pytest with -s to
see them); the asserts carry the actual tolerances.
"""
import time

import numpy as np
import pytest
from conftest import phase_align, random_target_set, state_of_targets

from grover_forge import (Controlled, Single, TargetSet, analytic_schedule,
                          apply_circuit, bound_pi, bound_U, bound_U_tilde,
                          build_O_conv, build_oracle, build_pi_sigma,
                          build_prefix_table, build_stage, build_U,
                          build_U_tilde, canonical_targets, count,
                          gamma_approx, grover_run, grover_states, lower,
                          marginal_prob, success_probability, unitary_of)
from grover_forge.ir import StateVector
from grover_forge.lowering import is_cnot

EXAMPLE = TargetSet.from_labels(3, ["000", "001", "010", "100"])


class _Report:
    def __init__(self, criterion):
        self.criterion = criterion

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "pass" if exc_type is None else "fail"
        elapsed = time.perf_counter() - self.start
        print(f"criterion {self.criterion}: {verdict} ({elapsed:.2f}s)")
        return False


def test_criterion_1_worked_example_gates():
    with _Report(1):
        start = time.perf_counter()
        circuit = build_U(EXAMPLE)
        assert len(circuit.gates) == 3
        sy = np.array([[0, -1j], [1j, 0]])
        expected = [
            (Single, (), 0, 0.5 * (np.sqrt(3) * np.eye(2) - 1j * sy)),
            (Controlled, ((0, 0),), 1,
             (np.sqrt(2) * np.eye(2) - 1j * sy) / np.sqrt(3)),
            (Controlled, ((0, 0), (1, 0)), 2,
             (np.eye(2) - 1j * sy) / np.sqrt(2)),
        ]
        for gate, (kind, controls, target, block) in zip(circuit.gates,
                                                         expected):
            assert type(gate) is kind
            assert gate.target == target
            if controls:
                assert gate.controls == controls
            assert np.abs(gate.u - block).max() < 1e-12
        state = apply_circuit(StateVector.basis(3, 0), circuit)
        want = np.zeros(8)
        want[[0, 1, 2, 4]] = 0.5
        assert np.abs(state.amplitudes - want).max() < 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_reduced_example():
    with _Report(2):
        circuit = build_U_tilde(4, 3)
        touched = {g.target for g in circuit.gates}
        for gate in circuit.gates:
            if isinstance(gate, Controlled):
                touched |= {q for q, _ in gate.controls}
        assert touched <= {1, 2}
        state = apply_circuit(StateVector.basis(3, 0), circuit)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        want = np.kron(np.kron([1, 0], h @ [1, 0]), h @ [1, 0])
        assert np.abs(state.amplitudes - want).max() < 1e-12


def test_criterion_3_permutation_example():
    with _Report(3):
        circuit, _ = build_pi_sigma(EXAMPLE, "paper")
        assert len(circuit.gates) == 3
        x = np.array([[0, 1], [1, 0]])
        for gate in circuit.gates:
            assert isinstance(gate, Controlled)
            assert len(gate.controls) == 2
            assert np.array_equal(gate.u, x)
        mat = unitary_of(circuit)
        assert np.allclose(mat, np.round(mat.real), rtol=0)
        assert mat[0b100, 0b011] == 1
        for fixed in (0b000, 0b001, 0b010):
            assert mat[fixed, fixed] == 1


def test_criterion_4_kernel_dimension():
    with _Report(4):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            targets = random_target_set(rng, n)
            diff = (unitary_of(build_oracle(targets))
                    - unitary_of(build_O_conv(targets)))
            sv = np.linalg.svd(diff, compute_uv=False)
            kernel = int(np.sum(sv < 1e-8))
            assert kernel == (1 << n) - targets.size + 1
        assert time.perf_counter() - start < 30.0


def test_criterion_5_variant_equivalence():
    with _Report(5):
        start = time.perf_counter()
        rng = np.random.default_rng(2025)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            targets = random_target_set(rng, n, max_size=(1 << n) - 1)
            sched = analytic_schedule(n, targets.size)
            k_max = 2 * sched.k_star
            runs = [grover_states(targets, v, k_max)
                    for v in ("conventional", "modified", "reduced")]
            for (k, a), (_, b), (_, c) in zip(*runs):
                assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-10
                assert np.abs(a.amplitudes - c.amplitudes).max() < 1e-10
                got = success_probability(a, targets)
                assert abs(got - sched.success(k)) < 1e-10
        assert time.perf_counter() - start < 120.0


def test_criterion_6_stage_invariant():
    with _Report(6):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            targets = random_target_set(rng, n)
            table = build_prefix_table(targets)
            state = StateVector.basis(n, 0)
            for m in range(1, n + 1):
                state = apply_circuit(state, build_stage(table, m))
                want = np.zeros(1 << n, dtype=complex)
                for alpha in table.support(m):
                    p = marginal_prob(table, m, alpha)
                    want[alpha << (n - m)] = float(p) ** 0.5
                assert np.abs(state.amplitudes - want).max() < 1e-10


def test_criterion_7_lowering_soundness():
    with _Report(7):
        rng = np.random.default_rng(2027)
        builders = [
            lambda t: build_U(t),
            lambda t: build_oracle(t),
            lambda t: build_U_tilde(t.size, t.n),
            lambda t: build_pi_sigma(t, "exact")[0],
        ]
        for i in range(100):
            n = int(rng.integers(1, 7))
            targets = random_target_set(rng, n)
            circuit = builders[i % len(builders)](targets)
            lowered = lower(circuit)
            assert all(isinstance(g, Single) or is_cnot(g)
                       for g in lowered.gates)
            a = unitary_of(circuit)
            b = unitary_of(lowered)
            assert np.abs(phase_align(b, a) - a).max() < 1e-9


def test_criterion_8_complexity_bounds():
    with _Report(8):
        assert bound_U_tilde(3) == 19
        rng = np.random.default_rng(2028)
        for n in range(1, 11):
            sizes = set(rng.integers(1, (1 << n) + 1, size=6).tolist())
            for s in sizes:
                labels = rng.choice(1 << n, size=s, replace=False)
                targets = TargetSet(n, tuple(sorted(int(x) for x in labels)))
                _, l = canonical_targets(targets)
                assert count(build_U(targets)) <= bound_U(n, s)
                assert count(build_U_tilde(s, n)) <= bound_U_tilde(l)
                pi_circ, _ = build_pi_sigma(targets, "paper", validate=False)
                assert count(pi_circ) <= bound_pi(n, s)


def test_criterion_9_crossover():
    with _Report(9):
        start = time.perf_counter()
        grid = [round(0.01 * i, 2) for i in range(1, 100)]
        crossing = min(g for g in grid if gamma_approx(1000, g) >= 1.0)
        assert 0.69 <= crossing <= 0.73
        for gamma in np.arange(0.1, 0.9001, 0.05):
            gamma = round(float(gamma), 4)
            assert abs(gamma_approx(100_000, gamma) - 2 * gamma ** 2) < 1e-3
        assert time.perf_counter() - start < 5.0


def test_criterion_10_desk_scale_search():
    with _Report(10):
        start = time.perf_counter()
        rng = np.random.default_rng(2030)
        n = 16
        labels = rng.choice(1 << n, size=3, replace=False)
        targets = TargetSet(n, tuple(sorted(int(x) for x in labels)))
        sched = analytic_schedule(n, 3)
        state = grover_run(targets, "reduced", sched.k_star)
        p = success_probability(state, targets)
        assert p >= 0.99
        assert abs(p - sched.success(sched.k_star)) < 1e-9
        assert time.perf_counter() - start < 60.0
