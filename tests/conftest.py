import random

import numpy as np
import pytest
from hypothesis import strategies as st

from grover_forge import (TargetSet, build_prefix_table, build_stage,
                          conditional_prob)
from grover_forge.ir import Circuit, Controlled, PatternPhase, Single


@pytest.fixture
def example_targets():
    """The four-target, three-qubit worked example."""
    return TargetSet.from_labels(3, ["000", "001", "010", "100"])


def random_target_set(rng, n, max_size=None):
    top = max_size or (1 << n)
    size = int(rng.integers(1, top + 1))
    labels = rng.choice(1 << n, size=size, replace=False)
    return TargetSet(n, tuple(sorted(int(x) for x in labels)))


@st.composite
def target_sets(draw, min_n, max_n, max_size=None):
    """Hypothesis strategy: a nonempty set on min_n..max_n qubits."""
    n = draw(st.integers(min_n, max_n))
    top = min(1 << n, max_size or (1 << n))
    labels = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1,
                          max_size=top))
    return TargetSet(n, tuple(sorted(labels)))


def wide_target_set(seed, n, size):
    """A seeded set of `size` labels drawn from all n bits, for any n."""
    rng = random.Random(seed)
    labels = set()
    while len(labels) < size:
        labels.add(rng.getrandbits(n))
    return TargetSet(n, tuple(sorted(labels)))


def stage_pair_controls(targets):
    """(control pairs, target) of each Controlled gate of build_U, by the
    (qubit, bit) pair formula: a stage-m rotation for prefix alpha controls
    qubits 0..m-2 on the MSB-first bits of alpha."""
    table = build_prefix_table(targets)
    out = []
    for m in range(2, targets.n + 1):
        depth = m - 1
        if not any(isinstance(g, Controlled)
                   for g in build_stage(table, m).gates):
            continue  # the stage is empty or collapsed to one Single
        for alpha in sorted(table.support(depth)):
            if conditional_prob(table, depth, 1, alpha) != 0:
                controls = tuple((q, (alpha >> (depth - 1 - q)) & 1)
                                 for q in range(depth))
                out.append((controls, m - 1))
    return out


def random_unitary_2x2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def circuits(draw):
    """Hypothesis strategy: up to 8 gates of every kind on 1..4 qubits,
    random blocks, mixed control polarities."""
    n = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["single", "controlled", "pattern"]))
        if kind == "pattern":
            pattern = "".join(draw(st.lists(st.sampled_from("01"),
                                            min_size=n, max_size=n)))
            angle = draw(st.floats(-np.pi, np.pi))
            gates.append(PatternPhase(pattern, np.exp(1j * angle)))
            continue
        rng = np.random.default_rng(draw(st.integers(0, 999)))
        u = random_unitary_2x2(rng)
        target = draw(st.integers(0, n - 1))
        others = [q for q in range(n) if q != target]
        if kind == "single" or not others:
            gates.append(Single(u, target))
            continue
        qubits = draw(st.lists(st.sampled_from(others), min_size=1,
                               unique=True))
        controls = tuple((q, draw(st.integers(0, 1))) for q in qubits)
        gates.append(Controlled.from_pairs(controls, u, target))
    return Circuit(n, tuple(gates))


def phase_align(a, b):
    """Scale `a` by a unit phase so its largest-|b| entry matches b."""
    i = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    return a * (b[i] / a[i])


def dense_gate_matrix(gate, n):
    """Independent dense matrix of one gate, from projectors and krons."""
    dim = 1 << n
    if isinstance(gate, Single):
        mat = np.array([[1]], dtype=complex)
        for q in range(n):
            mat = np.kron(mat, gate.u if q == gate.target else np.eye(2))
        return mat
    if isinstance(gate, PatternPhase):
        diag = np.ones(dim, dtype=complex)
        diag[int(gate.pattern, 2)] = gate.phase
        return np.diag(diag)
    if isinstance(gate, Controlled):
        mat = np.eye(dim, dtype=complex)
        for x in range(dim):
            if all(((x >> (n - 1 - q)) & 1) == b for q, b in gate.controls):
                tbit = 1 << (n - 1 - gate.target)
                if x & tbit == 0:
                    x0, x1 = x, x | tbit
                    mat[x0, x0] = gate.u[0, 0]
                    mat[x0, x1] = gate.u[0, 1]
                    mat[x1, x0] = gate.u[1, 0]
                    mat[x1, x1] = gate.u[1, 1]
        return mat
    raise TypeError(gate)


def state_of_targets(targets):
    """|S> built directly from amplitudes, bypassing synthesis."""
    amps = np.zeros(1 << targets.n, dtype=complex)
    amps[list(targets.labels)] = targets.size ** -0.5
    return amps
