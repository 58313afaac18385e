import numpy as np
import pytest
from conftest import phase_align, random_unitary_2x2

from grover_forge import Circuit, Controlled, PatternPhase, Single, unitary_of
from grover_forge.ir import X
from grover_forge.lowering import _ry, is_cnot, lower, sqrt_unitary, zyz_angles
from grover_forge.synth import build_stage
from grover_forge.dichotomy import build_prefix_table
from grover_forge.targets import TargetSet


def only_basis_gates(circuit):
    return all(isinstance(g, Single) or is_cnot(g) for g in circuit.gates)


def assert_equivalent(original, lowered, atol=1e-9):
    a = unitary_of(original)
    b = unitary_of(lowered)
    assert np.abs(phase_align(b, a) - a).max() < atol


def test_zyz_reconstructs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = random_unitary_2x2(rng)
        alpha, beta, gamma, delta = zyz_angles(u)
        rz = lambda t: np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
        rec = np.exp(1j * alpha) * rz(beta) @ _ry(gamma) @ rz(delta)
        assert np.allclose(rec, u, atol=1e-10)


def test_sqrt_unitary():
    rng = np.random.default_rng(1)
    for u in [random_unitary_2x2(rng) for _ in range(20)] + [X, -np.eye(2)]:
        s = sqrt_unitary(np.asarray(u, dtype=complex))
        assert np.allclose(s @ s, u, atol=1e-10)


def test_uncontrolled_gate_passes_through():
    rng = np.random.default_rng(2)
    gate = Single(random_unitary_2x2(rng), 1)
    lowered = lower(Circuit(3, (gate,)))
    assert lowered.gates == (gate,)


def test_singly_controlled_ry_two_cnots():
    theta = 1.234
    circuit = Circuit(2, (Controlled.from_pairs(((0, 1),), _ry(theta), 1),))
    lowered = lower(circuit)
    assert only_basis_gates(lowered)
    cnots = [g for g in lowered.gates if is_cnot(g)]
    rys = [g for g in lowered.gates if isinstance(g, Single)]
    assert len(cnots) == 2 and len(rys) == 2
    assert_equivalent(circuit, lowered)


def test_rotation_stage_lowers_jointly():
    # One synthesis stage: controls {0, 1}, target 2, two patterns.
    targets = TargetSet(3, (0, 1, 2, 4))
    table = build_prefix_table(targets)
    stage = build_stage(table, 3)
    lowered = lower(stage)
    assert only_basis_gates(lowered)
    m = 2
    assert sum(1 for g in lowered.gates if is_cnot(g)) == 1 << m
    assert sum(1 for g in lowered.gates if isinstance(g, Single)) <= 1 << m
    assert_equivalent(stage, lowered)


def test_merged_stage_of_equal_rotations():
    # Two controlled gates with the same block on opposite control values
    # act as an uncontrolled gate on the target wire.
    v = _ry(np.pi / 2)
    circuit = Circuit(3, (Controlled.from_pairs(((1, 0),), v, 2),
                          Controlled.from_pairs(((1, 1),), v, 2)))
    lowered = lower(circuit)
    assert only_basis_gates(lowered)
    assert_equivalent(circuit, lowered)
    want = np.kron(np.eye(4), v)
    assert np.abs(unitary_of(lowered) - want).max() < 1e-12


def test_pattern_phase_lowering():
    circuit = Circuit(4, (PatternPhase("0000", -1),))
    lowered = lower(circuit)
    assert only_basis_gates(lowered)
    assert_equivalent(circuit, lowered)


def test_small_phase_rotations_kept():
    # Rz rotations of 2.5e-6 rad differ from the identity by less than a
    # relative 1e-5 but must still be emitted.
    circuit = Circuit(2, (PatternPhase("11", np.exp(1j * 1e-5)),))
    lowered = lower(circuit)
    assert only_basis_gates(lowered)
    assert_equivalent(circuit, lowered)


def test_near_x_block_is_not_a_cnot():
    # 1e-5 away from X: a bare CNOT would be off by 1e-5.
    circuit = Circuit(2, (Controlled.from_pairs(
        ((0, 1),), X @ np.diag([1, np.exp(1j * 1e-5)]), 1),))
    lowered = lower(circuit)
    assert only_basis_gates(lowered)
    assert_equivalent(circuit, lowered)


def test_mixed_polarity_multi_control():
    rng = np.random.default_rng(3)
    circuit = Circuit(4, (Controlled.from_pairs(((0, 0), (1, 1), (3, 0)),
                                                random_unitary_2x2(rng), 2),))
    lowered = lower(circuit)
    assert only_basis_gates(lowered)
    assert_equivalent(circuit, lowered)


@pytest.mark.parametrize("seed", range(8))
def test_random_circuits_equivalent(seed):
    rng = np.random.default_rng(50 + seed)
    n = int(rng.integers(2, 6))
    gates = []
    for _ in range(5):
        kind = rng.integers(0, 3)
        t = int(rng.integers(0, n))
        if kind == 0:
            gates.append(Single(random_unitary_2x2(rng), t))
        elif kind == 1:
            others = [q for q in range(n) if q != t]
            m = int(rng.integers(1, len(others) + 1))
            controls = tuple(
                (int(q), int(rng.integers(0, 2)))
                for q in rng.choice(others, size=m, replace=False))
            u = _ry(rng.uniform(0, 2 * np.pi)) if rng.random() < 0.5 \
                else random_unitary_2x2(rng)
            gates.append(Controlled.from_pairs(controls, u, t))
        else:
            pattern = "".join(str(int(b)) for b in rng.integers(0, 2, n))
            gates.append(PatternPhase(pattern,
                                      np.exp(1j * rng.uniform(0, 2 * np.pi))))
    circuit = Circuit(n, tuple(gates))
    lowered = lower(circuit)
    assert only_basis_gates(lowered)
    assert_equivalent(circuit, lowered)


def loop_angle_transform(theta):
    """Reference: phi[k] = mean over a of (-1)^{popcount(a & gray(k))}
    theta[a], one term at a time."""
    size = len(theta)
    phi = np.zeros(size)
    for k in range(size):
        g = k ^ (k >> 1)
        phi[k] = sum(-t if bin(a & g).count("1") % 2 else t
                     for a, t in enumerate(theta)) / size
    return phi


@pytest.mark.parametrize("m", range(1, 7))
def test_multiplexor_angles_match_loop_transform(m):
    # Controls on qubits 0..m-1, target m; bit b of pattern a is the
    # required value of qubit m-1-b.
    rng = np.random.default_rng(m)
    theta = rng.uniform(-1.5, 1.5, size=1 << m)
    mask = (1 << m) - 1
    run = [Controlled(mask, int(format(a, f"0{m}b")[::-1], 2),
                      _ry(t), m) for a, t in enumerate(theta)]
    lowered = lower(Circuit(m + 1, tuple(run)))
    angles = [2 * np.arctan2(g.u[1, 0].real, g.u[0, 0].real)
              for g in lowered.gates if isinstance(g, Single)]
    assert len(angles) == 1 << m
    assert np.abs(np.array(angles) - loop_angle_transform(theta)).max() \
        < 1e-12
    assert_equivalent(Circuit(m + 1, tuple(run)), lowered)
