import numpy as np
import pytest
from conftest import phase_align, random_unitary_2x2
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_forge import (Circuit, Controlled, PatternPhase, Single,
                          ValidationError, unitary_of)
from grover_forge.ir import H, X
from grover_forge.lowering import (MAX_LOWERED_CNOTS, _ry, is_cnot, lower,
                                   zyz_angles)
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


def cnot_count(circuit):
    return sum(1 for g in circuit.gates if is_cnot(g))


@st.composite
def blocks(draw):
    """A 2x2 block: random, random of determinant 1, X, Z, H, a multiple of
    I, or e^{i phi} Ry(eps) with eigenvalues eps apart."""
    kind = draw(st.sampled_from(["random", "det1", "X", "Z", "H", "scalar",
                                 "near"]))
    phi = draw(st.floats(-np.pi, np.pi))
    if kind in ("random", "det1"):
        seed = draw(st.integers(0, 2 ** 32 - 1))
        u = random_unitary_2x2(np.random.default_rng(seed))
        return u / np.sqrt(np.linalg.det(u)) if kind == "det1" else u
    if kind == "scalar":
        return np.exp(1j * phi) * np.eye(2)
    if kind == "near":
        eps = draw(st.sampled_from([1e-6, 1e-10, 1e-13]))
        return np.exp(1j * phi) * _ry(eps)
    return {"X": X, "Z": np.diag([1, -1]), "H": H}[kind]


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 6))
    kinds = ["single", "phase"] + (["controlled"] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=5)):
        if kind == "phase":
            gates.append(PatternPhase(
                draw(st.text("01", min_size=n, max_size=n)),
                np.exp(1j * draw(st.floats(-np.pi, np.pi)))))
            continue
        target = draw(st.integers(0, n - 1))
        if kind == "single":
            gates.append(Single(draw(blocks()), target))
            continue
        others = [q for q in range(n) if q != target]
        qubits = draw(st.lists(st.sampled_from(others), min_size=1,
                               max_size=n - 1, unique=True))
        bits = draw(st.lists(st.integers(0, 1), min_size=len(qubits),
                             max_size=len(qubits)))
        gates.append(Controlled.from_pairs(zip(qubits, bits), draw(blocks()),
                                           target))
    return Circuit(n, tuple(gates))


@settings(max_examples=80, deadline=None)
@given(circuits())
def test_lowering_matches_source_on_drawn_circuits(circuit):
    lowered = lower(circuit)
    assert only_basis_gates(lowered)
    assert_equivalent(circuit, lowered)


# CNOTs per gate before every controlled gate and pattern phase became one
# diagonal: recursive square-root control reduction, C^1 X 1, C^1 U 2, and
# the same count for X, U and a phase from two controls on.
RECURSIVE_CNOTS = {1: 2, 2: 8, 3: 28, 4: 88, 5: 268, 6: 808, 7: 2428}


@pytest.mark.parametrize("m", range(1, 8))
def test_cnots_per_gate(m):
    # Mixed polarities: control q requires q % 2.
    controls = tuple((q, q % 2) for q in range(m))
    u = random_unitary_2x2(np.random.default_rng(900 + m))
    x_gate = Circuit(m + 1, (Controlled.from_pairs(controls, X, m),))
    u_gate = Circuit(m + 1, (Controlled.from_pairs(controls, u, m),))
    pattern = "".join(str(q % 2) for q in range(m + 1))
    phase = Circuit(m + 1, (PatternPhase(pattern, np.exp(0.7j)),))
    diagonal = (1 << (m + 1)) - 2
    want = {"x": 1 if m == 1 else diagonal, "u": diagonal, "phase": diagonal}
    parent = {"x": 1 if m == 1 else RECURSIVE_CNOTS[m],
              "u": RECURSIVE_CNOTS[m], "phase": RECURSIVE_CNOTS[m]}
    for name, circuit in (("x", x_gate), ("u", u_gate), ("phase", phase)):
        lowered = lower(circuit)
        assert only_basis_gates(lowered)
        assert cnot_count(lowered) == want[name] <= parent[name]
        assert_equivalent(circuit, lowered)


def test_positive_single_control_x_is_one_cnot():
    lowered = lower(Circuit(2, (Controlled.from_pairs(((0, 1),), X, 1),)))
    assert len(lowered.gates) == 1 and is_cnot(lowered.gates[0])


def test_scalar_block_lowers_to_a_phase_on_the_controls():
    # e^{i phi} I on the target is a phase on the controls alone: a
    # diagonal over the two controls, 2 CNOTs, none of them on qubit 2.
    gate = Controlled.from_pairs(((0, 1), (1, 0)), np.exp(0.4j) * np.eye(2), 2)
    lowered = lower(Circuit(3, (gate,)))
    assert cnot_count(lowered) == 2
    assert all(g.target != 2 for g in lowered.gates)
    assert_equivalent(Circuit(3, (gate,)), lowered)


@pytest.mark.parametrize("n, gate", [
    (17, PatternPhase("1" * 17, -1)),
    (41, Controlled((1 << 40) - 1, 0, H, 40)),
])
def test_cnot_budget_refuses_before_building(n, gate, monkeypatch):
    # 2^17 and 2^41 CNOTs: refused before any phase array is allocated.
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(ValidationError, match=str(MAX_LOWERED_CNOTS)):
        lower(Circuit(n, (gate,)))
