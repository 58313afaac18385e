import re

import numpy as np
import pytest
from conftest import circuits as random_circuits
from conftest import phase_align, random_unitary_2x2, target_sets
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_forge import (Circuit, Controlled, PatternPhase, Single,
                          TargetSet, ValidationError, build_oracle,
                          build_pi_sigma, build_U, build_U_tilde, ir,
                          lower, lowering, to_qasm, unitary_of)
from grover_forge.ir import H, X
from grover_forge.lowering import ATOL_DROP, _mux, _ry, _rz
from grover_forge.qasm import _single_lines

HEADER = ["OPENQASM 2.0;", 'include "qelib1.inc";']


def body(circuit):
    lines = to_qasm(circuit).splitlines()
    assert lines[:3] == HEADER + [f"qreg q[{circuit.n}];"]
    return lines[3:]


def test_named_gates():
    circuit = Circuit(2, (Single(X, 0), Single(H, 1),
                          Controlled.from_pairs(((0, 1),), X, 1)))
    assert body(circuit) == ["x q[0];", "h q[1];", "cx q[0],q[1];"]


def test_identity_emits_nothing():
    assert body(Circuit(1, (Single(np.eye(2), 0),))) == []


def test_near_hadamard_is_not_h():
    # 1e-5 rad away from H: within a relative 1e-5, far outside ATOL_UNITARY.
    lines = body(Circuit(1, (Single(H @ _rz(1e-5), 0),)))
    assert lines != ["h q[0];"]
    assert any(line.startswith("rz(") for line in lines)


@pytest.mark.parametrize("gate", [
    Controlled.from_pairs(((0, 1), (1, 1)), X, 2),
    Controlled.from_pairs(((0, 0),), X, 2),
    Controlled.from_pairs(((0, 1),), H, 2),
    PatternPhase("000", -1),
])
def test_unlowered_gates_rejected(gate):
    with pytest.raises(ValidationError, match="lowered"):
        to_qasm(Circuit(3, (gate,)))


def parse_qasm(text):
    """The circuit a lowered QASM file names, read back line by line."""
    blocks = {"rz": _rz, "ry": _ry}
    lines = text.splitlines()
    n = int(re.fullmatch(r"qreg q\[(\d+)\];", lines[2])[1])
    gates = []
    for line in lines[3:]:
        if m := re.fullmatch(r"(rz|ry)\((.+)\) q\[(\d+)\];", line):
            gates.append(Single(blocks[m[1]](float(m[2])), int(m[3])))
        elif m := re.fullmatch(r"(x|h) q\[(\d+)\];", line):
            gates.append(Single(X if m[1] == "x" else H, int(m[2])))
        else:
            m = re.fullmatch(r"cx q\[(\d+)\],q\[(\d+)\];", line)
            gates.append(Controlled.from_pairs(((int(m[1]), 1),), X,
                                               int(m[2])))
    return Circuit(n, tuple(gates))


def test_lowered_qasm_round_trip():
    # A pattern phase lowers to Rz multiplexors, and a mixed-polarity
    # controlled H to its eigenbasis and a diagonal: the QASM holds rz,
    # ry and cx lines, and read back it is the circuit up to phase.
    circuit = Circuit(3, (Single(H, 0), PatternPhase("101", np.exp(0.3j)),
                          Controlled.from_pairs(((0, 1), (2, 0)), H, 1),
                          PatternPhase("010", -1)))
    text = to_qasm(lower(circuit))
    kinds = {re.match(r"\w+", line)[0] for line in text.splitlines()[3:]}
    assert {"rz", "ry", "cx"} <= kinds
    want = unitary_of(circuit)
    got = unitary_of(parse_qasm(text))
    assert np.abs(phase_align(got, want) - want).max() < 1e-9


@pytest.mark.parametrize("theta", [0.3, -0.3, -np.pi / 2, np.pi, -np.pi])
def test_real_rotation_is_one_ry(theta):
    # One ry with the signed angle, not rz(-pi) ry(|theta|) rz(pi): the
    # Rz pair and Rz(2 pi) = -I are only a global phase.
    circuit = Circuit(1, (Single(_ry(theta), 0),))
    lines = body(circuit)
    assert len(lines) == 1 and lines[0].startswith("ry(")
    got = unitary_of(parse_qasm(to_qasm(circuit)))
    assert np.abs(phase_align(got, _ry(theta)) - _ry(theta)).max() < 1e-12


@settings(derandomize=True, deadline=None, max_examples=25)
@given(target_sets(2, 7, max_size=24))
def test_one_qasm_line_per_lowered_single(targets):
    circuits = (build_U(targets), build_U_tilde(targets.size, targets.n),
                build_oracle(targets), build_pi_sigma(targets, "exact")[0])
    for circuit in circuits:
        lowered = lower(circuit)
        singles = sum(isinstance(g, Single) for g in lowered.gates)
        lines = body(lowered)
        assert sum(not line.startswith("cx ") for line in lines) == singles


def test_near_x_controlled_is_not_cx():
    # The block of test_near_x_block_is_not_a_cnot, 1e-5 away from X.
    gate = Controlled.from_pairs(((0, 1),), X @ np.diag([1, np.exp(1e-5j)]),
                                 1)
    with pytest.raises(ValidationError, match="lowered"):
        to_qasm(Circuit(2, (gate,)))


def assert_printed_as_block(axis, angle):
    """The rotation a one-angle multiplexor emits prints the lines that
    `_single_lines` writes for its block."""
    gates = _mux(axis, [], 0, np.array([angle], dtype=float))
    assert len(gates) == (abs(angle) > ATOL_DROP)
    for gate in gates:
        assert gate._spelling is not None
        assert body(Circuit(1, (gate,))) == _single_lines(gate.u, 0)


# Where a printer working from the angle alone, such as one reducing it
# mod 2 pi, parts from the block's spelling: near the identity, which the
# block test drops, and at +-pi and 2 pi - 1e-12, where the angle's sign
# flips.
EDGE_ANGLES = [0.0, 1e-13, 1.5e-12, 2.5e-12, np.pi, 2 * np.pi,
               2 * np.pi - 1e-12, 2 * np.pi + 1e-12, 4 * np.pi - 1e-12,
               *(np.pi + d for d in (1e-12, -1e-12, 1.5e-12, -1.5e-12))]


@pytest.mark.parametrize("axis", ["ry", "rz"])
@pytest.mark.parametrize("angle", EDGE_ANGLES + [-a for a in EDGE_ANGLES])
def test_recorded_spelling_at_edge_angles(axis, angle):
    assert_printed_as_block(axis, angle)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(["ry", "rz"]),
       st.floats(-2 * np.pi, 2 * np.pi, allow_subnormal=False))
def test_recorded_spelling_drawn(axis, angle):
    assert_printed_as_block(axis, angle)


def test_recorded_spelling_seeded_bulk():
    # Uniform angles, and angles within 1e-10 of 0, +-pi and +-2 pi, where
    # the tolerance tests of the block's spelling decide.
    rng = np.random.default_rng(14)
    near = 10 ** rng.uniform(-14, -10, 500) * rng.choice([-1, 1], 500)
    angles = np.concatenate([rng.uniform(-2 * np.pi, 2 * np.pi, 2000),
                             *(base + near for base in
                               (0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi))])
    for axis in ("ry", "rz"):
        for angle in angles:
            assert_printed_as_block(axis, float(angle))


def rebuilt(circuit):
    """The same gates as plain, validated Single and Controlled gates, which
    to_qasm spells from their blocks."""
    return Circuit(circuit.n, tuple(
        Single(g.u, g.target) if isinstance(g, Single)
        else Controlled(g.mask, g.value, g.u, g.target)
        for g in circuit.gates))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(target_sets(1, 7, max_size=24))
def test_lowered_qasm_equals_rebuilt_built_circuits(targets):
    circuits = (build_U(targets), build_U_tilde(targets.size, targets.n),
                build_oracle(targets), build_pi_sigma(targets, "exact")[0])
    for circuit in circuits:
        lowered = lower(circuit)
        assert to_qasm(lowered) == to_qasm(rebuilt(lowered))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(random_circuits())
def test_lowered_qasm_equals_rebuilt_drawn_circuits(circuit):
    # Random blocks: each eigenbasis change W and W^dagger is spelled by
    # zyz_angles once, at lowering time.
    lowered = lower(circuit)
    assert to_qasm(lowered) == to_qasm(rebuilt(lowered))


def _refuse(*args, **kwargs):
    raise AssertionError("a derived gate was checked again")


def test_lowering_and_export_skip_rechecks(monkeypatch):
    # Blocks are checked where they enter.  The builders, lower() and
    # to_qasm() derive every gate from checked blocks: with the unitarity
    # check refused, they still run, and to_qasm prints what lower()
    # recorded, without zyz_angles or a block comparison.
    rng = np.random.default_rng(5)
    hand_built = Circuit(3, (
        Single(random_unitary_2x2(rng), 0), Single(H, 2),
        Controlled.from_pairs(((0, 1), (2, 0)), random_unitary_2x2(rng), 1),
        Controlled.from_pairs(((2, 0),), X, 0), PatternPhase("101", 1j)))
    targets = TargetSet(6, (3, 17, 40, 41, 62))
    monkeypatch.setattr(ir, "_as_unitary", _refuse)
    circuits = (build_U(targets), build_oracle(targets),
                build_U_tilde(targets.size, targets.n),
                build_pi_sigma(targets, "exact")[0], hand_built)
    lowered = [lower(c) for c in circuits]
    monkeypatch.setattr(lowering, "zyz_angles", _refuse)
    monkeypatch.setattr(lowering, "blocks_close", _refuse)
    for circuit in lowered:
        assert "cx q[" in to_qasm(circuit)
        assert all(not g.u.flags.writeable for g in circuit.gates)
