import re

import numpy as np
import pytest
from conftest import phase_align, target_sets
from hypothesis import given, settings

from grover_forge import (Circuit, Controlled, PatternPhase, Single,
                          ValidationError, build_oracle, build_pi_sigma,
                          build_U, build_U_tilde, lower, to_qasm, unitary_of)
from grover_forge.ir import H, X
from grover_forge.lowering import _ry, _rz

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
