import numpy as np
import pytest

from grover_forge import (Circuit, Controlled, PatternPhase, Single,
                          ValidationError, to_qasm)
from grover_forge.ir import H, X
from grover_forge.lowering import _rz

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
