"""OpenQASM 2.0 export of lowered circuits.

Only the lowered gate alphabet is accepted: single-qubit unitaries and
CNOTs.  A single-qubit block is emitted as x or h where it matches one
within ATOL_UNITARY entrywise, as nothing where it matches the identity,
and otherwise as the rz, ry and rz of `zyz_angles` whose angles exceed
ATOL_UNITARY, so a real rotation of either sign is one ry; global phase
is dropped.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .ir import (ATOL_UNITARY, I2, Circuit, Controlled, H, Single, X,
                 blocks_close)
from .lowering import is_cnot, zyz_angles


def _fmt(angle: float) -> str:
    return repr(round(angle, 12))


def _single_lines(u: np.ndarray, q: int) -> list[str]:
    if blocks_close(u, I2):
        return []
    if blocks_close(u, X):
        return [f"x q[{q}];"]
    if blocks_close(u, H):
        return [f"h q[{q}];"]
    _, beta, gamma, delta = zyz_angles(u)  # global phase dropped
    lines = []
    if abs(delta) > ATOL_UNITARY:
        lines.append(f"rz({_fmt(delta)}) q[{q}];")
    if abs(gamma) > ATOL_UNITARY:
        lines.append(f"ry({_fmt(gamma)}) q[{q}];")
    if abs(beta) > ATOL_UNITARY:
        lines.append(f"rz({_fmt(beta)}) q[{q}];")
    return lines


def to_qasm(circuit: Circuit) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{circuit.n}];"]
    for gate in circuit.gates:
        if isinstance(gate, Single):
            lines += _single_lines(np.asarray(gate.u), gate.target)
        elif isinstance(gate, Controlled) and is_cnot(gate):
            lines.append(f"cx q[{gate.controls[0][0]}],q[{gate.target}];")
        else:
            raise ValidationError(
                "QASM export accepts lowered circuits only "
                "(single-qubit gates and CNOTs)")
    return "\n".join(lines) + "\n"
