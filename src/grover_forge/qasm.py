"""OpenQASM 2.0 export of lowered circuits.

Only the lowered gate alphabet is accepted: single-qubit unitaries and
CNOTs.  A single-qubit block is emitted as x or h where it matches one
within ATOL_UNITARY entrywise, as nothing where it matches the identity,
and otherwise as the rz, ry and rz of `zyz_angles` whose angles exceed
ATOL_UNITARY, so a real rotation of either sign is one ry; global phase
is dropped.  A `Single` from `lower` carries that spelling already, and
is printed as it is; only a gate built by hand is spelled here.
"""
from __future__ import annotations

from .errors import ValidationError
from .ir import Circuit, Controlled, Single
from .lowering import _spell, is_cnot


def _fmt(angle: float) -> str:
    return repr(round(angle, 12))


def _lines(spelling: tuple, q: int) -> list[str]:
    return [f"{name} q[{q}];" if angle is None
            else f"{name}({_fmt(angle)}) q[{q}];"
            for name, angle in spelling]


def _single_lines(u, q: int) -> list[str]:
    return _lines(_spell(u), q)


def to_qasm(circuit: Circuit) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";',
             f"qreg q[{circuit.n}];"]
    for gate in circuit.gates:
        if isinstance(gate, Single):
            spelling = gate._spelling
            lines += (_single_lines(gate.u, gate.target) if spelling is None
                      else _lines(spelling, gate.target))
        elif isinstance(gate, Controlled) and is_cnot(gate):
            lines.append(f"cx q[{gate.mask.bit_length() - 1}],"
                         f"q[{gate.target}];")
        else:
            raise ValidationError(
                "QASM export accepts lowered circuits only "
                "(single-qubit gates and CNOTs)")
    return "\n".join(lines) + "\n"
