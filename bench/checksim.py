"""A small state-vector simulator for checking the program's outputs.

It reads the circuit JSON that `synth --out` writes and the OpenQASM that
`synth --qasm` writes, and applies both to the same state. It shares no
code with the package under test: gates act on a `(2,) * n` view through
basic indexing, where the package uses masks and axis moves.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# (controls, 2x2 block, target); controls are (qubit, required bit) pairs.
Gate = tuple[tuple[tuple[int, int], ...], np.ndarray, int]


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


@dataclass
class Program:
    n: int
    gates: list[Gate]

    @property
    def cnots(self) -> int:
        return sum(1 for controls, _, _ in self.gates if controls)

    @property
    def singles(self) -> int:
        return sum(1 for controls, _, _ in self.gates if not controls)

    def run(self, state: np.ndarray) -> np.ndarray:
        psi = state.reshape((2,) * self.n).copy()
        for controls, u, target in self.gates:
            index = [slice(None)] * self.n
            for q, b in controls:
                index[q] = b
            index[target] = 0
            lo = tuple(index)
            index[target] = 1
            hi = tuple(index)
            a0, a1 = psi[lo].copy(), psi[hi].copy()
            psi[lo] = u[0, 0] * a0 + u[0, 1] * a1
            psi[hi] = u[1, 0] * a0 + u[1, 1] * a1
        return psi.reshape(-1)


def _block(entries) -> np.ndarray:
    return np.array([complex(re_, im) for re_, im in entries]).reshape(2, 2)


def load_circuit_json(path) -> Program:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    gates: list[Gate] = []
    for entry in data["gates"]:
        if entry["kind"] == "single":
            gates.append(((), _block(entry["u"]), entry["target"]))
        elif entry["kind"] == "controlled":
            controls = tuple((q, b) for q, b in entry["controls"])
            gates.append((controls, _block(entry["u"]), entry["target"]))
        else:
            # A basis-state phase is a diagonal block on the last qubit,
            # controlled on the pattern's other bits.
            pattern = entry["pattern"]
            phase = complex(*entry["phase"])
            diag = [1, phase] if pattern[-1] == "1" else [phase, 1]
            controls = tuple((q, int(b)) for q, b in enumerate(pattern[:-1]))
            gates.append((controls, np.diag(diag), len(pattern) - 1))
    return Program(int(data["n"]), gates)


_QASM_GATE = re.compile(
    r"^(x|h|rz|ry)(?:\(([^)]*)\))? q\[(\d+)\];$|^cx q\[(\d+)\],q\[(\d+)\];$")


def parse_qasm(text: str) -> Program | str:
    """The lowered program, or the reason it is not 1q + CNOT QASM."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    head = len(lines) > 2 and re.match(r"^qreg q\[(\d+)\];$", lines[2])
    if lines[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";'] or not head:
        return "missing OPENQASM header or register"
    n = int(head.group(1))
    gates: list[Gate] = []
    for line in lines[3:]:
        m = _QASM_GATE.match(line)
        if m is None:
            return f"not a 1q or CNOT instruction: {line!r}"
        name, arg, q, control, target = m.groups()
        qubits = {int(v) for v in (q, control, target) if v is not None}
        if max(qubits) >= n or (name is None and len(qubits) != 2):
            return f"bad qubit operands: {line!r}"
        if name is None:
            gates.append((((int(control), 1),), X, int(target)))
        elif name in ("x", "h"):
            gates.append(((), X if name == "x" else H, int(q)))
        else:
            rot = _rz if name == "rz" else _ry
            gates.append(((), rot(float(arg)), int(q)))
    return Program(n, gates)


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return z / np.linalg.norm(z)


def phase_aligned_error(want: np.ndarray, got: np.ndarray) -> float:
    """max |want - e^{i a} got| for the best global phase a."""
    overlap = np.vdot(got, want)
    if abs(overlap) == 0:
        return float("inf")
    return float(np.abs(want - got * (overlap / abs(overlap))).max())
