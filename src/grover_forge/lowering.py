"""Lowering of the gate IR to single-qubit gates plus CNOTs.

One primitive emits the CNOTs: the gray-code multiplexor `_mux`, a y or z
rotation on a target whose angle depends on the pattern of m other
qubits, as 2^m rotations and 2^m CNOTs.  A run of controlled real
rotations sharing target and controls (every synthesis stage) is one Ry
multiplexor.  A diagonal on k qubits is a cascade of Rz multiplexors with
2^k - 2 CNOTs; a pattern phase is one diagonal over all n qubits.  Any
other controlled gate is a diagonal in its block's eigenbasis: with
u = W diag(e^{i a0}, e^{i a1}) W^dagger it becomes W^dagger on the
target, one diagonal over the controls and the target, then W.  Only a
single-control X bypasses the multiplexor, as one CNOT.  Global phase is
dropped.
"""
from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .errors import ValidationError
from .ir import (ATOL_UNITARY, I2, Circuit, Controlled, Gate, PatternPhase,
                 Single, X, blocks_close)

# A rotation angle, phase or block this close to zero or the identity is
# dropped from the lowered circuit.
ATOL_DROP = 1e-14

# The most CNOTs `lower` emits; it refuses a circuit that needs more.  This
# admits U of every target set on up to 16 qubits (2^16 - 2 CNOTs).
MAX_LOWERED_CNOTS = 1 << 16


def _cnot(control: int, target: int) -> Controlled:
    return Controlled(1 << control, 1 << control, X, target)


def is_cnot(gate: Gate) -> bool:
    """One positive control (a power-of-two mask, all required bits 1)
    and an X block."""
    return (isinstance(gate, Controlled) and gate.value == gate.mask
            and gate.mask & (gate.mask - 1) == 0
            and blocks_close(gate.u, X))


def _is_real_rotation(u: np.ndarray) -> bool:
    if np.abs(u.imag).max() > ATOL_UNITARY:
        return False
    return (abs(u[0, 0] - u[1, 1]) <= ATOL_UNITARY
            and abs(u[0, 1] + u[1, 0]) <= ATOL_UNITARY)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array([[cmath.exp(-1j * theta / 2), 0],
                     [0, cmath.exp(1j * theta / 2)]], dtype=complex)


def zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """Angles (alpha, beta, gamma, delta) with u = e^{ia} Rz(b) Ry(g) Rz(d)."""
    det = np.linalg.det(u)
    alpha = cmath.phase(det) / 2
    v = u * cmath.exp(-1j * alpha)
    c, s = abs(v[0, 0]), abs(v[1, 0])
    gamma = 2 * math.atan2(s, c)
    if s <= ATOL_UNITARY:
        beta = -2 * cmath.phase(v[0, 0])
        delta = 0.0
    elif c <= ATOL_UNITARY:
        beta = 2 * cmath.phase(v[1, 0])
        delta = 0.0
    else:
        half_sum = -cmath.phase(v[0, 0])
        half_diff = cmath.phase(v[1, 0])
        beta = half_sum + half_diff
        delta = half_sum - half_diff
    return alpha, beta, gamma, delta


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def _mux(rotation, qubits: list[int], target: int,
         theta: np.ndarray) -> list[Gate]:
    """rotation(theta[a]) on `target`, a the pattern on `qubits` (qubits[i]
    is bit m-1-i): 2^m rotations and 2^m CNOTs, or nothing when every angle
    is within ATOL_DROP.  Overwrites `theta`."""
    if np.abs(theta).max() <= ATOL_DROP:
        return []
    m = len(qubits)
    # Angle transform theta[a] = sum_k (-1)^{popcount(a & gray(k))} phi[k],
    # inverted by a fast Walsh-Hadamard butterfly read back in gray order.
    for bit in range(m):
        pairs = theta.reshape(-1, 2, 1 << bit)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = low - pairs[:, 1]
    size = 1 << m
    phi = theta[_gray(np.arange(size))] / size
    out: list[Gate] = []
    for k in range(size):
        if abs(phi[k]) > ATOL_DROP:
            out.append(Single(rotation(phi[k]), target))
        if m:
            bit = (_gray(k) ^ _gray((k + 1) % size)).bit_length() - 1
            out.append(_cnot(qubits[m - 1 - bit], target))
    return out


def _diagonal(qubits: list[int], phases: np.ndarray) -> list[Gate]:
    """diag(e^{i phases[a]}) over `qubits`, with a read as in `_mux`, up to
    global phase.  Each step peels the last qubit: for every pattern of the
    others, diag(e^{i even}, e^{i odd}) is e^{i (even + odd)/2} Rz(odd -
    even), and the mean phases are left to the qubits before it."""
    out: list[Gate] = []
    for k in range(len(qubits), 0, -1):
        even, odd = phases[0::2], phases[1::2]
        out += _mux(_rz, qubits[:k - 1], qubits[k - 1], odd - even)
        phases = (even + odd) / 2
    return out


def _eigenbasis(u: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(W, a0, a1) with u = W diag(e^{i a0}, e^{i a1}) W^dagger.

    u minus its mean eigenvalue is c (n . sigma), c complex, n a real unit
    vector.  W holds n . sigma's +1 eigenvector in closed form and its
    orthogonal complement, so it is unitary however close the eigenvalues
    lie; it is I when u is within ATOL_DROP of a multiple of I."""
    t = u - (u[0, 0] + u[1, 1]) / 2 * I2
    cn = np.array([t[0, 1] + t[1, 0], 1j * (t[0, 1] - t[1, 0]), 2 * t[0, 0]])
    big = cn[np.argmax(np.abs(cn))] / 2
    w = I2
    if abs(big) > ATOL_DROP:
        n = (cn * (abs(big) / big)).real
        nx, ny, nz = n / np.linalg.norm(n)
        v = np.array([1 + nz, nx + 1j * ny] if nz >= 0
                     else [nx - 1j * ny, 1 - nz])
        v0, v1 = v / np.linalg.norm(v)
        w = np.array([[v0, -v1.conjugate()], [v1, v0.conjugate()]])
    d = w.conj().T @ u @ w
    return w, cmath.phase(d[0, 0]), cmath.phase(d[1, 1])


def _pattern(controls) -> int:
    """The required bits as an index, the first control's bit the highest."""
    m = len(controls)
    return sum(b << (m - 1 - i) for i, (_, b) in enumerate(controls))


def _lower_controlled(gate: Controlled) -> list[Gate]:
    """One diagonal over controls and target, in the block's eigenbasis."""
    controls = gate.controls
    if len(controls) == 1 and blocks_close(gate.u, X):
        (q, b), = controls
        flips = [] if b else [Single(X, q)]
        return flips + [_cnot(q, gate.target)] + flips
    w, a0, a1 = _eigenbasis(np.asarray(gate.u))
    phases = np.zeros(2 << len(controls))
    at = _pattern(controls) << 1
    phases[at], phases[at | 1] = a0, a1
    core = _diagonal([q for q, _ in controls] + [gate.target], phases)
    if w is I2:
        return core
    return [Single(w.conj().T, gate.target)] + core + [Single(w, gate.target)]


def _lower_rotation_run(run: list[Controlled]) -> list[Gate]:
    """Joint lowering of controlled rotations sharing target and controls."""
    theta = np.zeros(1 << run[0].mask.bit_count())
    for gate in run:
        ry = gate.u.real
        theta[_pattern(gate.controls)] += 2 * math.atan2(ry[1, 0], ry[0, 0])
    return _mux(_ry, [q for q, _ in run[0].controls], run[0].target, theta)


def _rotation_run_key(gate: Gate):
    """(target, control mask) of a controlled real rotation, else None."""
    if isinstance(gate, Controlled) and _is_real_rotation(gate.u):
        return gate.target, gate.mask
    return None


def lower(circuit: Circuit) -> Circuit:
    """Rewrite a circuit into single-qubit gates and CNOTs.

    Semantics are preserved exactly up to a global phase.  Before any gate
    is built, the CNOT counts are summed in closed form (2^m per rotation
    run, at most 2^(m+1) per other controlled gate and 2^n per pattern
    phase); above MAX_LOWERED_CNOTS, ValidationError is raised."""
    n = circuit.n
    groups = [(key, list(group)) for key, group
              in itertools.groupby(circuit.gates, _rotation_run_key)]
    cnots = 0
    for key, group in groups:
        cnots += (1 << key[1].bit_count() if key is not None else sum(
            2 << g.mask.bit_count() if isinstance(g, Controlled)
            else 1 << n if isinstance(g, PatternPhase) else 0 for g in group))
        if cnots > MAX_LOWERED_CNOTS:
            raise ValidationError(
                f"lowering would emit more than {MAX_LOWERED_CNOTS} CNOTs")
    out: list[Gate] = []
    for key, group in groups:
        if key is not None:
            out += _lower_rotation_run(group)
            continue
        for gate in group:
            if isinstance(gate, Single):
                out.append(gate)
            elif isinstance(gate, PatternPhase):
                phases = np.zeros(1 << n)
                phases[int(gate.pattern, 2)] = cmath.phase(gate.phase)
                out += _diagonal(list(range(n)), phases)
            else:
                out += _lower_controlled(gate)
    return Circuit(n, tuple(out))
