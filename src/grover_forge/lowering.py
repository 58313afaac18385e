"""Lowering of the gate IR to single-qubit gates plus CNOTs.

Runs of controlled real rotations that share one target and one control
set (the shape every synthesis stage has) are lowered jointly as a
multiplexed rotation: 2^m CNOTs and 2^m rotations for m controls, using
the gray-code ordering of control patterns.  Everything else goes through
recursive control reduction: a controlled-U splits into two-gate-deep
square roots until only singly controlled gates remain, and those become
two CNOTs plus single-qubit rotations.
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


def sqrt_unitary(u: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 unitary, in closed form."""
    det = np.linalg.det(u)
    alpha = cmath.phase(det) / 2
    v = u * cmath.exp(-1j * alpha)
    c = min(1.0, max(-1.0, (v[0, 0] + v[1, 1]).real / 2))
    theta = math.acos(c)
    if abs(math.sin(theta)) <= ATOL_DROP:
        if c > 0:
            root = np.eye(2, dtype=complex)
        else:
            # v = -1: pick the z axis for the half turn.
            root = np.diag([1j, -1j]).astype(complex)
    else:
        axis_term = (v - c * np.eye(2)) / (1j * math.sin(theta))
        root = (math.cos(theta / 2) * np.eye(2)
                + 1j * math.sin(theta / 2) * axis_term)
    return root * cmath.exp(1j * alpha / 2)


def _lower_single_control(control: int, u: np.ndarray, target: int) -> list[Gate]:
    """Exact controlled-U on a positive control: two CNOTs, rotations, and a
    phase gate on the control."""
    if blocks_close(u, X):
        return [_cnot(control, target)]
    alpha, beta, gamma, delta = zyz_angles(u)
    a = _rz(beta) @ _ry(gamma / 2)
    b = _ry(-gamma / 2) @ _rz(-(delta + beta) / 2)
    c = _rz((delta - beta) / 2)
    out: list[Gate] = []
    if not blocks_close(c, I2, ATOL_DROP):
        out.append(Single(c, target))
    out.append(_cnot(control, target))
    if not blocks_close(b, I2, ATOL_DROP):
        out.append(Single(b, target))
    out.append(_cnot(control, target))
    if not blocks_close(a, I2, ATOL_DROP):
        out.append(Single(a, target))
    if abs(alpha) > ATOL_DROP:
        out.append(Single(np.diag([1, cmath.exp(1j * alpha)]), control))
    return out


def _lower_positive_controls(controls: list[int], u: np.ndarray,
                             target: int) -> list[Gate]:
    """Recursive control reduction for an all-positive multi-control.

    The C^{m-1}X toggle on the last control appears twice; its gates are
    immutable, so one lowered copy is spliced into both places.
    """
    if not controls:
        return [Single(u, target)]
    if len(controls) == 1:
        return _lower_single_control(controls[0], u, target)
    v = sqrt_unitary(u)
    rest, last = controls[:-1], controls[-1]
    toggle = _lower_positive_controls(rest, X, last)
    return (_lower_positive_controls(rest, v, target) + toggle
            + _lower_single_control(last, v.conj().T, target) + toggle
            + _lower_single_control(last, v, target))


def _lower_multi_controlled(gate: Controlled) -> list[Gate]:
    flips = [Single(X, q) for q, b in gate.controls if b == 0]
    qubits = [q for q, _ in gate.controls]
    inner = _lower_positive_controls(qubits, np.asarray(gate.u), gate.target)
    return flips + inner + list(flips)


def _lower_pattern_phase(gate: PatternPhase, n: int) -> list[Gate]:
    """X-conjugated controlled phase, the standard shape for a basis-state
    phase flip."""
    flips = [Single(X, q) for q, ch in enumerate(gate.pattern) if ch == "0"]
    phase_block = np.diag([1, gate.phase]).astype(complex)
    if n == 1:
        core = [Single(phase_block, 0)]
    else:
        core = _lower_positive_controls(list(range(n - 1)), phase_block, n - 1)
    return flips + core + list(flips)


def _rotation_angle(u: np.ndarray) -> float:
    return 2 * math.atan2(u[1, 0].real, u[0, 0].real)


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def _lower_rotation_run(run: list[Controlled]) -> list[Gate]:
    """Joint lowering of controlled rotations sharing target and controls."""
    target = run[0].target
    qubits = [q for q, _ in run[0].controls]
    m = len(qubits)
    theta = np.zeros(1 << m)
    for gate in run:
        pattern = 0
        for i, (_, b) in enumerate(gate.controls):
            pattern |= b << (m - 1 - i)
        theta[pattern] += _rotation_angle(gate.u)
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
            out.append(Single(_ry(phi[k]), target))
        diff = _gray(k) ^ _gray((k + 1) % size)
        bit_pos = diff.bit_length() - 1
        out.append(_cnot(qubits[m - 1 - bit_pos], target))
    return out


def _rotation_run_key(gate: Gate):
    """(target, control mask) of a controlled real rotation, else None."""
    if isinstance(gate, Controlled) and _is_real_rotation(gate.u):
        return gate.target, gate.mask
    return None


def lower(circuit: Circuit) -> Circuit:
    """Rewrite a circuit into single-qubit gates and CNOTs.

    Semantics are preserved exactly up to a global phase.
    """
    out: list[Gate] = []
    for key, group in itertools.groupby(circuit.gates, _rotation_run_key):
        if key is not None:
            out += _lower_rotation_run(list(group))
            continue
        for gate in group:
            if isinstance(gate, Single):
                out.append(gate)
            elif isinstance(gate, PatternPhase):
                out += _lower_pattern_phase(gate, circuit.n)
            else:
                out += _lower_multi_controlled(gate)
    lowered = Circuit(circuit.n, tuple(out))
    for gate in lowered.gates:
        if isinstance(gate, PatternPhase):
            raise ValidationError("lowering left a pattern phase behind")
        if isinstance(gate, Controlled) and not is_cnot(gate):
            raise ValidationError("lowering left a multi-controlled gate")
    return lowered
