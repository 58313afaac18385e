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

Every gate `lower` emits is built from blocks already known unitary, by
`ir._derived`, and each `Single` records its QASM spelling: a multiplexor
rotation from its angle, any other block through `zyz_angles`, once.
`to_qasm` only prints these.
"""
from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from .errors import ValidationError
from .ir import (ATOL_UNITARY, H, I2, Circuit, Controlled, Gate,
                 PatternPhase, Single, X, _derived, blocks_close)

# A rotation angle, phase or block this close to zero or the identity is
# dropped from the lowered circuit.
ATOL_DROP = 1e-14

# The most CNOTs `lower` emits; it refuses a circuit that needs more.  This
# admits U of every target set on up to 16 qubits (2^16 - 2 CNOTs).
MAX_LOWERED_CNOTS = 1 << 16


def _cnot(control: int, target: int) -> Controlled:
    return _derived(Controlled, mask=1 << control, value=1 << control, u=X,
                    target=target)


def is_cnot(gate: Gate) -> bool:
    """One positive control (a power-of-two mask, all required bits 1)
    and an X block; a lowered CNOT holds X itself."""
    return (isinstance(gate, Controlled) and gate.value == gate.mask
            and gate.mask & (gate.mask - 1) == 0
            and (gate.u is X or blocks_close(gate.u, X)))


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


def _near(angle: float, value: float) -> bool:
    return abs(abs(angle) - value) <= ATOL_UNITARY


def zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """Angles (alpha, beta, gamma, delta) with u = e^{ia} Rz(b) Ry(g) Rz(d).

    Two spellings are folded into the global phase alpha, so that each
    leaves at most ATOL_UNITARY of its Rz angles: Rz(+-2 pi) = -I, and
    Rz(+-pi) Ry(g) Rz(+-pi) = +-Ry(-g), - when the two signs agree.  A
    real rotation Ry(t), of either sign, then has b and d within
    ATOL_UNITARY of 0.
    """
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
    if _near(beta, math.pi) and _near(delta, math.pi):
        alpha += math.pi if beta * delta > 0 else 0.0
        beta -= math.copysign(math.pi, beta)
        delta -= math.copysign(math.pi, delta)
        gamma = -gamma
    if _near(beta, 2 * math.pi):
        alpha += math.pi
        beta -= math.copysign(2 * math.pi, beta)
    if _near(delta, 2 * math.pi):
        alpha += math.pi
        delta -= math.copysign(2 * math.pi, delta)
    return alpha, beta, gamma, delta


def _spell(u: np.ndarray) -> tuple:
    """The QASM gates naming u up to global phase, as (name, angle or None)
    pairs: nothing for the identity, x or h for X or H, each within
    ATOL_UNITARY entrywise, and otherwise the rz, ry and rz of `zyz_angles`
    whose angles exceed ATOL_UNITARY."""
    if blocks_close(u, I2):
        return ()
    if blocks_close(u, X):
        return (("x", None),)
    if blocks_close(u, H):
        return (("h", None),)
    _, beta, gamma, delta = zyz_angles(u)
    return tuple((name, angle) for name, angle in
                 (("rz", delta), ("ry", gamma), ("rz", beta))
                 if abs(angle) > ATOL_UNITARY)


def _spell_ry(theta: float) -> tuple:
    """`_spell(_ry(theta))`, read off the angle with the same arithmetic.

    _ry(theta) is [[c, -s], [s, c]]: it is never X or H, its determinant
    has phase 0, and `zyz_angles`' phases of c and s are 0 or pi, which its
    folds turn into one ry of 2 atan2(|s|, |c|), negated when c and s
    differ in sign unless one of them is within ATOL_UNITARY of 0.
    """
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if abs(c - 1) <= ATOL_UNITARY and abs(s) <= ATOL_UNITARY:
        return ()
    gamma = 2 * math.atan2(abs(s), abs(c))
    if (abs(s) > ATOL_UNITARY and abs(c) > ATOL_UNITARY
            and (c < 0) != (s < 0)):
        gamma = -gamma
    return (("ry", gamma),) if abs(gamma) > ATOL_UNITARY else ()


def _spell_rz(theta: float) -> tuple:
    """`_spell(_rz(theta))`, read off the angle with the same arithmetic.

    _rz(theta) is diag(e, e*), never X or H, with determinant 1: its one
    rz is `zyz_angles`' beta, -2 phase(e), less 2 pi when that is within
    ATOL_UNITARY of +-2 pi.
    """
    e = cmath.exp(-1j * theta / 2)
    if abs(e - 1) <= ATOL_UNITARY:
        return ()
    beta = -2 * cmath.phase(e)
    if _near(beta, 2 * math.pi):
        beta -= math.copysign(2 * math.pi, beta)
    return (("rz", beta),) if abs(beta) > ATOL_UNITARY else ()


# Each rotation a multiplexor applies: its block and its spelling, both
# from the angle.
_AXES = {"ry": (_ry, _spell_ry), "rz": (_rz, _spell_rz)}


def _single(u: np.ndarray, target: int, spelling: tuple | None = None
            ) -> Single:
    """A lowered Single of a block known unitary, with its spelling
    (`_spell(u)` unless given)."""
    return _derived(Single, u=u, target=target,
                    _spelling=_spell(u) if spelling is None else spelling)


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def _mux(axis: str, qubits: list[int], target: int,
         theta: np.ndarray) -> list[Gate]:
    """The `axis` ("ry" or "rz") rotation by theta[a] on `target`, a the
    pattern on `qubits` (qubits[i] is bit m-1-i): 2^m rotations and 2^m
    CNOTs, or nothing when every angle is within ATOL_DROP.  Overwrites
    `theta`."""
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
    phi = (theta[_gray(np.arange(size))] / size).tolist()
    rotation, spell = _AXES[axis]
    out: list[Gate] = []
    for k in range(size):
        if abs(phi[k]) > ATOL_DROP:
            out.append(_single(rotation(phi[k]), target, spell(phi[k])))
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
        out += _mux("rz", qubits[:k - 1], qubits[k - 1], odd - even)
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
        flips = [] if b else [_single(X, q)]
        return flips + [_cnot(q, gate.target)] + flips
    w, a0, a1 = _eigenbasis(np.asarray(gate.u))
    phases = np.zeros(2 << len(controls))
    at = _pattern(controls) << 1
    phases[at], phases[at | 1] = a0, a1
    core = _diagonal([q for q, _ in controls] + [gate.target], phases)
    if w is I2:
        return core
    return ([_single(w.conj().T, gate.target)] + core
            + [_single(w, gate.target)])


def _index(value: int, qubits: list[int]) -> int:
    """`_pattern` of the controls on `qubits`, in ascending order, read
    from a gate's `value`: bit qubits[i] of value is bit m-1-i."""
    index = 0
    for q in qubits:
        index = (index << 1) | ((value >> q) & 1)
    return index


def _lower_rotation_run(run: list[Controlled]) -> list[Gate]:
    """Joint lowering of controlled rotations sharing target and controls."""
    qubits = [q for q, _ in run[0].controls]
    theta = np.zeros(1 << len(qubits))
    for gate in run:
        ry = gate.u.real
        theta[_index(gate.value, qubits)] += 2 * math.atan2(ry[1, 0],
                                                            ry[0, 0])
    return _mux("ry", qubits, run[0].target, theta)


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
                out.append(_single(gate.u, gate.target))
            elif isinstance(gate, PatternPhase):
                phases = np.zeros(1 << n)
                phases[int(gate.pattern, 2)] = cmath.phase(gate.phase)
                out += _diagonal(list(range(n)), phases)
            else:
                out += _lower_controlled(gate)
    return Circuit(n, tuple(out))
