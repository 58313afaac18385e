"""Gate intermediate representation and exact state-vector semantics.

Three gate kinds cover everything the synthesis passes emit:

* ``Single``       -- an arbitrary 2x2 unitary on one qubit.
* ``Controlled``   -- a 2x2 unitary applied where every control qubit
                      matches its required bit (polarities may mix 0s and 1s);
                      the controls are two ints, a qubit mask and the bits
                      it requires.
* ``PatternPhase`` -- multiplies the amplitude of one basis state by a
                      unit-modulus phase.

Qubit 0 is the most significant bit of the basis-state index.  Gate lists
apply left to right.  Dense matrices exist only in ``unitary_of``: the
tests use it as their oracle, and the engine builds its fused blocks of
single-qubit gates with it.  Simulation works in place on the amplitude
array.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, as_int

ATOL_UNITARY = 1e-12

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
# Gates share these blocks, so they are read-only like every gate block.
I2.flags.writeable = X.flags.writeable = H.flags.writeable = False


def blocks_close(u, v) -> bool:
    """Entrywise |u - v| <= ATOL_UNITARY for two 2x2 blocks.

    The tolerance is absolute only: a relative term would let a block that
    is 1e-5 away from X, H or the identity pass for it.  NaN never passes.
    """
    return bool(np.abs(np.subtract(u, v)).max() <= ATOL_UNITARY)


# numpy and complex() read "1", b"1" and True as numbers; where the package
# takes a number, these are refused instead.
_NOT_NUMBERS = (str, bytes, bool, np.bool_)


def _complex_array(values, what: str) -> np.ndarray:
    """values as a complex array, or ValidationError.  An ndarray's dtype
    decides in O(1) unless it holds objects; a list is read entry by entry."""
    arr = (values if isinstance(values, np.ndarray)
           else np.asarray(values, dtype=object))
    kind = arr.dtype.kind
    if kind in "bSU" or (kind == "O" and any(
            isinstance(x, _NOT_NUMBERS) for x in arr.flat)):
        raise ValidationError(f"{what} must hold numbers, not str, bytes "
                              "or bool")
    try:
        return np.asarray(arr, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} is not a numeric array: {exc}"
                              ) from exc


def _as_unitary(u) -> np.ndarray:
    u = _complex_array(u, "gate block")
    if u.shape != (2, 2):
        raise ValidationError(f"gate block must be 2x2, got shape {u.shape}")
    if not blocks_close(u.conj().T @ u, I2):
        raise ValidationError("gate block is not unitary")
    u = u.copy()
    u.flags.writeable = False
    return u


def _derived(cls, **fields):
    """A gate of `cls` whose fields are derived from checked ones: a block
    known unitary, such as a checked block, its conjugate transpose or a
    rotation built from an angle, and qubit indices already in range.

    Unitarity is checked where a block enters the package, in the public
    constructors and circuit files; this constructor skips __post_init__,
    so the caller answers for the fields.  A block is made read-only, as
    `_as_unitary` makes it.
    """
    gate = object.__new__(cls)
    vars(gate).update(fields)
    if "u" in fields:
        fields["u"].flags.writeable = False
    return gate


@dataclass(frozen=True)
class Single:
    u: np.ndarray
    target: int
    # The QASM gates that name u up to global phase, as (name, angle or
    # None) pairs, when `lower` built or checked the gate; None otherwise.
    _spelling: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        object.__setattr__(self, "u", _as_unitary(self.u))
        object.__setattr__(self, "target", as_int(self.target, "gate target"))

    def dagger(self) -> "Single":
        return _derived(Single, u=self.u.conj().T, target=self.target)


def qubit_bits(label: int, n: int) -> int:
    """An MSB-first n-bit label as a qubit-indexed int: bit q of the result
    is the bit that qubit q holds in the label."""
    return int(format(label, f"0{n}b")[::-1], 2)


_DISTINCT = ("control qubits must be distinct from each other and from the "
             "target")


@dataclass(frozen=True)
class Controlled:
    """A 2x2 unitary on `target`, applied where every control qubit holds
    its required bit.

    Bit q of `mask` is set exactly when qubit q is a control, and bit q of
    `value` is the bit that control qubit q requires.  Bit 0 is qubit 0: a
    gate does not know n, so these ints are indexed by qubit, not read
    MSB-first like labels and bitstrings.  Every check is a few big-int
    operations, whatever the number of controls.
    """

    mask: int
    value: int
    u: np.ndarray
    target: int

    def __post_init__(self):
        object.__setattr__(self, "u", _as_unitary(self.u))
        mask = as_int(self.mask, "control mask")
        value = as_int(self.value, "control value")
        target = as_int(self.target, "gate target")
        if mask <= 0:
            raise ValidationError("controlled gate needs at least one control")
        if target < 0:
            raise ValidationError(f"qubit index {target} out of range")
        if value & ~mask:
            raise ValidationError("control value sets a bit outside the mask")
        if (mask >> target) & 1:
            raise ValidationError(_DISTINCT)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "target", target)

    @classmethod
    def from_pairs(cls, controls, u, target, n: int | None = None
                   ) -> "Controlled":
        """The gate controlled on (qubit, required bit) pairs, in any order.

        When n is given, every control qubit must lie below it; the check
        runs before the qubit's mask bit is built, so a wild index in a
        circuit file costs no memory.
        """
        mask = value = 0
        for q, b in controls:
            q = as_int(q, "control qubit")
            b = as_int(b, "control bit")
            if q < 0 or (n is not None and q >= n):
                raise ValidationError(f"qubit index {q} out of range")
            if b not in (0, 1):
                raise ValidationError("control polarity must be 0 or 1")
            if (mask >> q) & 1:
                raise ValidationError(_DISTINCT)
            mask |= 1 << q
            value |= b << q
        return cls(mask, value, u, target)

    @property
    def controls(self) -> tuple[tuple[int, int], ...]:
        """(qubit, required bit) pairs in ascending qubit order."""
        bits = reversed(format(self.mask, "b"))
        return tuple((q, (self.value >> q) & 1)
                     for q, c in enumerate(bits) if c == "1")

    def dagger(self) -> "Controlled":
        return _derived(Controlled, mask=self.mask, value=self.value,
                        u=self.u.conj().T, target=self.target)


@dataclass(frozen=True)
class PatternPhase:
    pattern: str
    phase: complex

    def __post_init__(self):
        if (not isinstance(self.pattern, str) or not self.pattern
                or set(self.pattern) - {"0", "1"}):
            raise ValidationError(f"bad pattern {self.pattern!r}")
        if (isinstance(self.phase, bool)
                or not isinstance(self.phase, numbers.Number)):
            raise ValidationError(f"pattern phase must be a number, "
                                  f"got {self.phase!r}")
        try:
            phase = complex(self.phase)
        except OverflowError as exc:
            raise ValidationError(f"pattern phase is out of range: {exc}"
                                  ) from exc
        # Written so that a NaN phase fails too.
        if not abs(abs(phase) - 1.0) <= ATOL_UNITARY:
            raise ValidationError("pattern phase must have modulus 1")
        object.__setattr__(self, "phase", phase)

    def dagger(self) -> "PatternPhase":
        return _derived(PatternPhase, pattern=self.pattern,
                        phase=self.phase.conjugate())


Gate = Single | Controlled | PatternPhase


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        n = as_int(self.n, "qubit count")
        if n < 0:
            raise ValidationError(f"qubit count {n} is negative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if isinstance(gate, PatternPhase):
                if len(gate.pattern) != n:
                    raise ValidationError(
                        "pattern length must equal qubit count")
            elif not isinstance(gate, (Single, Controlled)):
                raise ValidationError(f"not a gate: {gate!r}")
            elif not 0 <= gate.target < n:
                raise ValidationError(f"qubit index {gate.target} out of range")
            elif isinstance(gate, Controlled) and gate.mask.bit_length() > n:
                raise ValidationError(
                    f"qubit index {gate.mask.bit_length() - 1} out of range")

    def dagger(self) -> "Circuit":
        return Circuit(self.n, tuple(g.dagger() for g in reversed(self.gates)))

    def __len__(self):
        return len(self.gates)


@dataclass(frozen=True)
class StateVector:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = as_int(self.n, "qubit count")
        amps = _complex_array(self.amplitudes, "state amplitudes")
        # No array holds 2**64 entries, so the bound also keeps 1 << n small.
        if not 0 <= n < 64 or amps.shape != (1 << n,):
            raise ValidationError(f"state on {n} qubits needs 2**{n} "
                                  f"amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n: int, x: int) -> "StateVector":
        n = as_int(n, "qubit count")
        x = as_int(x, "basis state")
        # As in __post_init__, n < 64 also keeps 1 << n small.
        if not 0 <= n < 64 or not 0 <= x < 1 << n:
            raise ValidationError(f"basis state {x} out of range for n={n}")
        amps = np.zeros(1 << n, dtype=complex)
        amps[x] = 1.0
        return cls(n, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _apply_inplace(amps: np.ndarray, n: int, gate: Gate) -> None:
    """Apply one gate to a C-contiguous amplitude array in place.

    The first axis of `amps` indexes the basis state and is viewed as n
    axes of size 2, one per qubit; any further axes ride along.  Controls
    are fixed to their required bit by basic indexing, so every update
    writes through views of `amps`.
    """
    view = amps.reshape((2,) * n + amps.shape[1:])
    if isinstance(gate, PatternPhase):
        view[tuple(int(b) for b in gate.pattern)] *= gate.phase
        return
    index = [slice(None)] * n
    if isinstance(gate, Controlled):
        # The simulator limit keeps masks narrow here, where a shift loop
        # beats decoding them through a string or a list.
        mask, value, q = gate.mask, gate.value, 0
        while mask:
            if mask & 1:
                index[q] = value & 1
            mask >>= 1
            value >>= 1
            q += 1
    index[gate.target] = 0
    # The trailing Ellipsis keeps a fully indexed slice a 0-d view, not a
    # scalar copy.
    a0 = view[(*index, ...)]
    index[gate.target] = 1
    a1 = view[(*index, ...)]
    u = gate.u
    a0[...], a1[...] = (u[0, 0] * a0 + u[0, 1] * a1,
                        u[1, 0] * a0 + u[1, 1] * a1)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    if circuit.n != state.n:
        raise ValidationError("circuit and state qubit counts differ")
    amps = state.amplitudes.copy()
    for gate in circuit.gates:
        _apply_inplace(amps, state.n, gate)
    return StateVector(state.n, amps)


MAX_DENSE_QUBITS = 12


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense matrix of a circuit, for the tests' dense oracle and for the
    engine's fused blocks of a few qubits.

    All columns are propagated together: axis 0 indexes the output basis
    state, axis 1 the input column, and each gate acts on the row index.
    """
    n = circuit.n
    if n > MAX_DENSE_QUBITS:
        raise ValidationError(
            f"refusing dense matrix for n={n} > {MAX_DENSE_QUBITS}")
    mat = np.eye(1 << n, dtype=complex)
    for gate in circuit.gates:
        _apply_inplace(mat, n, gate)
    return mat


def ry_from_probs(p0, p1) -> np.ndarray:
    """Real rotation sending |0> to sqrt(p0)|0> + sqrt(p1)|1>.  The two
    probabilities are nonnegative and sum to 1 within ATOL_UNITARY; str,
    bytes and bool are refused, as the gate constructors refuse them."""
    # Synthesis passes floats, which need neither check nor cast.
    if type(p0) is not float or type(p1) is not float:
        if isinstance(p0, _NOT_NUMBERS) or isinstance(p1, _NOT_NUMBERS):
            raise ValidationError("branch probabilities must be numbers, "
                                  "not str, bytes or bool")
        try:
            p0, p1 = float(p0), float(p1)
        except (TypeError, OverflowError) as exc:
            raise ValidationError("branch probabilities must be real "
                                  f"numbers in float range: {exc}") from exc
    if p0 < 0 or p1 < 0:
        raise ValidationError("branch probabilities must be nonnegative")
    if not abs(p0 + p1 - 1.0) <= ATOL_UNITARY:
        raise ValidationError("branch probabilities must sum to 1")
    r0, r1 = math.sqrt(p0), math.sqrt(p1)
    return np.array([[r0, -r1], [r1, r0]], dtype=complex)


# -- JSON circuit format ----------------------------------------------------

# Control pairs a circuit file may hold.  Each is about 30 bytes of JSON,
# so a file stays near 30 MB; a wide target set's U holds about n^2/2.
MAX_FILE_CONTROLS = 1 << 20


def _block_to_json(u: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in u.reshape(-1)]


def _complex_from_json(pair, what: str) -> complex:
    re, im = pair
    if isinstance(re, _NOT_NUMBERS) or isinstance(im, _NOT_NUMBERS):
        raise ValidationError(f"{what} must hold numbers, not str, bytes "
                              "or bool")
    try:
        return complex(re, im)
    except OverflowError as exc:
        raise ValidationError(f"{what} is out of range: {exc}") from exc


def _block_from_json(entries) -> np.ndarray:
    flat = [_complex_from_json(pair, "gate block") for pair in entries]
    return np.array(flat, dtype=complex).reshape(2, 2)


def circuit_to_json(circuit: Circuit) -> dict:
    """The circuit file's contents.  Above MAX_FILE_CONTROLS control pairs,
    summed first, ValidationError is raised before any entry is built."""
    pairs = sum(g.mask.bit_count() for g in circuit.gates
                if isinstance(g, Controlled))
    if pairs > MAX_FILE_CONTROLS:
        raise ValidationError(f"circuit file would hold {pairs} control "
                              f"pairs, more than {MAX_FILE_CONTROLS}")
    gates = []
    for gate in circuit.gates:
        if isinstance(gate, Single):
            gates.append({"kind": "single", "target": gate.target,
                          "u": _block_to_json(gate.u)})
        elif isinstance(gate, Controlled):
            gates.append({"kind": "controlled",
                          "controls": [[q, b] for q, b in gate.controls],
                          "target": gate.target,
                          "u": _block_to_json(gate.u)})
        else:
            gates.append({"kind": "pattern_phase", "pattern": gate.pattern,
                          "phase": [gate.phase.real, gate.phase.imag]})
    return {"n": circuit.n, "gates": gates}


def _gate_from_json(entry: dict, n: int) -> Gate:
    kind = entry["kind"]
    if kind == "single":
        return Single(_block_from_json(entry["u"]), entry["target"])
    if kind == "controlled":
        return Controlled.from_pairs(entry["controls"],
                                     _block_from_json(entry["u"]),
                                     entry["target"], n)
    if kind == "pattern_phase":
        return PatternPhase(entry["pattern"],
                            _complex_from_json(entry["phase"], "pattern phase"))
    raise ValidationError(f"unknown gate kind {kind!r}")


def circuit_from_json(data: dict) -> Circuit:
    """The circuit a file's contents describe.  A missing key, or a value
    of the wrong type or shape, raises ValidationError."""
    try:
        n = as_int(data["n"], "qubit count")
        gates = tuple(_gate_from_json(entry, n) for entry in data["gates"])
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed circuit JSON: {exc!r}") from exc
    return Circuit(n, gates)


def save_circuit(circuit: Circuit, path) -> None:
    data = circuit_to_json(circuit)   # may refuse: before the file opens
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_circuit(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"bad circuit JSON: {exc}") from exc
    return circuit_from_json(data)
