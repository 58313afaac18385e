"""The compressed search pipeline: canonical targets, a preparation circuit
confined to the low qubits, and the gray-code permutation bridging the two.

Replacing the given targets with {0, ..., |S|-1} confines the preparation
to the last l = ceil(log2 |S|) qubits.  A permutation circuit built from
chains of multi-controlled X gates then carries the canonical targets onto
the requested ones; only the setwise image matters for the search.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import PermutationValidationError, ValidationError
from .ir import Circuit, Controlled, Gate, Single, X, qubit_bits
from .synth import build_U
from .targets import TargetSet, bitstring


def target_bits(size: int) -> int:
    """l = ceil(log2 size): the low qubits that {0, ..., size-1} occupies."""
    return (size - 1).bit_length()


def canonical_targets(targets: TargetSet) -> tuple[TargetSet, int]:
    """The same-size set {0, ..., |S|-1} and the bit count it occupies."""
    canon = TargetSet(targets.n, tuple(range(targets.size)))
    return canon, target_bits(targets.size)


def build_U_tilde(size: int, n: int) -> Circuit:
    """Preparation of the canonical-target superposition on n qubits.

    Only the last l qubits carry gates; the leading stages are absent
    entirely because every prefix there is forced to zero.
    """
    if not 1 <= size <= (1 << n):
        raise ValidationError(f"size {size} out of range for n={n}")
    if size == 1:
        return Circuit(n, ())
    l = target_bits(size)
    compact = build_U(TargetSet(l, tuple(range(size))))
    shift = n - l
    gates: list[Gate] = []
    for gate in compact.gates:
        if isinstance(gate, Single):
            gates.append(Single(gate.u, gate.target + shift))
        else:
            gates.append(Controlled(gate.mask << shift, gate.value << shift,
                                    gate.u, gate.target + shift))
    return Circuit(n, tuple(gates))


def gray_path(x: int, y: int, n: int) -> list[int]:
    """Single-bit-flip chain from x to y, least significant difference first.

    Length is always Hamming(x, y) + 1.
    """
    if x == y:
        raise ValidationError("gray path endpoints must differ")
    path = [x]
    current = x
    diff = x ^ y
    for bit in range(n):
        if (diff >> bit) & 1:
            current ^= 1 << bit
            path.append(current)
    return path


def _transposition_gate(s: int, t: int, n: int) -> Gate:
    """Multi-controlled X swapping two labels at Hamming distance 1."""
    diff = s ^ t
    flip_bit = diff.bit_length() - 1
    target = n - 1 - flip_bit
    mask = ((1 << n) - 1) ^ (1 << target)
    if not mask:
        # On one qubit the swap of the two labels is a bare X.
        return Single(X, target)
    return Controlled(mask, qubit_bits(s, n) & mask, X, target)


@dataclass(frozen=True)
class PermutationPlan:
    n: int
    mode: str
    pairs: tuple[tuple[int, int], ...]
    paths: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "pairs": [[bitstring(x, self.n), bitstring(y, self.n)]
                      for x, y in self.pairs],
            "paths": [[bitstring(s, self.n) for s in path]
                      for path in self.paths],
        }


def _paper_carries(targets: TargetSet, canon: TargetSet, paths) -> bool:
    """Whether the reversed gray chains carry canon onto the targets.

    Each gray step is an X controlled on all other qubits: it swaps exactly
    its two labels, so the labels alone decide, before any gate exists."""
    held = set(canon.labels)
    for path in paths:
        for i in reversed(range(len(path) - 1)):
            s, t = path[i], path[i + 1]
            if (s in held) != (t in held):
                held ^= {s, t}
    return held == targets.label_set


def _collision_error(targets: TargetSet, canon: TargetSet,
                     paths) -> PermutationValidationError:
    n = targets.n
    touched = targets.label_set | canon.label_set
    seen: dict[int, int] = {}
    colliding = set()
    for idx, path in enumerate(paths):
        for s in path[1:-1]:
            if s in touched or seen.get(s, idx) != idx:
                colliding.add(s)
            seen[s] = idx
    names = ", ".join(bitstring(s, n) for s in sorted(colliding))
    return PermutationValidationError(
        "gray-code chains do not map the canonical targets onto the "
        f"requested set (colliding basis states: {names or 'none found'}); "
        "use mode='exact'", colliding=sorted(colliding))


def build_pi_sigma(targets: TargetSet, mode: str = "paper",
                   validate: bool = True) -> tuple[Circuit, PermutationPlan]:
    """Permutation circuit carrying the canonical targets onto `targets`.

    paper mode emits one multi-controlled X per gray step and, unless
    validate=False, checks that overlapping chains keep the setwise image;
    exact mode emits the palindrome realizing each pair's transposition
    exactly, at up to twice the gate count; auto builds paper mode when
    its check passes and exact mode otherwise.  plan.mode is the one built.
    """
    if mode not in ("paper", "exact", "auto"):
        raise ValidationError(f"unknown permutation mode {mode!r}")
    n = targets.n
    canon, _ = canonical_targets(targets)
    shared = targets.label_set & canon.label_set
    b_side = sorted(targets.label_set - shared)
    c_side = sorted(canon.label_set - shared)
    pairs = tuple(zip(b_side, c_side))
    paths = tuple(tuple(gray_path(x, y, n)) for x, y in pairs)
    if mode == "auto":
        mode = "paper" if _paper_carries(targets, canon, paths) else "exact"
    elif (mode == "paper" and validate
          and not _paper_carries(targets, canon, paths)):
        raise _collision_error(targets, canon, paths)

    gates: list[Gate] = []
    for path in paths:
        steps = [_transposition_gate(path[i], path[i + 1], n)
                 for i in range(len(path) - 1)]
        if mode == "paper":
            # Reversed chain: the circuit then walks each canonical label
            # back along the path to its requested partner.
            gates.extend(reversed(steps))
        else:
            gates.extend(steps)
            gates.extend(reversed(steps[:-1]))

    plan = PermutationPlan(n=n, mode=mode, pairs=pairs, paths=paths)
    return Circuit(n, tuple(gates)), plan
