"""The compressed search pipeline: canonical targets, a preparation circuit
confined to the low qubits, and the gray-code permutation bridging the two.

Replacing the given targets with {0, ..., |S|-1} confines the preparation
to the last l = ceil(log2 |S|) qubits.  A permutation circuit built from
chains of multi-controlled X gates then carries the canonical targets onto
the requested ones; only the setwise image matters for the search.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import PermutationValidationError, ValidationError
from .ir import Circuit, Controlled, Gate, Single, X, _derived, qubit_bits
from .synth import _prepare
from .targets import TargetSet, bitstring, check_target_count


def target_bits(size: int) -> int:
    """l = ceil(log2 size): the low qubits that {0, ..., size-1} occupies."""
    return (size - 1).bit_length()


def canonical_targets(targets: TargetSet) -> tuple[TargetSet, int]:
    """The same-size set {0, ..., |S|-1} and the bit count it occupies."""
    canon = TargetSet(targets.n, tuple(range(targets.size)))
    return canon, target_bits(targets.size)


def build_U_tilde(size: int, n: int) -> Circuit:
    """Preparation of the canonical-target superposition on n qubits.

    This is U of {0, ..., size-1} on l qubits, its stages placed on the
    last l qubits of n; the leading n - l stages are absent because every
    prefix there is forced to zero.
    """
    check_target_count(n, size)
    if size == 1:
        return Circuit(n, ())
    l = target_bits(size)
    return Circuit(n, _prepare(TargetSet(l, tuple(range(size))), n - l))


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
    """Multi-controlled X swapping two labels at Hamming distance 1; every
    such gate shares the one X block."""
    diff = s ^ t
    flip_bit = diff.bit_length() - 1
    target = n - 1 - flip_bit
    mask = ((1 << n) - 1) ^ (1 << target)
    if not mask:
        # On one qubit the swap of the two labels is a bare X.
        return _derived(Single, u=X, target=target)
    return _derived(Controlled, mask=mask, value=qubit_bits(s, n) & mask, u=X,
                    target=target)


@dataclass(frozen=True)
class PermutationPlan:
    n: int
    mode: str
    pairs: tuple[tuple[int, int], ...]
    paths: tuple[tuple[int, ...], ...]

    def swaps(self) -> list[tuple[int, int]]:
        """The (s, t) label pairs pi_sigma swaps, one per gate, in circuit
        order: paper mode walks each path backwards, carrying its canonical
        label to the requested partner; exact mode walks it there and back,
        the palindrome that realizes the pair's transposition exactly."""
        out: list[tuple[int, int]] = []
        for path in self.paths:
            steps = list(zip(path, path[1:]))
            out += (steps[::-1] if self.mode == "paper"
                    else steps + steps[-2::-1])
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "pairs": [[bitstring(x, self.n), bitstring(y, self.n)]
                      for x, y in self.pairs],
            "paths": [[bitstring(s, self.n) for s in path]
                      for path in self.paths],
        }


def _paper_carries(targets: TargetSet, canon: TargetSet,
                   plan: PermutationPlan) -> bool:
    """Whether the paper plan's swaps carry canon onto the targets: the
    labels alone decide, before any gate exists."""
    held = set(canon.labels)
    for s, t in plan.swaps():
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


def plan_pi_sigma(targets: TargetSet, mode: str = "paper",
                  validate: bool = True) -> PermutationPlan:
    """The labels-only plan of the permutation carrying the canonical
    targets onto `targets`.

    paper mode takes one gray step per chain link and, unless
    validate=False, checks that overlapping chains keep the setwise image;
    exact mode realizes each pair's transposition exactly, at up to twice
    the steps; auto plans paper mode when its check passes and exact mode
    otherwise.  plan.mode is the one planned.
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
    plan = PermutationPlan(n=n, mode="paper" if mode == "auto" else mode,
                           pairs=pairs, paths=paths)
    if mode == "auto" and not _paper_carries(targets, canon, plan):
        plan = replace(plan, mode="exact")
    elif (mode == "paper" and validate
          and not _paper_carries(targets, canon, plan)):
        raise _collision_error(targets, canon, paths)
    return plan


def build_pi_sigma(targets: TargetSet, mode: str = "paper",
                   validate: bool = True) -> tuple[Circuit, PermutationPlan]:
    """Permutation circuit carrying the canonical targets onto `targets`:
    one multi-controlled X per swap of `plan_pi_sigma`'s plan."""
    plan = plan_pi_sigma(targets, mode, validate)
    gates = tuple(_transposition_gate(s, t, plan.n) for s, t in plan.swaps())
    return Circuit(plan.n, gates), plan
