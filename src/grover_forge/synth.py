"""Staged synthesis of the target-superposition preparation circuit, and
the other circuits a search iteration is built from.

Stage 1 rotates the first qubit by the marginal split of the targets;
stage m rotates qubit m conditioned on each populated (m-1)-bit prefix.
Applying all n stages to |0...0> leaves the equal-weight superposition of
the targets, which turns the single-basis-state phase flip into the
reflection about that superposition.
"""
from __future__ import annotations

from .dichotomy import PrefixTable, build_prefix_table
from .errors import ValidationError
from .ir import (Circuit, Controlled, Gate, H, PatternPhase, Single,
                 _derived, qubit_bits, ry_from_probs)
from .targets import TargetSet, bitstring


def _stage_splits(table: PrefixTable, m: int
                  ) -> tuple[list[tuple[int, int, int]], bool]:
    """Stage m's splits, and whether the stage collapses to one Single.

    Each populated (m-1)-bit prefix alpha splits its c targets into
    c - ones with next bit 0 and ones with next bit 1; depth 0 is the one
    prefix 0 with every target.  The splits come as (alpha, c, ones) in
    ascending alpha.  The stage collapses when every prefix at depth m-1
    is populated and all splits agree, decided on the ints by
    cross-multiplying.
    """
    depth = m - 1
    parents = table.levels[depth - 1] if depth else {0: table.total}
    children = table.levels[depth]
    splits = [(alpha, c, children.get(2 * alpha + 1, 0))
              for alpha, c in sorted(parents.items())]
    _, c, ones = splits[0]
    return splits, (len(splits) == 1 << depth
                    and all(ones_a * c == ones * c_a
                            for _, c_a, ones_a in splits))


def _stage_gates(table: PrefixTable, m: int, shift: int) -> list[Gate]:
    """Stage m's gates, with every qubit index raised by `shift`.

    Stage m rotates qubit m-1, or m-1+shift, once per split of
    `_stage_splits`, controlled on the qubits before it being set to its
    prefix alpha, or once uncontrolled when the stage collapses.  A split's
    block is ry_from_probs((c - ones) / c, ones / c): int division rounds
    as the float of the rational does, where 1 - ones / c may not.
    Branches with ones = 0 are identity and dropped.  ry_from_probs checks
    each split, so its block is unitary and the gates are built without a
    second check.
    """
    depth = m - 1
    splits, collapsed = _stage_splits(table, m)
    if collapsed:
        _, c, ones = splits[0]
        if ones == 0:
            return []
        return [_derived(Single, u=ry_from_probs((c - ones) / c, ones / c),
                         target=depth + shift)]
    mask = ((1 << depth) - 1) << shift
    return [_derived(Controlled, mask=mask,
                     value=qubit_bits(alpha, depth) << shift,
                     u=ry_from_probs((c - ones) / c, ones / c),
                     target=depth + shift)
            for alpha, c, ones in splits if ones]


def _prepare(targets: TargetSet, shift: int) -> list[Gate]:
    """The gates of every stage of `targets`' preparation, in order, with
    every qubit index raised by `shift`."""
    table = build_prefix_table(targets)
    return [gate for m in range(1, targets.n + 1)
            for gate in _stage_gates(table, m, shift)]


def build_stage(table: PrefixTable, m: int) -> Circuit:
    """The stage-m circuit of the paper: rotations on qubit m-1 (0-based),
    one per populated (m-1)-bit prefix, as `_stage_gates` describes."""
    if not 1 <= m <= table.n:
        raise ValidationError(f"stage {m} out of range 1..{table.n}")
    return Circuit(table.n, _stage_gates(table, m, 0))


def build_U(targets: TargetSet) -> Circuit:
    """Preparation circuit mapping |0...0> to the target superposition:
    stages 1..n in order, as one circuit."""
    return Circuit(targets.n, _prepare(targets, 0))


def build_P(n: int) -> Circuit:
    """Phase flip of the all-zero basis state."""
    return Circuit(n, (PatternPhase("0" * n, -1),))


def build_D(n: int) -> Circuit:
    """Hadamard-conjugated zero flip; equals the negated inversion about
    the mean, see the sign handling in `engine`."""
    hs = tuple(_derived(Single, u=H, target=target) for target in range(n))
    return Circuit(n, hs + build_P(n).gates + hs)


def build_O_conv(targets: TargetSet) -> Circuit:
    """Sign flip on each individual target, one basis-state phase per
    target in ascending label order."""
    n = targets.n
    gates = tuple(PatternPhase(bitstring(x, n), -1) for x in targets.labels)
    return Circuit(n, gates)


def reflection(prep: Circuit) -> Circuit:
    """Reflection about prep|0...0>: prep . P . prep^dagger, so the gate
    list runs prep^dagger, the zero flip, then prep."""
    return Circuit(prep.n,
                   prep.dagger().gates + build_P(prep.n).gates + prep.gates)


def build_oracle(targets: TargetSet) -> Circuit:
    """Reflection about the target superposition: U . P . U^dagger."""
    return reflection(build_U(targets))
