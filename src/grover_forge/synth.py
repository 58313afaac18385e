"""Staged synthesis of the target-superposition preparation circuit, and
the other circuits a search iteration is built from.

Stage 1 rotates the first qubit by the marginal split of the targets;
stage m rotates qubit m conditioned on each populated (m-1)-bit prefix.
Applying all n stages to |0...0> leaves the equal-weight superposition of
the targets, which turns the single-basis-state phase flip into the
reflection about that superposition.
"""
from __future__ import annotations

from fractions import Fraction

from .dichotomy import PrefixTable, build_prefix_table
from .errors import ValidationError
from .ir import (Circuit, Controlled, Gate, H, PatternPhase, Single,
                 qubit_bits, ry_from_probs)
from .targets import TargetSet, bitstring


def build_stage(table: PrefixTable, m: int) -> Circuit:
    """The stage-m circuit: rotations on qubit m-1 (0-based).

    Each populated (m-1)-bit prefix splits its target count c into the
    child counts (c0, c1); depth 0 is the one prefix 0 with every target.
    Branches with split (1, 0) are identity and dropped.  When every prefix
    at depth m-1 is populated and all splits agree, the stage collapses to
    one uncontrolled rotation.
    """
    n = table.n
    if not 1 <= m <= n:
        raise ValidationError(f"stage {m} out of range 1..{n}")
    depth = m - 1
    parents = table.levels[depth - 1] if depth else {0: table.total}
    children = table.levels[depth]
    splits = [(alpha, Fraction(children.get(2 * alpha, 0), c),
               Fraction(children.get(2 * alpha + 1, 0), c))
              for alpha, c in sorted(parents.items())]
    if (len(splits) == 1 << depth
            and all(s[1:] == splits[0][1:] for s in splits)):
        p0, p1 = splits[0][1:]
        if p1 == 0:
            return Circuit(n, ())
        return Circuit(n, (Single(ry_from_probs(p0, p1), depth),))

    # Every rotation is controlled on all of qubits 0..depth-1, set to its
    # prefix alpha.
    mask = (1 << depth) - 1
    gates: list[Gate] = []
    for alpha, p0, p1 in splits:
        if p1 == 0:
            continue
        gates.append(Controlled(mask, qubit_bits(alpha, depth),
                                ry_from_probs(p0, p1), depth))
    return Circuit(n, tuple(gates))


def build_U(targets: TargetSet) -> Circuit:
    """Preparation circuit mapping |0...0> to the target superposition."""
    table = build_prefix_table(targets)
    gates: list[Gate] = []
    for m in range(1, targets.n + 1):
        gates.extend(build_stage(table, m).gates)
    return Circuit(targets.n, tuple(gates))


def build_P(n: int) -> Circuit:
    """Phase flip of the all-zero basis state."""
    return Circuit(n, (PatternPhase("0" * n, -1),))


def build_D(n: int) -> Circuit:
    """Hadamard-conjugated zero flip; equals the negated inversion about
    the mean, see the sign handling in `engine`."""
    hs = tuple(Single(H, target) for target in range(n))
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
