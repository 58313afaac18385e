"""Prefix-count tables and the branch probabilities that drive synthesis.

Splitting a target set by successive bit values yields, for every depth m,
the census of targets under each m-bit prefix.  The marginal probability of
a prefix and the conditional probability of the next bit are ratios of
these counts, returned as exact rationals; synthesis divides the same
counts as ints, which round to the floats of these rationals.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .targets import TargetSet, prefix_of


@dataclass(frozen=True)
class PrefixTable:
    """Nonzero prefix counts of a target set, per depth m = 1..n.

    `levels[m - 1]` maps each m-bit prefix with at least one target under
    it to the number of such targets.  Supports (key sets) shrink-proof:
    at depth n the keys are exactly the target labels.
    """

    n: int
    total: int
    levels: tuple[dict, ...]

    def support(self, m: int) -> frozenset[int]:
        """Prefixes at depth m with at least one target below them."""
        self._check_depth(m)
        return frozenset(self.levels[m - 1])

    def count(self, m: int, alpha: int) -> int:
        self._check_depth(m)
        self._check_prefix(m, alpha)
        return self.levels[m - 1].get(alpha, 0)

    def _check_depth(self, m: int):
        if not 1 <= m <= self.n:
            raise ValidationError(f"depth {m} out of range 1..{self.n}")

    def _check_prefix(self, m: int, alpha: int):
        if not 0 <= alpha < (1 << m):
            raise ValidationError(f"prefix {alpha} out of range at depth {m}")


def build_prefix_table(targets: TargetSet) -> PrefixTable:
    """Count the targets under every prefix, one pass per depth."""
    n = targets.n
    levels = tuple(
        dict(Counter(prefix_of(x, m, n) for x in targets.labels))
        for m in range(1, n + 1)
    )
    return PrefixTable(n=n, total=targets.size, levels=levels)


def marginal_prob(table: PrefixTable, m: int, alpha: int) -> Fraction:
    """Probability that a uniformly drawn target has the given m-bit prefix."""
    return Fraction(table.count(m, alpha), table.total)


def conditional_prob(table: PrefixTable, m: int, i: int, alpha: int) -> Fraction:
    """Probability that bit m+1 equals i, given the m-bit prefix alpha.

    Undefined on empty branches: the caller is expected to emit an identity
    gate there instead of asking.
    """
    if i not in (0, 1):
        raise ValidationError(f"bit must be 0 or 1, got {i}")
    if m >= table.n:
        raise ValidationError(f"no conditional at depth {m} for n={table.n}")
    parent = table.count(m, alpha)
    if parent == 0:
        raise ValidationError(
            f"conditional on empty branch: prefix {alpha} at depth {m}")
    return Fraction(table.count(m + 1, 2 * alpha + i), parent)
