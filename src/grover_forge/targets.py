"""Target sets for the multi-target database search.

Labels are integers in [0, 2^n).  Bitstrings are MSB-first: qubit 0 holds
the most significant bit, so the string "100" is the label 4.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ValidationError, as_int


def bitstring(x: int, n: int) -> str:
    """MSB-first binary representation of a label."""
    return format(x, f"0{n}b")


def prefix_of(x: int, m: int, n: int) -> int:
    """The first m bits of x, read MSB-first, as an integer in [0, 2^m)."""
    return x >> (n - m)


def check_target_count(n: int, s: int) -> None:
    """Reject n < 1, and a target count s outside 1..2^n.

    s <= 2^n exactly when s - 1 fits in n bits, so 2^n is never built and
    any n is decided at once.  check_target_count(n, 1) checks n alone.
    """
    if n < 1:
        raise ValidationError(f"qubit count must be positive, got {n}")
    if s < 1 or (s - 1).bit_length() > n:
        raise ValidationError(f"target count {s} out of range for n={n}")


@dataclass(frozen=True)
class TargetSet:
    """A nonempty set of search targets on n qubits."""

    n: int
    labels: tuple[int, ...]

    def __post_init__(self):
        n = as_int(self.n, "qubit count")
        labels = tuple(as_int(x, "target label") for x in self.labels)
        if not labels:
            raise ValidationError("empty target set")
        check_target_count(n, len(labels))
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate target labels")
        if sorted(labels) != list(labels):
            raise ValidationError("target labels must be strictly increasing")
        for x in labels:
            if x < 0 or x.bit_length() > n:
                raise ValidationError(f"label {x} out of range for {n} qubits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_labels(cls, n: int, labels) -> "TargetSet":
        """Build from integers or MSB-first bitstrings, in any order."""
        ints = []
        for x in labels:
            if isinstance(x, str):
                if len(x) != n or set(x) - {"0", "1"}:
                    raise ValidationError(f"bad bitstring {x!r} for n={n}")
                ints.append(int(x, 2))
            else:
                ints.append(as_int(x, "target label"))
        return cls(n, tuple(sorted(ints)))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def label_set(self) -> frozenset[int]:
        return frozenset(self.labels)


def parse_target_file(path) -> TargetSet:
    """Read a target set from disk.

    Two formats are accepted: JSON `{"n": int, "targets": [int...]}`, or
    plain text with a first line `n=<int>` followed by one bitstring of
    length n per line.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad JSON target file: {exc}") from exc
        except ValueError as exc:
            # Python caps the decimal digits of an int it reads; bitstrings
            # are read with int(x, 2), which has no such cap.
            raise ValidationError(
                "bad JSON target file: a number has more decimal digits than "
                "Python reads; give labels this wide as bitstrings") from exc
        if "n" not in data or "targets" not in data:
            raise ValidationError('JSON target file needs "n" and "targets"')
        if not isinstance(data["targets"], list):
            raise ValidationError('"targets" must be a list')
        return TargetSet.from_labels(data["n"], data["targets"])

    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValidationError("target file must start with n=<int>")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise ValidationError(f"bad qubit count line {lines[0]!r}") from exc
    return TargetSet.from_labels(n, lines[1:])
