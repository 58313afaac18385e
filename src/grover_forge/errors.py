"""Exception types shared across the package, and the integer check that
raises one."""

import numbers


class ValidationError(ValueError):
    """Malformed input: bad target sets, probabilities, gate data, ranges."""


class SimulatorLimitError(RuntimeError):
    """Requested state-vector size exceeds the configured qubit limit."""


class PermutationValidationError(RuntimeError):
    """Gray-code permutation circuit does not map the canonical targets
    onto the requested ones; carries the colliding basis states."""

    def __init__(self, message, colliding=()):
        super().__init__(message)
        self.colliding = tuple(colliding)


def as_int(value, what: str) -> int:
    """An integer value as int; bools and floats are rejected, not cast."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)
