"""Search iterations on the exact simulator, in three equivalent flavours.

The inversion about the mean is realized as Hadamards around the all-zero
phase flip, which produces the negated operator; every application
multiplies a compensating -1 into the state so all variants return states
in the same sign convention and can be compared entrywise.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import SimulatorLimitError, ValidationError
from .ir import Circuit, StateVector, _apply_inplace, apply_circuit
from .reduced import build_pi_sigma, build_U_tilde
from .synth import build_D, build_O_conv, build_oracle, reflection
from .targets import TargetSet

VARIANTS = ("conventional", "modified", "reduced")
DEFAULT_MAX_QUBITS = 22


def _max_qubits() -> int:
    raw = os.environ.get("GROVER_FORGE_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"bad GROVER_FORGE_MAX_QUBITS value {raw!r}") from exc


def uniform_state(n: int) -> StateVector:
    dim = 1 << n
    return StateVector(n, np.full(dim, dim ** -0.5, dtype=complex))


@dataclass(frozen=True)
class AnalyticSchedule:
    """Closed-form success curve of the two-dimensional search rotation."""

    n_size: int
    s_size: int
    phi: float
    k_star: int

    def success(self, k: int) -> float:
        return math.sin((2 * k + 1) * self.phi) ** 2


def analytic_schedule(n: int, s_size: int) -> AnalyticSchedule:
    n_size = 1 << n
    if not 1 <= s_size <= n_size:
        raise ValidationError(f"target count {s_size} out of range for n={n}")
    phi = math.asin(math.sqrt(s_size / n_size))
    # The tiny slack absorbs float noise when pi/(4 phi) lands exactly on
    # an integer, e.g. |S|/N = 1/2.
    k_star = math.floor(math.pi / (4 * phi) + 1e-9) if s_size < n_size else 0
    return AnalyticSchedule(n_size=n_size, s_size=s_size, phi=phi,
                            k_star=k_star)


def success_probability(state: StateVector, targets: TargetSet) -> float:
    if state.n != targets.n:
        raise ValidationError("state and target qubit counts differ")
    amps = state.amplitudes
    return float(sum(abs(amps[x]) ** 2 for x in targets.labels))


class _Run:
    """One search run: oracle + inversion steps over a mutable amplitude
    array, with the optional permutation sandwich of the reduced variant."""

    def __init__(self, targets: TargetSet, variant: str, mode: str = "auto"):
        limit = _max_qubits()
        if targets.n > limit:
            raise SimulatorLimitError(
                f"n={targets.n} exceeds simulator limit {limit} "
                "(set GROVER_FORGE_MAX_QUBITS to override)")
        if variant not in VARIANTS:
            raise ValidationError(f"unknown variant {variant!r}")
        n = targets.n
        self.n = n
        self.inversion = build_D(n)
        self.wrap: Circuit | None = None
        if variant == "conventional":
            self.oracle = build_O_conv(targets)
        elif variant == "modified":
            self.oracle = build_oracle(targets)
        else:
            self.oracle = reflection(build_U_tilde(targets.size, n))
            self.wrap, _ = build_pi_sigma(targets, mode)
        self.amps = uniform_state(n).amplitudes.copy()
        if self.wrap is not None:
            for gate in self.wrap.dagger().gates:
                _apply_inplace(self.amps, n, gate)

    def step(self) -> None:
        for gate in self.oracle.gates:
            _apply_inplace(self.amps, self.n, gate)
        for gate in self.inversion.gates:
            _apply_inplace(self.amps, self.n, gate)
        self.amps *= -1.0

    def state(self) -> StateVector:
        out = StateVector(self.n, self.amps.copy())
        if self.wrap is not None:
            out = apply_circuit(out, self.wrap)
        return out


def grover_states(targets: TargetSet, variant: str, k_max: int,
                  mode: str = "auto"):
    """Yield (k, state) for k = 0..k_max, sharing work across iterations."""
    if k_max < 0:
        raise ValidationError("iteration count must be nonnegative")
    run = _Run(targets, variant, mode)
    yield 0, run.state()
    for k in range(1, k_max + 1):
        run.step()
        yield k, run.state()


def grover_run(targets: TargetSet, variant: str, k: int,
               mode: str = "auto") -> StateVector:
    """State after k search iterations of the chosen variant."""
    if k < 0:
        raise ValidationError("iteration count must be nonnegative")
    run = _Run(targets, variant, mode)
    for _ in range(k):
        run.step()
    return run.state()
