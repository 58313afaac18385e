"""Search iterations on the exact simulator, in three equivalent flavours.

The inversion about the mean is realized as Hadamards around the all-zero
phase flip, which produces the negated operator; every application
multiplies a compensating -1 into the state so all variants return states
in the same sign convention and can be compared entrywise.

A run pays once for two rewrites of its circuits.  Each run of consecutive
`Single` gates becomes one dense block per window of FUSE adjacent qubits,
built by `unitary_of`, so the kernel still defines what every gate means.
The reduced variant's pi_sigma becomes one index array, read off its plan's
label swaps: the run iterates in the permuted frame and gathers each state.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import SimulatorLimitError, ValidationError
from .ir import Circuit, Single, StateVector, _apply_inplace, unitary_of
from .reduced import PermutationPlan, build_U_tilde, plan_pi_sigma
from .synth import build_D, build_O_conv, build_oracle, reflection
from .targets import TargetSet

VARIANTS = ("conventional", "modified", "reduced")
DEFAULT_MAX_QUBITS = 22
# Qubits per fused single-qubit block: 16x16 blocks were fastest at n=11-12.
FUSE = 4
# Largest iteration count a run or a cost report accepts: above the optimum
# k* of every set on up to 33 qubits, it bounds the time of a small run.
MAX_ITERATIONS = 100_000


def _max_qubits() -> int:
    raw = os.environ.get("GROVER_FORGE_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"bad GROVER_FORGE_MAX_QUBITS value {raw!r}") from exc


def check_iterations(k: int) -> None:
    """Reject an iteration count outside 0..MAX_ITERATIONS."""
    if not 0 <= k <= MAX_ITERATIONS:
        raise ValidationError(
            f"iteration count {k} out of range 0..{MAX_ITERATIONS}")


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


def _fuse(gates, amps: np.ndarray, n: int) -> list:
    """The gate list as steps over `amps`: each maximal run of consecutive
    Single gates becomes one (view, block) pair per window of FUSE adjacent
    qubits it touches, and every other gate stays as it is.

    Single gates on different qubits commute, so a run may be regrouped by
    window as long as each window keeps its gates in order.  A window
    holding one gate keeps that gate.  A block acts on the middle axis of a
    (2**lo, 2**w, rest) view of `amps`, which indexes qubits lo..lo+w-1.
    """
    steps: list = []
    windows: dict[int, list[Single]] = {}
    for gate in (*gates, None):
        if isinstance(gate, Single):
            windows.setdefault(gate.target // FUSE, []).append(gate)
            continue
        for start, run in windows.items():
            if len(run) == 1:
                steps.append(run[0])
                continue
            lo = start * FUSE
            w = min(FUSE, n - lo)
            block = unitary_of(Circuit(w, tuple(Single(g.u, g.target - lo)
                                               for g in run)))
            steps.append((amps.reshape(1 << lo, 1 << w, -1), block))
        windows = {}
        if gate is not None:
            steps.append(gate)
    return steps


def _gather_index(plan: PermutationPlan) -> np.ndarray:
    """Index array of pi_sigma: applying its circuit to any state a gives
    a[index].  Each gate swaps the amplitudes of its two labels, so the
    index is 0..2**n-1 with the same entries swapped in circuit order."""
    index = np.arange(1 << plan.n)
    for s, t in plan.swaps():
        index[s], index[t] = index[t], index[s]
    return index


class _Run:
    """A search run of up to k iterations, its limits checked before the
    state exists: fused oracle + inversion steps over one amplitude array.
    The reduced variant iterates in its canonical targets' frame."""

    def __init__(self, targets: TargetSet, variant: str, k: int,
                 mode: str = "auto"):
        limit = _max_qubits()
        if targets.n > limit:
            raise SimulatorLimitError(
                f"n={targets.n} exceeds simulator limit {limit} "
                "(set GROVER_FORGE_MAX_QUBITS to override)")
        check_iterations(k)
        if variant not in VARIANTS:
            raise ValidationError(f"unknown variant {variant!r}")
        n = targets.n
        self.n = n
        self.index: np.ndarray | None = None
        if variant == "conventional":
            oracle = build_O_conv(targets)
        elif variant == "modified":
            oracle = build_oracle(targets)
        else:
            oracle = reflection(build_U_tilde(targets.size, n))
            self.index = _gather_index(plan_pi_sigma(targets, mode))
        # pi_sigma^dagger, a basis permutation, leaves the uniform start as is.
        self.amps = uniform_state(n).amplitudes.copy()
        self.steps = _fuse(oracle.gates + build_D(n).gates, self.amps, n)

    def step(self) -> None:
        for op in self.steps:
            if isinstance(op, tuple):
                view, block = op
                view[...] = np.matmul(block, view)
            else:
                _apply_inplace(self.amps, self.n, op)
        self.amps *= -1.0

    def state(self) -> StateVector:
        if self.index is None:
            return StateVector(self.n, self.amps.copy())
        return StateVector(self.n, self.amps[self.index])


def grover_states(targets: TargetSet, variant: str, k_max: int,
                  mode: str = "auto"):
    """Yield (k, state) for k = 0..k_max, one run shared by all k.

    Each state is a fresh array after k search iterations, in the frame of
    the requested targets for every variant, so the three variants agree
    entrywise.
    """
    run = _Run(targets, variant, k_max, mode)
    yield 0, run.state()
    for k in range(1, k_max + 1):
        run.step()
        yield k, run.state()


def grover_run(targets: TargetSet, variant: str, k: int,
               mode: str = "auto") -> StateVector:
    """State after k search iterations of the chosen variant."""
    run = _Run(targets, variant, k, mode)
    for _ in range(k):
        run.step()
    return run.state()
