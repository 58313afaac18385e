"""Search iterations on the exact simulator, in three equivalent flavours.

The inversion about the mean is realized as Hadamards around the all-zero
phase flip, which produces the negated operator; every application
multiplies a compensating -1 into the state so all variants return states
in the same sign convention and can be compared entrywise.

A run compiles its circuits once into steps over one amplitude array,
each a call with no arguments.  Every gate of the three variants is real:
H, X, the Ry rotations of the synthesis stages, the +-1 phase flips and
pi_sigma's label swaps.  So the array is real, float64, with half the
bytes per step of a complex one, and each state the run yields is its
complex copy.  Each step computes in the array's dtype, and on a real
array a block or phase with an imaginary part is refused, not dropped.

Each run of consecutive `Single` gates becomes one dense block per window
of FUSE adjacent qubits, built by `unitary_of`, so the kernel still
defines what every gate means; the lowest window's block is one matrix
product over a transposed view.  Each synthesis stage, one rotation on its
target for each populated prefix of the qubits before it, becomes one
multiplexor step: every 2x2 block of the stage is applied at once with the
kernel's own products.  A run of one or more pattern phases becomes one
multiply at its labels.  Any other gate, a lone `Single` in its window
too, is one kernel call.  The reduced variant's pi_sigma becomes one index
array, read off its plan's label swaps: the run iterates in the permuted
frame and gathers each state.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import SimulatorLimitError, ValidationError
from .ir import (Circuit, Controlled, PatternPhase, Single, StateVector,
                 _apply_inplace, _derived, qubit_bits, unitary_of)
from .reduced import PermutationPlan, build_U_tilde, plan_pi_sigma
from .synth import build_D, build_O_conv, build_oracle, reflection
from .targets import TargetSet, check_target_count

VARIANTS = ("conventional", "modified", "reduced")
DEFAULT_MAX_QUBITS = 22
# Qubits per fused single-qubit block: 16x16 blocks were fastest at n=11-12.
FUSE = 4
# Largest iteration count a run or a cost report accepts: above the optimum
# k* of every set on up to 33 qubits, it bounds the time of a small run.
MAX_ITERATIONS = 100_000


def check_qubits(n: int) -> None:
    """Reject n above the qubit limit before anything is built for it."""
    raw = os.environ.get("GROVER_FORGE_MAX_QUBITS")
    try:
        limit = DEFAULT_MAX_QUBITS if raw is None else int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"bad GROVER_FORGE_MAX_QUBITS value {raw!r}") from exc
    if limit >= 64:
        # StateVector's own bound: no array holds 2**64 amplitudes.
        raise ValidationError(
            f"GROVER_FORGE_MAX_QUBITS={limit} is not below 64")
    if n > limit:
        raise SimulatorLimitError(
            f"n={n} exceeds simulator limit {limit} "
            "(set GROVER_FORGE_MAX_QUBITS to override)")


def check_iterations(k: int) -> None:
    """Reject an iteration count outside 0..MAX_ITERATIONS."""
    if not 0 <= k <= MAX_ITERATIONS:
        raise ValidationError(
            f"iteration count {k} out of range 0..{MAX_ITERATIONS}")


def uniform_state(n: int) -> StateVector:
    """The equal superposition, or SimulatorLimitError when numpy cannot
    allocate its 2**n amplitudes (a qubit limit raised too far)."""
    dim = 1 << n
    try:
        amps = np.full(dim, dim ** -0.5, dtype=complex)
    except (ValueError, MemoryError) as exc:
        raise SimulatorLimitError(
            f"the state of n={n} qubits needs {16 * dim} bytes, which numpy "
            f"cannot allocate: {exc}") from exc
    return StateVector(n, amps)


@dataclass(frozen=True)
class AnalyticSchedule:
    """Closed-form success curve of the two-dimensional search rotation."""

    phi: float
    k_star: int

    def success(self, k: int) -> float:
        return math.sin((2 * k + 1) * self.phi) ** 2


def analytic_schedule(n: int, s_size: int) -> AnalyticSchedule:
    check_target_count(n, s_size)
    # s_size / 2**n as Python rounds it, without building 2**n: the top 64
    # bits of s_size, with one sticky bit for any set bit below them, round
    # as all of s_size does.  Past 2**-1136 the ratio rounds to 0.
    drop = max(s_size.bit_length() - 64, 0)
    top = s_size >> drop | (s_size >> drop << drop != s_size)
    ratio = top / (1 << (n - drop)) if n - drop <= 1200 else 0.0
    if not ratio:
        raise ValidationError(f"|S|/2**n underflows to 0 at n={n}: give the "
                              "iteration count (compare --k)")
    phi = math.asin(math.sqrt(ratio))
    # The tiny slack absorbs float noise when pi/(4 phi) lands exactly on
    # an integer, e.g. |S|/N = 1/2.
    k_star = (math.floor(math.pi / (4 * phi) + 1e-9)
              if s_size.bit_length() <= n else 0)
    return AnalyticSchedule(phi=phi, k_star=k_star)


def success_probability(state: StateVector, targets: TargetSet) -> float:
    if state.n != targets.n:
        raise ValidationError("state and target qubit counts differ")
    amps = state.amplitudes
    return float(sum(abs(amps[x]) ** 2 for x in targets.labels))


def _run_key(gate):
    """(kind, member) of a gate that can join a multiplexor run, else None.

    A stage rotation is a Controlled gate whose controls are exactly the
    qubits lo..target-1, as synth._stage_gates emits for U (lo = 0) and
    U_tilde (lo = n - l): its kind is (target, mask) and its member the
    control value.  A PatternPhase's kind is "phase" and its member the
    pattern.
    """
    if isinstance(gate, PatternPhase):
        return "phase", gate.pattern
    if isinstance(gate, Controlled):
        if gate.mask + (gate.mask & -gate.mask) == 1 << gate.target:
            return (gate.target, gate.mask), gate.value
    return None


def _mux(view, index, u) -> None:
    """Block i, with entries u[r, c, i], acts on axis 2 of `view` where axis
    1 holds the i-th entry of `index`.

    The products and sums are the kernel's, so the result is the same to
    the bit; a stacked np.matmul would loop over 2**lo tiny products when
    the stage sits low in a wide state.  The update runs in place with two
    temporaries, not six: a stage's slab can be many gates' worth of
    amplitudes, and large temporaries cost more per byte to allocate.
    """
    a0, a1 = view[:, index, 0], view[:, index, 1]
    t = u[0, 1] * a1
    a1 *= u[1, 1]
    a1 += u[1, 0] * a0
    a0 *= u[0, 0]
    a0 += t
    if not isinstance(index, slice):
        # An index array gathered copies, not views.
        view[:, index, 0], view[:, index, 1] = a0, a1


def _phases(amps, index, phases) -> None:
    amps[index] *= phases


def _block(view, block) -> None:
    """A fused window: `block` acts on axis 1 of `view`."""
    view[...] = np.matmul(block, view)


def _in_dtype(values, amps: np.ndarray, what: str) -> np.ndarray:
    """`values` as an array to apply to `amps`: as they are on a complex
    array, their real part on a real one.  ValidationError if a real array
    would lose an imaginary part."""
    values = np.asarray(values)
    if amps.dtype.kind == "c" or values.dtype.kind != "c":
        return values
    if values.imag.any():
        raise ValidationError(f"{what} is not real: a real state cannot "
                              "hold its result")
    return values.real.copy()


def _kernel_step(amps: np.ndarray, n: int, gate) -> partial:
    """A kernel call of one Single or Controlled gate, its block in the
    dtype of `amps`."""
    u = _in_dtype(gate.u, amps, "gate block")
    if u is not gate.u:
        gate = _derived(type(gate), **{**vars(gate), "u": u})
    return partial(_apply_inplace, amps, n, gate)


def _run_step(run, amps: np.ndarray):
    """One step for a run of gates with one kind and distinct members.

    A stage run acts on a (2**lo, 2**w, 2, rest) view of `amps`: axis 1
    indexes the w control qubits lo..target-1 MSB-first, axis 2 the target.
    Its gates commute, so they are sorted by prefix, and consecutive
    prefixes become a slice, which reads and writes through views.  A phase
    run, of one gate or more, multiplies its labels' amplitudes.
    Distinct members make the index entries distinct, so no entry is read
    or written twice.
    """
    head = run[0]
    if isinstance(head, PatternPhase):
        index = np.array([int(g.pattern, 2) for g in run])
        phases = _in_dtype([g.phase for g in run], amps, "pattern phase")
        return partial(_phases, amps, index, phases)
    lo = (head.mask & -head.mask).bit_length() - 1
    w = head.target - lo
    prefixes = sorted(((qubit_bits(g.value >> lo, w), g) for g in run),
                      key=lambda pair: pair[0])
    index = np.array([p for p, _ in prefixes])
    if index[-1] - index[0] == len(index) - 1:
        index = slice(int(index[0]), int(index[-1]) + 1)
    view = amps.reshape(1 << lo, 1 << w, 2, -1)
    u = np.stack([g.u for _, g in prefixes], axis=-1)[..., None]
    return partial(_mux, view, index, _in_dtype(u, amps, "gate block"))


def _window_step(window, amps: np.ndarray, n: int) -> partial:
    """One `_block` step for the Single gates of one window, in order.

    The block acts on the middle axis of a (2**lo, 2**w, rest) view of
    `amps`, which indexes qubits lo..lo+w-1.  The lowest window, where
    rest = 1, would be 2**lo matrix-vector products: its view is the
    transposed (2**w, 2**lo) one, so the block is one matrix product.
    """
    lo = window[0].target // FUSE * FUSE
    w = min(FUSE, n - lo)
    block = unitary_of(Circuit(w, tuple(
        _derived(Single, u=g.u, target=g.target - lo) for g in window)))
    view = (amps.reshape(1 << lo, 1 << w).T if lo + w == n
            else amps.reshape(1 << lo, 1 << w, -1))
    return partial(_block, view, _in_dtype(block, amps, "gate block"))


def _fuse(gates, amps: np.ndarray, n: int) -> list[partial]:
    """The gate list as steps over `amps`, each a call with no arguments.

    Each maximal run of consecutive Single gates becomes one `_window_step`
    per window of FUSE adjacent qubits it touches.  Single gates on
    different qubits commute, so a run may be regrouped by window as long
    as each window keeps its gates in order.

    Each maximal run of consecutive gates with one `_run_key` kind and
    distinct members becomes one `_run_step`: the gates of such a run act
    on disjoint amplitudes, so they commute.  A window holding one gate,
    and every other gate, is a kernel call.

    Every step computes in the dtype of `amps`.  On a real array each
    block and phase must be real, and its real part is used.
    """
    steps: list[partial] = []
    windows: dict[int, list[Single]] = {}
    run: list = []
    members: set = set()
    kind = None
    for gate in (*gates, None):
        key = _run_key(gate)
        if run and (key is None or key[0] != kind or key[1] in members):
            steps.append(_run_step(run, amps))
            run, members = [], set()
        if isinstance(gate, Single):
            windows.setdefault(gate.target // FUSE, []).append(gate)
            continue
        for window in windows.values():
            steps.append(_kernel_step(amps, n, window[0]) if len(window) == 1
                         else _window_step(window, amps, n))
        windows = {}
        if key is not None:
            kind = key[0]
            run.append(gate)
            members.add(key[1])
        elif gate is not None:
            steps.append(_kernel_step(amps, n, gate))
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
    state exists: fused oracle + inversion steps over one real amplitude
    array.  The reduced variant iterates in its canonical targets' frame."""

    def __init__(self, targets: TargetSet, variant: str, k: int,
                 mode: str = "auto"):
        check_qubits(targets.n)
        check_iterations(k)
        if variant not in VARIANTS:
            raise ValidationError(f"unknown variant {variant!r}")
        n = targets.n
        self.n = n
        # pi_sigma^dagger leaves the uniform start, a fresh array, as is.
        # It is allocated first, and as complex as every state the run
        # yields, so that a state too large for numpy is refused before
        # any other array is built.  The run keeps its real part.
        self.amps = uniform_state(n).amplitudes.real.copy()
        self.index: np.ndarray | None = None
        if variant == "conventional":
            oracle = build_O_conv(targets)
        elif variant == "modified":
            oracle = build_oracle(targets)
        else:
            oracle = reflection(build_U_tilde(targets.size, n))
            self.index = _gather_index(plan_pi_sigma(targets, mode))
        self.steps = _fuse(oracle.gates + build_D(n).gates, self.amps, n)

    def step(self) -> None:
        for step in self.steps:
            step()
        self.amps *= -1.0

    def state(self) -> StateVector:
        amps = self.amps if self.index is None else self.amps[self.index]
        return StateVector(self.n, amps.astype(complex))


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
