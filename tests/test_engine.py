import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest
from conftest import (random_target_set, random_unitary_2x2, state_of_targets,
                      target_sets, wide_target_set)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grover_forge import (SimulatorLimitError, TargetSet, ValidationError,
                          analytic_schedule, apply_circuit, build_D,
                          build_O_conv, build_oracle, build_P, build_pi_sigma,
                          build_U, build_U_tilde, grover_run, grover_states,
                          success_probability, uniform_state, unitary_of)
from grover_forge import engine, reduced
from grover_forge.ir import (H, X, Circuit, Controlled, PatternPhase, Single,
                             StateVector, _apply_inplace, qubit_bits)
from grover_forge.synth import reflection


def test_uniform_state():
    state = uniform_state(3)
    assert np.allclose(state.amplitudes, np.full(8, 8 ** -0.5), rtol=0)


def test_P_matrix():
    assert np.allclose(unitary_of(build_P(2)), np.diag([-1, 1, 1, 1]), rtol=0)


def test_D_is_negated_inversion_about_mean():
    n = 3
    dim = 1 << n
    psi = np.full(dim, dim ** -0.5)
    inversion = 2 * np.outer(psi, psi) - np.eye(dim)
    assert np.abs(unitary_of(build_D(n)) + inversion).max() < 1e-12


def test_O_conv_matrix(example_targets):
    mat = unitary_of(build_O_conv(example_targets))
    want = np.diag([-1, -1, -1, 1, -1, 1, 1, 1]).astype(complex)
    assert np.allclose(mat, want, rtol=0)


def test_analytic_schedule_values():
    sched = analytic_schedule(10, 1)
    assert sched.phi == pytest.approx(np.arcsin(np.sqrt(1 / 1024)))
    assert sched.k_star == 25
    assert sched.success(0) == pytest.approx(1 / 1024)
    # |S| = N leaves the success at 1 with no iterations.
    full = analytic_schedule(2, 4)
    assert full.k_star == 0 and full.success(0) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        analytic_schedule(3, 0)
    with pytest.raises(ValidationError):
        analytic_schedule(3, 9)


@pytest.mark.parametrize("n, s_size", [
    (1, 2), (64, 2 ** 64), (70, 2 ** 64 + 1), (200, 3 << 150),
    (1100, 2 ** 1100), (1100, 2 ** 1099 + 1), (1200, (1 << 130) - 1),
    # Subnormal ratios, rounded once from all the bits of |S|.
    (1140, (1 << 70) + (1 << 16) + 1), (1150, (1 << 80) - 1)])
def test_analytic_schedule_ratio_is_exact(n, s_size):
    # |S|/2^n is computed without 2^n, and rounds as Python's own division.
    sched = analytic_schedule(n, s_size)
    assert sched.phi == np.arcsin(np.sqrt(s_size / 2 ** n))
    assert (sched.k_star == 0) == (s_size == 2 ** n)


@pytest.mark.parametrize("n", [10 ** 9, 10 ** 20])
def test_analytic_schedule_huge_n(n):
    # Decided from bit lengths: no 2^n is built, and no OverflowError.
    with pytest.raises(ValidationError, match="underflows"):
        analytic_schedule(n, 1)
    with pytest.raises(ValidationError, match="out of range"):
        analytic_schedule(3, 2 ** 40)


@pytest.mark.parametrize("n", [*range(1070, 1081), 5000])
def test_analytic_schedule_wide_sets(n):
    # |S|/2^n underflows to 0 for these n at small |S|: a ValidationError
    # naming compare --k, never a ZeroDivisionError.
    for s_size in (1, 3, 5, 2 ** 40 + 1):
        try:
            sched = analytic_schedule(n, s_size)
        except ValidationError as exc:
            # 2**-1074 is the smallest float, so only wider sets underflow.
            assert n > 1074 and "compare --k" in str(exc)
        else:
            assert sched.phi > 0 and sched.k_star > 0
    if n > 1076:
        with pytest.raises(ValidationError, match="underflows"):
            analytic_schedule(n, 3)


def test_success_probability(example_targets):
    assert success_probability(uniform_state(3), example_targets) \
        == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        success_probability(uniform_state(4), example_targets)


def test_example_one_iteration_all_variants(example_targets):
    states = {v: grover_run(example_targets, v, 1)
              for v in ("conventional", "modified", "reduced")}
    for state in states.values():
        assert success_probability(state, example_targets) \
            == pytest.approx(0.5, abs=1e-12)
    a = states["conventional"].amplitudes
    for v in ("modified", "reduced"):
        assert np.abs(states[v].amplitudes - a).max() < 1e-12


def test_modified_oracle_run_matches_dense_iteration(example_targets):
    # Independent reference: dense matrices for one full iteration.
    n, dim = 3, 8
    psi_s = state_of_targets(example_targets)
    oracle = np.eye(dim) - 2 * np.outer(psi_s, psi_s.conj())
    mean = np.full(dim, dim ** -0.5)
    inversion = 2 * np.outer(mean, mean) - np.eye(dim)
    amps = mean.astype(complex)
    for k in range(1, 4):
        amps = inversion @ (oracle @ amps)
        got = grover_run(example_targets, "modified", k).amplitudes
        assert np.abs(got - amps).max() < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_variants_agree_and_match_analytic(seed):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(2, 6))
    targets = random_target_set(rng, n, max_size=(1 << n) - 1)
    sched = analytic_schedule(n, targets.size)
    k_max = max(1, sched.k_star)
    runs = [grover_states(targets, v, k_max)
            for v in ("conventional", "modified", "reduced")]
    for steps in zip(*runs):
        (k, a), (_, b), (_, c) = steps
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-10
        assert np.abs(a.amplitudes - c.amplitudes).max() < 1e-10
        assert success_probability(a, targets) \
            == pytest.approx(sched.success(k), abs=1e-10)


def test_reduced_mode_auto_falls_back_to_exact():
    # Paper-mode chains collide for this set; auto must still work.
    targets = TargetSet(3, (1, 2, 3))
    state = grover_run(targets, "reduced", 1, mode="auto")
    want = grover_run(targets, "conventional", 1)
    assert np.abs(state.amplitudes - want.amplitudes).max() < 1e-10


def test_reduced_explicit_exact_mode(example_targets):
    a = grover_run(example_targets, "reduced", 2, mode="exact")
    b = grover_run(example_targets, "conventional", 2)
    assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-10


def test_run_validation(example_targets):
    with pytest.raises(ValidationError):
        grover_run(example_targets, "quantum", 1)
    with pytest.raises(ValidationError):
        grover_run(example_targets, "modified", -1)
    with pytest.raises(ValidationError):
        list(grover_states(example_targets, "modified", -1))
    engine.check_iterations(engine.MAX_ITERATIONS)
    with pytest.raises(ValidationError, match="out of range"):
        grover_run(example_targets, "modified", engine.MAX_ITERATIONS + 1)
    with pytest.raises(ValidationError, match="out of range"):
        next(grover_states(example_targets, "reduced",
                           engine.MAX_ITERATIONS + 1))


def test_qubit_limit_checked_before_allocation(monkeypatch):
    def refuse(n):
        raise AssertionError(f"allocated a {n}-qubit state")

    monkeypatch.setattr(engine, "uniform_state", refuse)
    with pytest.raises(SimulatorLimitError, match="exceeds simulator limit"):
        grover_run(TargetSet(40, (5,)), "conventional", 0)
    with pytest.raises(SimulatorLimitError):
        next(grover_states(TargetSet(40, (5,)), "reduced", 1))
    monkeypatch.setenv("GROVER_FORGE_MAX_QUBITS", "2")
    with pytest.raises(SimulatorLimitError, match="limit 2"):
        grover_run(TargetSet(3, (5,)), "modified", 0)


def test_optimal_iteration_amplifies():
    targets = TargetSet(6, (17,))
    sched = analytic_schedule(6, 1)
    state = grover_run(targets, "modified", sched.k_star)
    p = success_probability(state, targets)
    assert p > 0.99
    assert p == pytest.approx(sched.success(sched.k_star), abs=1e-10)


def unfused_states(targets, variant, k_max, mode="auto"):
    """Reference run: every gate through apply_circuit, the -1 factor after
    each D, and the whole pi_sigma wrap around the reduced variant."""
    n = targets.n
    wrap = None
    if variant == "conventional":
        oracle = build_O_conv(targets)
    elif variant == "modified":
        oracle = build_oracle(targets)
    else:
        oracle = reflection(build_U_tilde(targets.size, n))
        wrap, _ = build_pi_sigma(targets, mode)
    state = uniform_state(n)
    if wrap is not None:
        state = apply_circuit(state, wrap.dagger())
    for k in range(k_max + 1):
        yield k, state if wrap is None else apply_circuit(state, wrap)
        state = apply_circuit(apply_circuit(state, oracle), build_D(n))
        state = StateVector(n, -state.amplitudes)


def assert_fused_matches_unfused(targets):
    k_max = max(1, analytic_schedule(targets.n, targets.size).k_star)
    for variant in engine.VARIANTS:
        pairs = zip(grover_states(targets, variant, k_max),
                    unfused_states(targets, variant, k_max), strict=True)
        for (k, got), (k_ref, want) in pairs:
            assert k == k_ref
            assert np.abs(got.amplitudes - want.amplitudes).max() < 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(target_sets(2, 8, max_size=12))
@example(TargetSet(8, (0, 77, 200, 255)))
@example(wide_target_set(8, 8, 60))
def test_fused_run_matches_unfused_drawn(targets):
    assert_fused_matches_unfused(targets)


def test_fused_run_matches_unfused_n9():
    assert_fused_matches_unfused(TargetSet(9, (3, 100, 257, 511)))


def step_names(steps):
    """The function each step calls; every step is a call with no
    arguments."""
    assert all(isinstance(op, partial) and not op.keywords for op in steps)
    return [op.func.__name__ for op in steps]


def test_fuse_windows():
    # n=9: two full windows of FUSE=4 qubits and a one-qubit remainder,
    # whose single gate is a kernel call; the zero flip is a phase run.
    assert engine.FUSE == 4
    n = 9
    amps = uniform_state(n).amplitudes.copy()
    d = build_D(n)
    steps = engine._fuse(d.gates, amps, n)
    assert step_names(steps) == ["_block", "_block", "_apply_inplace",
                                 "_phases", "_block", "_block",
                                 "_apply_inplace"]
    view, block = steps[1].args
    assert view.shape == (16, 16, 2) and np.shares_memory(view, amps)
    want = unitary_of(Circuit(4, tuple(Single(H, q) for q in range(4))))
    assert np.array_equal(block, want)
    assert steps[2].args[0] is amps and steps[2].args[1:] == (n, d.gates[8])
    # A lone Single keeps its place between the gates around it.
    x = Circuit(3, (PatternPhase("000", -1), Single(H, 1),
                    PatternPhase("111", -1)))
    steps = engine._fuse(x.gates, amps[:8], 3)
    assert step_names(steps) == ["_phases", "_apply_inplace", "_phases"]
    assert steps[1].args[2] is x.gates[1]
    assert [list(op.args[1]) for op in steps[::2]] == [[0], [7]]


def run_length(op):
    """Gates in a run step: its index is an array or, for consecutive
    prefixes, a slice."""
    index = op.args[1]
    if isinstance(index, slice):
        return index.stop - index.start
    return len(index)


def step_views(steps):
    """The array each step writes through."""
    return [op.args[0] for op in steps]


def test_fuse_stage_and_phase_runs():
    targets = wide_target_set(9, 7, 40)
    n = targets.n
    amps = uniform_state(n).amplitudes.copy()
    stages = Counter(g.target for g in build_U(targets).gates
                     if isinstance(g, Controlled))
    assert sorted(stages) == list(range(1, n))
    # U^dagger, P, U: one step per stage, each holding every rotation of
    # its stage; stage 1 is a lone Single on each side of P.
    steps = engine._fuse(build_oracle(targets).gates, amps, n)
    assert step_names(steps) == (["_mux"] * (n - 1) + [
        "_apply_inplace", "_phases", "_apply_inplace"] + ["_mux"] * (n - 1))
    mux = [op for op in steps if op.func is engine._mux]
    order = list(range(n - 1, 0, -1)) + list(range(1, n))
    assert [run_length(op) for op in mux] == [stages[t] for t in order]
    assert all(np.shares_memory(v, amps) for v in step_views(steps))
    # O_conv's phases are one step over the target labels.
    (phases,) = engine._fuse(build_O_conv(targets).gates, amps, n)
    assert phases.func is engine._phases
    assert np.array_equal(phases.args[1], targets.labels)
    assert phases.args[0] is amps
    # Every variant's run is made of calls over its own state.
    for variant in engine.VARIANTS:
        run = engine._Run(targets, variant, 1)
        step_names(run.steps)
        assert all(np.shares_memory(v, run.amps)
                   for v in step_views(run.steps))


def test_fuse_run_boundaries():
    n = 3
    amps = uniform_state(n).amplitudes.copy()
    gates = (Controlled(0b011, 0b001, X, 2), Controlled(0b011, 0b010, X, 2),
             Controlled(0b011, 0b001, X, 2),   # repeated value: new run
             Controlled(0b010, 0b000, X, 2),   # new mask, lo = 1
             Controlled(0b001, 0b001, X, 2),   # controls not next to target
             PatternPhase("000", -1), PatternPhase("011", 1j),
             PatternPhase("000", -1))          # repeated pattern: new run
    steps = engine._fuse(gates, amps, n)
    assert step_names(steps) == ["_mux", "_mux", "_mux", "_apply_inplace",
                                 "_phases", "_phases"]
    assert [op.args[2] if op.func is _apply_inplace else run_length(op)
            for op in steps] == [2, 1, 1, gates[4], 2, 1]
    # Prefixes 2 and 1 (MSB-first) sort into one slice.
    assert steps[0].args[1] == slice(1, 3)
    assert steps[2].args[0].shape == (2, 2, 2, 1)
    assert np.array_equal(steps[4].args[1], [0, 3])   # the phase labels
    assert np.array_equal(steps[5].args[1], [0])
    assert all(np.shares_memory(v, amps) for v in step_views(steps))
    want = amps.copy()
    for gate in gates:
        _apply_inplace(want, n, gate)
    for step in steps:
        step()
    assert np.abs(amps - want).max() <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_run_steps_match_kernel(data):
    """A stage run (controls lo..target-1, lo > 0 as in U_tilde) and a phase
    run, down to one gate, each become one step that agrees with the kernel
    gate by gate."""
    n = data.draw(st.integers(2, 9), label="n")
    target = data.draw(st.integers(1, n - 1), label="target")
    lo = data.draw(st.integers(0, target - 1), label="lo")
    w = target - lo
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    prefixes = rng.permutation(1 << w)[:data.draw(st.integers(1, 1 << w))]
    stage = [Controlled((1 << target) - (1 << lo), qubit_bits(int(p), w) << lo,
                        random_unitary_2x2(rng), target) for p in prefixes]
    labels = rng.permutation(1 << n)[:data.draw(st.integers(1, 1 << n))]
    phases = [PatternPhase(format(int(x), f"0{n}b"),
                           np.exp(2j * np.pi * rng.random())) for x in labels]
    for run in (stage, phases):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        want = amps.copy()
        for gate in run:
            _apply_inplace(want, n, gate)
        (step,) = engine._fuse(run, amps, n)
        assert step.func in (engine._mux, engine._phases)
        step()
        assert np.abs(amps - want).max() <= 1e-12


def assert_gather_is_wrap(targets, mode):
    wrap, plan = build_pi_sigma(targets, mode, validate=False)
    assert plan.mode == mode
    index = engine._gather_index(plan)
    rng = np.random.default_rng(targets.size)
    dim = 1 << targets.n
    state = StateVector(targets.n, rng.normal(size=dim)
                        + 1j * rng.normal(size=dim))
    assert np.array_equal(state.amplitudes[index],
                          apply_circuit(state, wrap).amplitudes)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(target_sets(1, 7))
def test_gather_equals_wrap_drawn(targets):
    for mode in ("paper", "exact"):
        assert_gather_is_wrap(targets, mode)


@pytest.mark.parametrize("mode", ["paper", "exact"])
def test_reduced_state_is_wrap_of_permuted_frame(example_targets, mode):
    wrap, _ = build_pi_sigma(example_targets, mode)
    run = engine._Run(example_targets, "reduced", 3, mode)
    for _ in range(3):
        run.step()
        framed = StateVector(run.n, run.amps.copy())
        assert np.array_equal(run.state().amplitudes,
                              apply_circuit(framed, wrap).amplitudes)


def test_reduced_run_builds_no_pi_sigma_gate(monkeypatch):
    def no_gates(*args):
        raise AssertionError("pi_sigma gate built")

    monkeypatch.setattr(reduced, "_transposition_gate", no_gates)
    for labels in ((0, 1, 2, 4), (1, 2, 3)):  # paper plan, exact fallback
        targets = TargetSet(3, labels)
        state = grover_run(targets, "reduced", 1)
        want = grover_run(targets, "conventional", 1)
        assert np.abs(state.amplitudes - want.amplitudes).max() < 1e-12


S = np.diag([1, 1j])


@pytest.mark.parametrize("n, gates", [
    (2, (Single(S, 0),)),                              # lone: kernel call
    (2, (Single(H, 0), Single(S, 1))),                 # fused window
    (2, (Controlled(0b01, 0b01, S, 1),)),              # stage run
    (3, (Controlled(0b001, 0b001, S, 2),)),            # lone: kernel call
    (2, (PatternPhase("01", 1j),)),                    # phase run
    (2, (PatternPhase("00", -1), PatternPhase("11", 1j)))])
def test_fuse_refuses_complex_onto_real(n, gates):
    # A real state cannot hold a complex block's or phase's result: the
    # imaginary part is refused, not dropped with or without a warning.
    amps = np.zeros(1 << n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not real"):
            engine._fuse(gates, amps, n)
        # The same gates compile onto a complex array.
        assert engine._fuse(gates, amps.astype(complex), n)


def d_step_views(steps, n):
    """Check that D's steps, the last of `steps`, are one `_block` per
    window of FUSE qubits on each side of the zero flip, and return their
    views: the lowest window's is the transposed (2**w, 2**lo) one."""
    windows = [(lo, min(engine.FUSE, n - lo))
               for lo in range(0, n, engine.FUSE)]
    d = steps[-(2 * len(windows) + 1):]
    assert step_names(d) == (["_block"] * len(windows) + ["_phases"]
                             + ["_block"] * len(windows))
    views = [op.args[0] for op in d if op.func is engine._block]
    for view, (lo, w) in zip(views, windows * 2):
        if lo + w == n:
            assert view.T.shape == (1 << lo, 1 << w)
            assert view.T.flags.c_contiguous
        else:
            assert view.shape == (1 << lo, 1 << w, 1 << (n - lo - w))
    return views


@pytest.mark.parametrize("dtype", [float, complex])
def test_fuse_D_windows_match_kernel(dtype):
    # n=10 ends in a two-qubit window, applied as one matrix product over
    # the transposed view; the result is the kernel's on either dtype.
    n = 10
    rng = np.random.default_rng(10)
    amps = rng.normal(size=1 << n).astype(dtype)
    if dtype is complex:
        amps += 1j * rng.normal(size=1 << n)
    want = amps.astype(complex)
    d = build_D(n)
    for gate in d.gates:
        _apply_inplace(want, n, gate)
    steps = engine._fuse(d.gates, amps, n)
    assert all(np.shares_memory(v, amps) for v in d_step_views(steps, n))
    for step in steps:
        step()
    assert np.abs(amps - want).max() <= 1e-12


@pytest.mark.parametrize("targets", [
    TargetSet(10, (3, 400, 1000)), wide_target_set(10, 10, 150)],
    ids=["n10-s3", "n10-wide"])
def test_run_is_real(targets):
    n = targets.n
    k_max = max(1, analytic_schedule(n, targets.size).k_star)
    for variant in engine.VARIANTS:
        run = engine._Run(targets, variant, k_max)
        # A real array of its own: the complex start is not kept.
        assert run.amps.dtype == np.float64 and run.amps.base is None
        assert all(np.shares_memory(v, run.amps)
                   for v in step_views(run.steps))
        d_step_views(run.steps, n)
        pairs = zip(grover_states(targets, variant, k_max),
                    unfused_states(targets, variant, k_max), strict=True)
        for (k, got), (_, want) in pairs:
            amps = got.amplitudes
            assert amps.dtype == complex
            assert np.abs(amps - want.amplitudes).max() < 1e-12
            assert not amps.imag.any() and not np.signbit(amps.imag).any()
