import numpy as np
import pytest
from conftest import random_target_set, state_of_targets

from grover_forge import (SimulatorLimitError, TargetSet, ValidationError,
                          analytic_schedule,
                          apply_circuit, build_D, build_O_conv, build_P,
                          grover_run, grover_states, success_probability,
                          uniform_state, unitary_of)
from grover_forge import engine
from grover_forge.ir import StateVector


def test_uniform_state():
    state = uniform_state(3)
    assert np.allclose(state.amplitudes, np.full(8, 8 ** -0.5))


def test_P_matrix():
    assert np.allclose(unitary_of(build_P(2)), np.diag([-1, 1, 1, 1]))


def test_D_is_negated_inversion_about_mean():
    n = 3
    dim = 1 << n
    psi = np.full(dim, dim ** -0.5)
    inversion = 2 * np.outer(psi, psi) - np.eye(dim)
    assert np.abs(unitary_of(build_D(n)) + inversion).max() < 1e-12


def test_O_conv_matrix(example_targets):
    mat = unitary_of(build_O_conv(example_targets))
    want = np.diag([-1, -1, -1, 1, -1, 1, 1, 1]).astype(complex)
    assert np.allclose(mat, want)


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
