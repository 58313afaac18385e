import numpy as np
import pytest
from conftest import (random_target_set, stage_pair_controls,
                      state_of_targets, target_sets, wide_target_set)
from hypothesis import given, settings

from grover_forge import (Circuit, Controlled, Single, TargetSet,
                          ValidationError, apply_circuit, build_oracle,
                          build_prefix_table, build_stage, build_U,
                          conditional_prob, marginal_prob, ry_from_probs,
                          unitary_of)
from grover_forge.ir import StateVector, qubit_bits


def test_example_three_gates(example_targets):
    circuit = build_U(example_targets)
    assert len(circuit.gates) == 3
    sy = np.array([[0, -1j], [1j, 0]])
    v1 = 0.5 * (np.sqrt(3) * np.eye(2) - 1j * sy)
    v2 = (1 / np.sqrt(3)) * (np.sqrt(2) * np.eye(2) - 1j * sy)
    v3 = (1 / np.sqrt(2)) * (np.eye(2) - 1j * sy)

    g1, g2, g3 = circuit.gates
    assert isinstance(g1, Single) and g1.target == 0
    assert np.allclose(g1.u, v1, atol=1e-14, rtol=0)
    assert isinstance(g2, Controlled)
    assert g2.controls == ((0, 0),) and g2.target == 1
    assert np.allclose(g2.u, v2, atol=1e-14, rtol=0)
    assert isinstance(g3, Controlled)
    assert g3.controls == ((0, 0), (1, 0)) and g3.target == 2
    assert np.allclose(g3.u, v3, atol=1e-14, rtol=0)


def test_example_prepares_superposition(example_targets):
    state = apply_circuit(StateVector.basis(3, 0), build_U(example_targets))
    assert np.allclose(state.amplitudes, state_of_targets(example_targets),
                       atol=1e-14, rtol=0)


def test_stage_skips_forced_branches():
    # Singleton target: every split is (1, 0) or (0, 1); stages where the
    # tracked bit is 0 are dropped entirely.
    targets = TargetSet(3, (0b101,))
    circuit = build_U(targets)
    # Bits are 1, 0, 1: stages 1 and 3 emit an X-like rotation, stage 2
    # would rotate by zero and is dropped.
    assert len(circuit.gates) == 2
    state = apply_circuit(StateVector.basis(3, 0), circuit)
    assert abs(abs(state.amplitudes[0b101]) - 1) < 1e-14


def test_full_set_collapses_to_uncontrolled():
    n = 3
    circuit = build_U(TargetSet(n, tuple(range(1 << n))))
    assert len(circuit.gates) == n
    assert all(isinstance(g, Single) for g in circuit.gates)
    state = apply_circuit(StateVector.basis(n, 0), circuit)
    assert np.allclose(state.amplitudes, np.full(1 << n, (1 << n) ** -0.5),
                       atol=1e-14, rtol=0)


def test_stage_range_errors(example_targets):
    table = build_prefix_table(example_targets)
    with pytest.raises(ValidationError):
        build_stage(table, 0)
    with pytest.raises(ValidationError):
        build_stage(table, 4)


@pytest.mark.parametrize("seed", range(12))
def test_random_sets_prepared_exactly(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(1, 7))
    targets = random_target_set(rng, n)
    state = apply_circuit(StateVector.basis(n, 0), build_U(targets))
    assert np.abs(state.amplitudes - state_of_targets(targets)).max() < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_oracle_matches_dense_reflection(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(1, 6))
    targets = random_target_set(rng, n)
    got = unitary_of(build_oracle(targets))
    psi = state_of_targets(targets)
    want = np.eye(1 << n) - 2 * np.outer(psi, psi.conj())
    assert np.abs(got - want).max() < 1e-12


def test_oracle_flips_only_target_component(example_targets):
    oracle = build_oracle(example_targets)
    psi = state_of_targets(example_targets)
    flipped = apply_circuit(StateVector(3, psi.copy()), oracle)
    assert np.allclose(flipped.amplitudes, -psi, atol=1e-12, rtol=0)
    # A state orthogonal to |S> is untouched.
    perp = np.zeros(8, dtype=complex)
    perp[0], perp[1] = 2 ** -0.5, -(2 ** -0.5)
    kept = apply_circuit(StateVector(3, perp.copy()), oracle)
    assert np.allclose(kept.amplitudes, perp, atol=1e-12, rtol=0)


def _controlled(circuit):
    return [(g.controls, g.target) for g in circuit.gates
            if isinstance(g, Controlled)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(target_sets(4, 8))
def test_stage_masks_match_pair_formula_drawn(targets):
    assert _controlled(build_U(targets)) == stage_pair_controls(targets)


@pytest.mark.parametrize("n,size", [(64, 32), (256, 4)])
def test_stage_masks_match_pair_formula_wide(n, size):
    targets = wide_target_set(n, n, size)
    got = _controlled(build_U(targets))
    assert got and got == stage_pair_controls(targets)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(target_sets(1, 9))
def test_stage_blocks_are_floats_of_the_rationals(targets):
    # Every block is ry_from_probs on the floats of dichotomy's rationals,
    # bit for bit, and a stage collapses to one uncontrolled rotation
    # exactly when every prefix is populated and all its splits agree.
    table = build_prefix_table(targets)
    for m in range(1, targets.n + 1):
        depth = m - 1
        if depth == 0:
            splits = [(0, marginal_prob(table, 1, 0),
                       marginal_prob(table, 1, 1))]
        else:
            splits = [(alpha, conditional_prob(table, depth, 0, alpha),
                       conditional_prob(table, depth, 1, alpha))
                      for alpha in sorted(table.support(depth))]
        collapsed = (len(splits) == 1 << depth
                     and len({split[1:] for split in splits}) == 1)
        kept = [split for split in splits if split[2] != 0]
        if collapsed:
            kept = kept[:1]
        gates = build_stage(table, m).gates
        assert len(gates) == len(kept)
        for gate, (alpha, p0, p1) in zip(gates, kept):
            assert gate.target == depth
            if collapsed:
                assert isinstance(gate, Single)
            else:
                assert isinstance(gate, Controlled)
                assert gate.mask == (1 << depth) - 1
                assert gate.value == qubit_bits(alpha, depth)
            assert np.array_equal(gate.u, ry_from_probs(float(p0), float(p1)))
