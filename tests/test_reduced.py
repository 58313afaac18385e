from itertools import combinations

import numpy as np
import pytest
from conftest import (random_target_set, stage_pair_controls, target_sets,
                      wide_target_set)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grover_forge import (Controlled, PermutationValidationError, Single,
                          TargetSet, ValidationError, apply_circuit,
                          build_pi_sigma, build_U, build_U_tilde,
                          canonical_targets, circuit_to_json, count,
                          gray_path, reduced, unitary_of)
from grover_forge.ir import StateVector
from grover_forge.targets import bitstring


def permutation_image(circuit):
    """Map each basis label through the circuit; requires a 0/1 matrix."""
    mat = unitary_of(circuit)
    assert np.allclose(np.abs(mat) ** 2, np.round(np.abs(mat) ** 2), rtol=0)
    out = []
    for col in range(mat.shape[1]):
        rows = np.nonzero(np.abs(mat[:, col]) > 0.5)[0]
        assert len(rows) == 1
        out.append(int(rows[0]))
    return out


def test_canonical_targets():
    targets = TargetSet(3, (0, 1, 2, 4))
    canon, l = canonical_targets(targets)
    assert canon.labels == (0, 1, 2, 3) and l == 2
    assert canonical_targets(TargetSet(4, (9,)))[1] == 0
    assert canonical_targets(TargetSet(4, (3, 9, 12)))[1] == 2
    assert canonical_targets(TargetSet(4, (1, 3, 9, 12, 14)))[1] == 3


def test_u_tilde_example_is_two_hadamard_like_gates(example_targets):
    circuit = build_U_tilde(4, 3)
    assert len(circuit.gates) == 2
    assert {g.target for g in circuit.gates} == {1, 2}
    assert all(not isinstance(g, Controlled) for g in circuit.gates)
    state = apply_circuit(StateVector.basis(3, 0), circuit)
    want = np.zeros(8, dtype=complex)
    want[:4] = 0.5
    assert np.allclose(state.amplitudes, want, atol=1e-14, rtol=0)


def test_u_tilde_trivial_and_bad_sizes():
    assert build_U_tilde(1, 4).gates == ()
    with pytest.raises(ValidationError):
        build_U_tilde(0, 3)
    with pytest.raises(ValidationError):
        build_U_tilde(9, 3)


def u_tilde_by_shifting(size, n):
    """Ũ by its definition: U of {0, ..., size-1} on l qubits, every gate
    moved n - l qubits down."""
    if size == 1:
        return ()
    l = (size - 1).bit_length()
    shift = n - l
    out = []
    for gate in build_U(TargetSet(l, tuple(range(size)))).gates:
        if isinstance(gate, Single):
            out.append(Single(gate.u, gate.target + shift))
        else:
            out.append(Controlled(gate.mask << shift, gate.value << shift,
                                  gate.u, gate.target + shift))
    return tuple(out)


@st.composite
def sizes_and_widths(draw):
    n = draw(st.integers(1, 12))
    return draw(st.integers(1, 1 << n)), n


@settings(derandomize=True, deadline=None, max_examples=80)
@given(sizes_and_widths())
@example((1, 1)).via("size 1")
@example((1, 12)).via("size 1, wide")
@example((2, 1)).via("size 2^n")
@example((1 << 12, 12)).via("size 2^n, wide")
@example((3000, 12)).via("a partial last stage")
def test_u_tilde_is_u_of_the_canonical_set_shifted(case):
    size, n = case
    got, want = build_U_tilde(size, n).gates, u_tilde_by_shifting(size, n)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w) and g.target == w.target
        if isinstance(w, Controlled):
            assert (g.mask, g.value) == (w.mask, w.value)
        assert np.array_equal(g.u, w.u)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 8, 13, 16])
def test_u_tilde_prepares_canonical_superposition(size):
    n = 5
    state = apply_circuit(StateVector.basis(n, 0), build_U_tilde(size, n))
    want = np.zeros(1 << n, dtype=complex)
    want[:size] = size ** -0.5
    assert np.abs(state.amplitudes - want).max() < 1e-12


def test_gray_path_example():
    # 100 -> 011 flips the least significant differing bit first.
    assert gray_path(0b100, 0b011, 3) == [0b100, 0b101, 0b111, 0b011]


def test_gray_path_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        x, y = rng.choice(1 << n, size=2, replace=False)
        path = gray_path(int(x), int(y), n)
        assert path[0] == x and path[-1] == y
        assert len(path) == bin(x ^ y).count("1") + 1
        for a, b in zip(path, path[1:]):
            assert bin(a ^ b).count("1") == 1
    with pytest.raises(ValidationError):
        gray_path(3, 3, 2)


def test_pi_sigma_example_paper_mode(example_targets):
    circuit, plan = build_pi_sigma(example_targets, "paper")
    assert len(circuit.gates) == 3
    for gate in circuit.gates:
        assert isinstance(gate, Controlled)
        assert len(gate.controls) == 2
        assert np.array_equal(gate.u, np.array([[0, 1], [1, 0]]))
    image = permutation_image(circuit)
    assert image[0b011] == 0b100
    assert image[0b000] == 0b000
    assert image[0b001] == 0b001
    assert image[0b010] == 0b010
    assert plan.pairs == ((0b100, 0b011),)
    assert plan.paths == ((0b100, 0b101, 0b111, 0b011),)


def test_pi_sigma_maps_canonical_set_onto_targets():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        targets = random_target_set(rng, n)
        canon, _ = canonical_targets(targets)
        for mode in ("paper", "exact"):
            try:
                circuit, _ = build_pi_sigma(targets, mode)
            except PermutationValidationError:
                assert mode == "paper"
                continue
            image = permutation_image(circuit)
            assert {image[x] for x in canon.labels} == targets.label_set


def test_exact_mode_is_the_pairwise_transposition():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        targets = random_target_set(rng, n)
        canon, _ = canonical_targets(targets)
        circuit, plan = build_pi_sigma(targets, "exact")
        image = permutation_image(circuit)
        fixed = set(range(1 << n)) - {x for p in plan.pairs for x in p}
        for x in fixed:
            assert image[x] == x
        for b, c in plan.pairs:
            assert image[c] == b and image[b] == c


@pytest.mark.parametrize("labels,colliding", [
    ((5, 6), [5]),
    ((5, 7), [5]),
    ((0, 4, 5), [4, 5]),
    ((0, 6, 7), [6, 7]),
    ((1, 2, 3), [2]),
])
def test_paper_mode_collision_detection(labels, colliding):
    targets = TargetSet(3, labels)
    with pytest.raises(PermutationValidationError) as info:
        build_pi_sigma(targets, "paper")
    assert tuple(info.value.colliding) == tuple(colliding)
    assert "mode='exact'" in str(info.value)
    for s in colliding:
        assert bitstring(s, 3) in str(info.value)
    # The same set always works in exact mode.
    circuit, _ = build_pi_sigma(targets, "exact")
    canon, _ = canonical_targets(targets)
    image = permutation_image(circuit)
    assert {image[x] for x in canon.labels} == targets.label_set


def test_pi_sigma_identity_when_targets_are_canonical():
    targets = TargetSet(3, (0, 1, 2))
    circuit, plan = build_pi_sigma(targets, "paper")
    assert circuit.gates == () and plan.pairs == ()


def test_unknown_mode_rejected(example_targets):
    with pytest.raises(ValidationError):
        build_pi_sigma(example_targets, "fast")


def test_plan_json_uses_bitstrings(example_targets):
    _, plan = build_pi_sigma(example_targets, "paper")
    blob = plan.to_json()
    assert blob["pairs"] == [["100", "011"]]
    assert blob["paths"] == [["100", "101", "111", "011"]]
    assert blob["mode"] == "paper" and blob["n"] == 3


def assert_paper_check_matches_dense(targets):
    """paper mode raises exactly when its unchecked circuit, run densely,
    misses the requested set."""
    circuit, _ = build_pi_sigma(targets, "paper", validate=False)
    image = permutation_image(circuit)
    canon, _ = canonical_targets(targets)
    carried = {image[x] for x in canon.labels} == targets.label_set
    try:
        build_pi_sigma(targets, "paper")
    except PermutationValidationError:
        assert not carried
    else:
        assert carried


def test_paper_check_matches_dense_image_small_n():
    count = 0
    for n in (1, 2, 3):
        for size in range(1, (1 << n) + 1):
            for labels in combinations(range(1 << n), size):
                assert_paper_check_matches_dense(TargetSet(n, labels))
                count += 1
    assert count == 273


@settings(derandomize=True, deadline=None)
@given(target_sets(4, 6))
def test_paper_check_matches_dense_image_drawn(targets):
    assert_paper_check_matches_dense(targets)


def test_auto_mode_builds_the_mode_it_chose(example_targets):
    circuit, plan = build_pi_sigma(example_targets, "auto")
    paper, _ = build_pi_sigma(example_targets, "paper")
    assert plan.mode == "paper"
    assert circuit_to_json(circuit) == circuit_to_json(paper)
    colliding = TargetSet(3, (1, 2, 3))
    circuit, plan = build_pi_sigma(colliding, "auto")
    exact, _ = build_pi_sigma(colliding, "exact")
    assert plan.mode == "exact"
    assert circuit_to_json(circuit) == circuit_to_json(exact)


def test_paper_check_runs_before_any_gate(monkeypatch):
    def no_gates(*args):
        raise AssertionError("gate built")

    monkeypatch.setattr(reduced, "_transposition_gate", no_gates)
    targets = TargetSet(3, (1, 2, 3))
    with pytest.raises(PermutationValidationError) as info:
        build_pi_sigma(targets, "paper")
    assert tuple(info.value.colliding) == (2,)
    with pytest.raises(AssertionError, match="gate built"):
        build_pi_sigma(targets, "exact")


def _pi_pair_controls(plan):
    """(control pairs, target) of each pi_sigma gate, by the (qubit, bit)
    pair formula: the step s -> t controls every other qubit on the
    MSB-first bits of s."""
    n = plan.n
    out = []
    for path in plan.paths:
        steps = []
        for s, t in zip(path, path[1:]):
            target = n - 1 - ((s ^ t).bit_length() - 1)
            controls = tuple((q, (s >> (n - 1 - q)) & 1)
                             for q in range(n) if q != target)
            steps.append((controls, target))
        if plan.mode == "paper":
            out += reversed(steps)
        else:
            out += steps + list(reversed(steps[:-1]))
    return out


def _check_masks_match_pair_formula(targets):
    n, size = targets.n, targets.size
    l = canonical_targets(targets)[1]
    compact = (stage_pair_controls(TargetSet(l, tuple(range(size))))
               if l else [])
    shifted = [(tuple((q + n - l, b) for q, b in controls), t + n - l)
               for controls, t in compact]
    assert [(g.controls, g.target) for g in build_U_tilde(size, n).gates
            if isinstance(g, Controlled)] == shifted
    for mode in ("paper", "exact"):
        circuit, plan = build_pi_sigma(targets, mode, validate=False)
        assert plan.mode == mode
        assert all(isinstance(g, Controlled) for g in circuit.gates)
        assert ([(g.controls, g.target) for g in circuit.gates]
                == _pi_pair_controls(plan))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(target_sets(4, 8))
def test_masks_match_pair_formula_drawn(targets):
    _check_masks_match_pair_formula(targets)


@pytest.mark.parametrize("n,size", [(64, 32), (256, 4)])
def test_masks_match_pair_formula_wide(n, size):
    _check_masks_match_pair_formula(wide_target_set(n + 1, n, size))


def test_paper_pi_sigma_count_at_512_qubits():
    targets = wide_target_set(512, 512, 3)
    circuit, plan = build_pi_sigma(targets, "paper", validate=False)
    steps = sum(len(p) - 1 for p in plan.paths)
    assert len(circuit) == steps > 0
    assert count(circuit) == steps * (511 ** 2)
