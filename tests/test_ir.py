import ast
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import dense_gate_matrix, phase_align, random_unitary_2x2
from hypothesis import given, settings
from hypothesis import strategies as st

import grover_forge

from grover_forge import (Circuit, Controlled, PatternPhase, Single,
                          StateVector, ValidationError, apply_circuit,
                          circuit_from_json, circuit_to_json, load_circuit,
                          ry_from_probs, unitary_of)
from grover_forge.ir import H, X


def test_ry_identity():
    assert np.allclose(ry_from_probs(1, 0), np.eye(2), rtol=0)


def test_ry_paper_value():
    got = ry_from_probs(0.75, 0.25)
    sy = np.array([[0, -1j], [1j, 0]])
    want = 0.5 * (np.sqrt(3) * np.eye(2) - 1j * sy)
    assert np.allclose(got, want, atol=1e-15, rtol=0)


def test_ry_half_matches_hadamard_on_zero():
    v = ry_from_probs(0.5, 0.5)
    zero = np.array([1, 0], dtype=complex)
    assert np.allclose(v @ zero, H @ zero, atol=1e-15, rtol=0)


def test_ry_validation():
    with pytest.raises(ValidationError):
        ry_from_probs(-0.1, 1.1)
    with pytest.raises(ValidationError):
        ry_from_probs(0.7, 0.7)


def test_gate_validation():
    with pytest.raises(ValidationError, match="unitary"):
        Single(np.array([[1, 1], [0, 1]]), 0)
    with pytest.raises(ValidationError, match="distinct"):
        Controlled.from_pairs(((0, 1),), X, 0)
    with pytest.raises(ValidationError, match="modulus"):
        PatternPhase("01", 2.0)


def test_from_pairs_round_trip():
    gate = Controlled.from_pairs(((5, 1), (0, 1), (3, 0)), X, 2)
    assert gate.mask == 0b101001 and gate.value == 0b100001
    assert gate.controls == ((0, 1), (3, 0), (5, 1))
    ordered = Controlled.from_pairs(sorted(gate.controls), X, 2)
    assert (ordered.mask, ordered.value, ordered.target) == (
        gate.mask, gate.value, gate.target)
    again = Controlled.from_pairs(gate.controls, X, 2)
    assert again.controls == gate.controls
    assert gate.dagger().controls == gate.controls


@pytest.mark.parametrize("args,match", [
    ((0, 0, X, 1), "at least one control"),
    ((0b01, 0b10, X, 2), "outside the mask"),
    ((0b11, 0b01, X, 1), "distinct"),
    ((0b01, 0b01, X, -1), "out of range"),
    ((True, 1, X, 2), "integer"),
    ((1, False, X, 2), "integer"),
    ((1, 1, X, True), "integer"),
    ((1.0, 1, X, 2), "integer"),
    ((1, 1, X, 2.0), "integer"),
])
def test_controlled_checks(args, match):
    with pytest.raises(ValidationError, match=match):
        Controlled(*args)


@pytest.mark.parametrize("pairs,match", [
    ((), "at least one control"),
    (((0, 1), (0, 0)), "distinct"),
    (((-1, 1),), "out of range"),
    (((0, 2),), "polarity"),
    (((0, 1.5),), "integer"),
    (((0.0, 1),), "integer"),
    (((0, True),), "integer"),
])
def test_from_pairs_checks(pairs, match):
    with pytest.raises(ValidationError, match=match):
        Controlled.from_pairs(pairs, X, 3)


def test_circuit_rejects_mask_reaching_n():
    gate = Controlled(0b1001, 0b0001, X, 1)
    assert Circuit(4, (gate,)).gates == (gate,)
    with pytest.raises(ValidationError, match="qubit index 3 out of range"):
        Circuit(3, (gate,))
    with pytest.raises(ValidationError, match="out of range"):
        Circuit(2, (Controlled(0b01, 0, X, 2),))


def test_basis_range_checked():
    assert StateVector.basis(3, 7).amplitudes[7] == 1
    for x in (-1, 8):
        with pytest.raises(ValidationError, match="out of range"):
            StateVector.basis(3, x)


@pytest.mark.parametrize("n, size", [
    (2.5, 4), (True, 2), ("2", 4), (-1, 4), (64, 4)])
def test_state_vector_qubit_count_checked(n, size):
    with pytest.raises(ValidationError, match="qubit count|amplitudes"):
        StateVector(n, np.zeros(size))


@pytest.mark.parametrize("n", [2.5, True, "2", -1])
def test_basis_qubit_count_checked(n):
    with pytest.raises(ValidationError):
        StateVector.basis(n, 0)


@pytest.mark.parametrize("n, x", [(64, 0), (70, 0), (200, 5)])
def test_basis_refuses_64_qubits_before_allocating(n, x):
    with pytest.raises(ValidationError, match="out of range"):
        StateVector.basis(n, x)


_U = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("body", [
    {"n": 2.7, "gates": []},
    {"n": True, "gates": []},
    {"n": "2", "gates": []},
    {"n": 2, "gates": [{"kind": "single", "target": 1.5, "u": _U}]},
    {"n": 2, "gates": [{"kind": "single", "target": True, "u": _U}]},
    {"n": 2, "gates": [{"kind": "controlled", "controls": [[0, 1.5]],
                        "target": 1, "u": _U}]},
    {"n": 2, "gates": [{"kind": "controlled", "controls": [[0.0, 1]],
                        "target": 1, "u": _U}]},
    {"n": 2, "gates": [{"kind": "controlled", "controls": [[0, True]],
                        "target": 1, "u": _U}]},
    {"n": 2, "gates": [{"kind": "controlled", "controls": [[0, 1]],
                        "target": 1.0, "u": _U}]},
    # Out of range before any mask bit is built.
    {"n": 2, "gates": [{"kind": "controlled", "controls": [[10 ** 15, 1]],
                        "target": 1, "u": _U}]},
])
def test_circuit_from_json_rejects_non_integers(body):
    with pytest.raises(ValidationError):
        circuit_from_json(body)


@pytest.mark.parametrize("make, arg", [
    (circuit_from_json, {"n": 2}),
    (circuit_from_json, {"n": 2, "gates": [{"target": 0, "u": _U}]}),
    (circuit_from_json, {"n": 2, "gates": [
        {"kind": "single", "target": 0, "u": _U[:3]}]}),
    (circuit_from_json, {"n": 2, "gates": [
        {"kind": "single", "target": 0, "u": _U + [[0, 0]]}]}),
    (circuit_from_json, {"n": 2, "gates": [
        {"kind": "single", "target": 0, "u": [["1", 0]] + _U[1:]}]}),
    (circuit_from_json, {"n": 2, "gates": [
        {"kind": "pattern_phase", "pattern": 5, "phase": [1, 0]}]}),
    (circuit_from_json, {"n": 2, "gates": [
        {"kind": "pattern_phase", "pattern": "00", "phase": 1.0}]}),
    (circuit_from_json, {"n": 2, "gates": [
        {"kind": "pattern_phase", "pattern": ["0", "1"], "phase": [1, 0]}]}),
    (circuit_from_json, [2, []]),
    (partial(Circuit, 2), (None,)),
], ids=["no gates", "no kind", "3 entries", "5 entries", "string entry",
        "int pattern", "scalar phase", "list pattern", "not an object",
        "not a gate"])
def test_malformed_circuit_is_validation_error(make, arg):
    # Documented file format: every malformed input is a ValidationError.
    with pytest.raises(ValidationError):
        make(arg)


@pytest.mark.parametrize("make", [
    lambda: PatternPhase(5, -1),
    lambda: PatternPhase(["0", "1"], -1),
    lambda: PatternPhase("01", "x"),
    lambda: PatternPhase("01", "-1"),
    lambda: PatternPhase("01", None),
    lambda: PatternPhase("01", complex("nan")),
    lambda: Single([[1, 0], [0]], 0),
    lambda: Single("ab", 0),
    lambda: Single([[1, 0], [0, {}]], 0),
    lambda: Controlled(1, 1, [[0, 1], [1]], 1),
], ids=["int pattern", "list pattern", "word phase", "numeric string phase",
        "None phase", "NaN phase", "ragged block", "string block",
        "object entry", "ragged controlled block"])
def test_gate_constructor_is_validation_error(make):
    with pytest.raises(ValidationError):
        make()


def test_load_circuit_rejects_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"n": 2, "gates": [')
    with pytest.raises(ValidationError, match="bad circuit JSON"):
        load_circuit(path)


def test_unitarity_tolerance_is_absolute():
    # |u^H u - I| is 8e-6 on the diagonal: far outside ATOL_UNITARY, though
    # a relative tolerance of 1e-5 would accept it.
    with pytest.raises(ValidationError, match="unitary"):
        Single(np.diag([1 + 4e-6, 1]), 0)
    with pytest.raises(ValidationError, match="unitary"):
        Single(np.array([[np.nan, 0], [0, 1]]), 0)


def test_one_block_comparison_in_package():
    # Block decisions go through ir.blocks_close; numpy's allclose/isclose
    # would add a hidden relative tolerance.
    src = Path(grover_forge.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "allclose" not in text and "isclose" not in text, path.name


def test_test_comparisons_are_absolute():
    # np.allclose's default rtol=1e-5 would turn a stated atol=1e-12 into a
    # 1e-5 check, so every call in the tests passes rtol=0.
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "allclose"):
                rtol = [k.value for k in node.keywords if k.arg == "rtol"]
                assert [getattr(v, "value", None) for v in rtol] == [0], \
                    f"{path.name}:{node.lineno}"


def test_package_has_no_import_cycles():
    # Each module's relative imports, at any depth in the module.  Peeling
    # off modules that import no remaining one leaves only the cycles and
    # the modules that import them.
    src = Path(grover_forge.__file__).parent
    imports = {}
    for path in src.glob("*.py"):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                deps |= ({node.module.split(".")[0]} if node.module
                         else {alias.name for alias in node.names})
        imports[path.stem] = deps
    while leaves := [m for m, deps in imports.items()
                     if not deps & imports.keys()]:
        for m in leaves:
            del imports[m]
    assert not imports, f"import cycle among {sorted(imports)}"


def test_apply_x_sets_bit():
    state = apply_circuit(StateVector.basis(3, 0),
                          Circuit(3, (Single(X, 1),)))
    assert np.argmax(np.abs(state.amplitudes)) == 0b010


def test_pattern_phase_subtracts_component():
    n = 3
    uniform = StateVector(n, np.full(8, 8 ** -0.5, dtype=complex))
    state = apply_circuit(uniform, Circuit(n, (PatternPhase("000", -1),)))
    want = uniform.amplitudes.copy()
    want[0] -= 2 * 8 ** -0.5
    assert np.allclose(state.amplitudes, want, atol=1e-15, rtol=0)


@pytest.mark.parametrize("seed", range(12))
def test_apply_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    t = int(rng.integers(0, n))
    others = [q for q in range(n) if q != t]
    gates = [
        Single(random_unitary_2x2(rng), t),
        Controlled.from_pairs(
            tuple((int(q), int(rng.integers(0, 2)))
                  for q in rng.choice(others, size=min(2, len(others)),
                                      replace=False)),
            random_unitary_2x2(rng), t),
        PatternPhase("".join(str(int(b)) for b in rng.integers(0, 2, n)),
                     np.exp(1j * rng.uniform(0, 2 * np.pi))),
    ]
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    # Every control count up to all other qubits (the pi_sigma shape),
    # with mixed polarities.
    for m in range(1, n):
        controls = rng.choice(others, size=m, replace=False)
        gates.append(Controlled.from_pairs(
            tuple((int(q), int(rng.integers(0, 2))) for q in controls),
            random_unitary_2x2(rng), t))
    for gate in gates:
        got = apply_circuit(StateVector(n, amps),
                            Circuit(n, (gate,))).amplitudes
        want = dense_gate_matrix(gate, n) @ amps
        assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_apply_norm_preserving_and_linear():
    rng = np.random.default_rng(7)
    n = 4
    circuit = Circuit(n, (Controlled.from_pairs(
        ((0, 1), (2, 0)), random_unitary_2x2(rng), 3),))
    s1 = rng.normal(size=16) + 1j * rng.normal(size=16)
    s2 = rng.normal(size=16) + 1j * rng.normal(size=16)
    s1 /= np.linalg.norm(s1)
    s2 /= np.linalg.norm(s2)
    assert abs(apply_circuit(StateVector(n, s1), circuit).norm() - 1) < 1e-12
    a, b = 0.3 - 0.2j, 0.8 + 0.1j
    combined = apply_circuit(StateVector(n, a * s1 + b * s2),
                             circuit).amplitudes
    parts = (a * apply_circuit(StateVector(n, s1), circuit).amplitudes
             + b * apply_circuit(StateVector(n, s2), circuit).amplitudes)
    assert np.allclose(combined, parts, atol=1e-12, rtol=0)


def test_unitary_of_empty_is_identity():
    assert np.allclose(unitary_of(Circuit(3, ())), np.eye(8), rtol=0)


def test_unitary_of_zero_flip():
    mat = unitary_of(Circuit(2, (PatternPhase("00", -1),)))
    assert np.allclose(mat, np.diag([-1, 1, 1, 1]), rtol=0)


def test_unitary_of_matches_matrix_product():
    rng = np.random.default_rng(11)
    n = 3
    gates = (Single(random_unitary_2x2(rng), 1),
             Controlled.from_pairs(((0, 1),), random_unitary_2x2(rng), 2),
             PatternPhase("101", -1))
    circuit = Circuit(n, gates)
    product = np.eye(8, dtype=complex)
    for gate in gates:
        product = dense_gate_matrix(gate, n) @ product
    assert np.allclose(unitary_of(circuit), product, atol=1e-12, rtol=0)

    n = 5
    gates = []
    for _ in range(12):
        t = int(rng.integers(0, n))
        others = [q for q in range(n) if q != t]
        m = int(rng.integers(1, n))
        controls = tuple((int(q), int(rng.integers(0, 2)))
                         for q in rng.choice(others, size=m, replace=False))
        gates.append(Controlled.from_pairs(controls, random_unitary_2x2(rng),
                                           t))
    gates.append(PatternPhase("10110", np.exp(0.7j)))
    product = np.eye(1 << n, dtype=complex)
    for gate in gates:
        product = dense_gate_matrix(gate, n) @ product
    assert np.allclose(unitary_of(Circuit(n, tuple(gates))), product,
                       atol=1e-12, rtol=0)


def test_unitary_of_refuses_large_n():
    with pytest.raises(ValidationError, match="refusing"):
        unitary_of(Circuit(13, ()))


def test_dagger_inverts():
    rng = np.random.default_rng(13)
    circuit = Circuit(3, (Single(random_unitary_2x2(rng), 0),
                          Controlled.from_pairs(((1, 0),),
                                                random_unitary_2x2(rng), 2),
                          PatternPhase("110", 1j)))
    mat = unitary_of(circuit) @ unitary_of(circuit.dagger())
    assert np.allclose(mat, np.eye(8), atol=1e-12, rtol=0)


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(17)
    circuit = Circuit(3, (Single(random_unitary_2x2(rng), 0),
                          Controlled.from_pairs(((0, 1), (2, 0)),
                                                random_unitary_2x2(rng), 1),
                          PatternPhase("011", -1)))
    blob = json.dumps(circuit_to_json(circuit))
    loaded = circuit_from_json(json.loads(blob))
    assert loaded.n == circuit.n
    for a, b in zip(loaded.gates, circuit.gates):
        assert type(a) is type(b)
        if isinstance(a, PatternPhase):
            assert a.pattern == b.pattern and a.phase == b.phase
        else:
            assert np.array_equal(a.u, b.u)
            assert a.target == b.target
    state = StateVector(3, np.full(8, 8 ** -0.5, dtype=complex))
    assert np.array_equal(apply_circuit(state, loaded).amplitudes,
                          apply_circuit(state, circuit).amplitudes)


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["single", "controlled", "pattern"]))
        if kind == "pattern":
            pattern = "".join(draw(st.lists(st.sampled_from("01"),
                                            min_size=n, max_size=n)))
            angle = draw(st.floats(-np.pi, np.pi))
            gates.append(PatternPhase(pattern, np.exp(1j * angle)))
            continue
        rng = np.random.default_rng(draw(st.integers(0, 999)))
        u = random_unitary_2x2(rng)
        target = draw(st.integers(0, n - 1))
        others = [q for q in range(n) if q != target]
        if kind == "single" or not others:
            gates.append(Single(u, target))
            continue
        qubits = draw(st.lists(st.sampled_from(others), min_size=1,
                               unique=True))
        controls = tuple((q, draw(st.integers(0, 1))) for q in qubits)
        gates.append(Controlled.from_pairs(controls, u, target))
    return Circuit(n, tuple(gates))


@settings(derandomize=True, deadline=None)
@given(circuits())
def test_json_round_trip_drawn(circuit):
    blob = json.dumps(circuit_to_json(circuit))
    loaded = circuit_from_json(json.loads(blob))
    assert circuit_to_json(loaded) == circuit_to_json(circuit)
    assert np.array_equal(unitary_of(loaded), unitary_of(circuit))
