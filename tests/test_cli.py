import contextlib
import csv
import io
import json
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_forge import engine, load_circuit, unitary_of
from grover_forge.cli import main
from grover_forge.ir import StateVector


@pytest.fixture
def target_file(tmp_path):
    path = tmp_path / "targets.txt"
    path.write_text("n=3\n000\n001\n010\n100\n")
    return str(path)


def test_synth_u(target_file, tmp_path, capsys):
    out = str(tmp_path / "u.json")
    assert main(["synth", "--targets", target_file, "--variant", "u",
                 "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "u: 3 gates, counted cost 6 (bound 21)" in stdout
    circuit = load_circuit(out)
    assert circuit.n == 3 and len(circuit.gates) == 3


def test_synth_pi_sigma_writes_plan(target_file, tmp_path):
    out = str(tmp_path / "pi.json")
    assert main(["synth", "--targets", target_file, "--variant", "pi-sigma",
                 "--out", out]) == 0
    plan = json.loads((tmp_path / "pi.json.plan.json").read_text())
    assert plan["paths"] == [["100", "101", "111", "011"]]
    assert len(load_circuit(out).gates) == 3


def test_synth_pi_sigma_defaults_to_auto(tmp_path):
    # The paper chain 011 -> 010 -> 000 passes through the target 010.
    targets = tmp_path / "colliding.txt"
    targets.write_text("n=3\n001\n010\n011\n")
    out = str(tmp_path / "pi.json")
    assert main(["synth", "--targets", str(targets), "--variant", "pi-sigma",
                 "--out", out]) == 0
    plan = json.loads((tmp_path / "pi.json.plan.json").read_text())
    assert plan["mode"] == "exact"
    assert main(["synth", "--targets", str(targets), "--variant", "pi-sigma",
                 "--mode", "paper", "--out", out]) == 4


def test_synth_qasm_export(target_file, tmp_path):
    out = str(tmp_path / "u.json")
    qasm = tmp_path / "u.qasm"
    assert main(["synth", "--targets", target_file, "--variant", "u",
                 "--out", out, "--qasm", str(qasm)]) == 0
    text = qasm.read_text()
    assert text.startswith("OPENQASM 2.0;")
    assert "qreg q[3];" in text
    assert "cx " in text and "ry(" in text


def test_synth_qasm_budget_writes_nothing(tmp_path, capsys):
    # U of one target on 30 qubits lowers to about 2^30 CNOTs; lowering
    # refuses it before building a gate, and no output file is written.
    path = tmp_path / "wide.txt"
    path.write_text("n=30\n" + "1" * 30 + "\n")
    out, qasm = tmp_path / "u.json", tmp_path / "u.qasm"
    assert main(["synth", "--targets", str(path), "--variant", "u",
                 "--out", str(out), "--qasm", str(qasm)]) == 2
    captured = capsys.readouterr()
    assert "CNOTs" in captured.err and captured.out == ""
    assert not out.exists() and not qasm.exists()


def test_synth_oracle_matches_reflection(target_file, tmp_path):
    out = str(tmp_path / "oracle.json")
    assert main(["synth", "--targets", target_file, "--variant", "oracle",
                 "--out", out]) == 0
    mat = unitary_of(load_circuit(out))
    psi = np.zeros(8)
    psi[[0, 1, 2, 4]] = 0.5
    assert np.abs(mat - (np.eye(8) - 2 * np.outer(psi, psi))).max() < 1e-12


def test_simulate_json(target_file, capsys):
    assert main(["simulate", "--targets", target_file, "--variant", "reduced",
                 "--k", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == 1 and report["k_star"] == 1
    assert report["iterations"][0]["success"] == pytest.approx(0.5)
    assert report["iterations"][1]["success"] == pytest.approx(0.5)
    assert report["max_deviation"] < 1e-10


def test_simulate_amplitudes(target_file, capsys):
    assert main(["simulate", "--targets", target_file, "--variant",
                 "conventional", "--k", "0", "--json", "--amplitudes"]) == 0
    report = json.loads(capsys.readouterr().out)
    amps = np.array([complex(re, im) for re, im in report["amplitudes"]])
    assert np.allclose(amps, np.full(8, 8 ** -0.5), rtol=0)


def simulate_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["simulate", *argv]) == 0
    return out.getvalue()


@pytest.mark.parametrize("variant", engine.VARIANTS)
@pytest.mark.parametrize("body", ["n=1\n1\n", "n=3\n000\n001\n010\n100\n"])
def test_simulate_json_bytes(tmp_path, variant, body):
    path = tmp_path / "targets.txt"
    path.write_text(body)
    argv = ["--targets", str(path), "--variant", variant, "--k", "2",
            "--json"]
    plain = simulate_stdout(argv)
    report = json.loads(plain)
    assert "amplitudes" not in report
    assert plain == json.dumps(report, indent=1) + "\n"
    out = simulate_stdout(argv + ["--amplitudes"])
    report = json.loads(out)
    assert out == json.dumps(report, indent=1) + "\n"
    assert len(report["amplitudes"]) == 1 << report["n"]
    del report["amplitudes"]
    assert json.dumps(report, indent=1) + "\n" == plain


FLOATS = st.one_of(
    st.floats(-1e100, 1e100),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-300, -1e-300, 1e20, -1e20, 0.1, 1 / 3]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(FLOATS, min_size=2 << n, max_size=2 << n)))
def test_amplitude_writer_matches_json(tmp_path_factory, values):
    n = (len(values) // 2).bit_length() - 1
    path = tmp_path_factory.mktemp("drawn") / "targets.txt"
    path.write_text(f"n={n}\n{'0' * n}\n")
    # A view keeps every bit of each part; re + 1j * im would turn
    # (-0.0, x) into (0.0, x).
    drawn = StateVector(n, np.array(values).view(complex))

    def states(targets, variant, k_max, mode):
        yield 0, drawn

    with mock.patch.object(engine, "grover_states", states):
        out = simulate_stdout(["--targets", str(path), "--variant",
                               "modified", "--k", "0", "--json",
                               "--amplitudes"])
    report = json.loads(out)
    report["amplitudes"] = [[re, im] for re, im in zip(values[::2],
                                                       values[1::2])]
    assert out == json.dumps(report, indent=1) + "\n"


def test_simulate_qubit_limit(tmp_path, monkeypatch, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"n": 40, "targets": [5]}')
    monkeypatch.setenv("GROVER_FORGE_MAX_QUBITS", "8")
    # k* = 823,549 is above the iteration limit too: n is checked first.
    for k in ("1", "auto"):
        assert main(["simulate", "--targets", str(path),
                     "--variant", "conventional", "--k", k]) == 3
        assert "exceeds simulator limit" in capsys.readouterr().err


def wide_file(tmp_path, n):
    path = tmp_path / f"wide{n}.json"
    path.write_text(json.dumps({"n": n, "targets": [0, 5, 2 ** n - 1]}))
    return str(path)


def test_wide_set_exit_codes(tmp_path, capsys):
    # |S|/2^n underflows at n=1100: simulate stops at the qubit limit,
    # compare asks for --k, and with --k the report is counted.
    path = wide_file(tmp_path, 1100)
    assert main(["simulate", "--targets", path, "--variant", "modified"]) == 3
    assert "exceeds simulator limit" in capsys.readouterr().err
    assert main(["compare", "--targets", path]) == 2
    captured = capsys.readouterr()
    assert "compare --k" in captured.err and captured.out == ""
    assert main(["compare", "--targets", path, "--k", "3"]) == 0
    assert capsys.readouterr().out.startswith("n=1100 |S|=3 l=2 k=3\n")


@pytest.mark.parametrize("variant", ["u", "pi-sigma"])
def test_synth_file_bound_writes_nothing(tmp_path, capsys, variant):
    # U of {0, 5, 2^n - 1} holds about n^2/2 control pairs: 8 million at
    # n=4000, refused before any JSON is built, the plan file included.
    out = tmp_path / "c.json"
    started = time.perf_counter()
    assert main(["synth", "--targets", wide_file(tmp_path, 4000),
                 "--variant", variant, "--out", str(out)]) == 2
    assert time.perf_counter() - started < 10
    captured = capsys.readouterr()
    assert "control pairs" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "wide4000.json"]


def test_target_work_bound_refuses_at_once(tmp_path, capsys):
    # Each set is refused in closed form from n and |S|, before anything is
    # built for it: n=10^20 would crash bitstring and 2^n, and 80,000
    # labels on 40 qubits cost compare --targets 93 s and 1.2 GB.
    labels = random.Random(3).sample(range(1 << 40), 80_000)
    bodies = {"huge.json": {"n": 10 ** 20, "targets": [0]},
              "dense.json": {"n": 40, "targets": labels}}
    for name, body in bodies.items():
        path = tmp_path / name
        path.write_text(json.dumps(body))
        out = tmp_path / "out"
        for argv in (["compare", "--targets", str(path), "--k", "3",
                      "--out", str(out)],
                     ["synth", "--targets", str(path), "--variant",
                      "oracle-conv", "--out", str(out),
                      "--qasm", str(out) + ".qasm"]):
            started = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - started < 1
            captured = capsys.readouterr()
            assert "too large" in captured.err
            assert captured.out == "" and not out.exists()


def test_json_label_digit_limit(tmp_path, capsys):
    # json.loads reads at most 4,300 decimal digits per int; bitstrings
    # give the same labels.
    path = tmp_path / "long.json"
    path.write_text('{"n": 20000, "targets": [0, ' + "9" * 5000 + "]}")
    out = tmp_path / "out"
    for argv in (["compare", "--targets", str(path), "--out", str(out)],
                 ["synth", "--targets", str(path), "--variant", "u",
                  "--out", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "as bitstrings" in captured.err
        assert not out.exists()


def test_qubit_limit_setting_below_64(tmp_path, monkeypatch, capsys):
    # No state holds 2**64 amplitudes, so a limit of 64 or more is refused
    # before numpy is asked for one.
    path = tmp_path / "wide.json"
    path.write_text('{"n": 70, "targets": [1]}')
    monkeypatch.setenv("GROVER_FORGE_MAX_QUBITS", "70")
    assert main(["simulate", "--targets", str(path),
                 "--variant", "conventional", "--k", "1"]) == 2
    assert "GROVER_FORGE_MAX_QUBITS=70" in capsys.readouterr().err


def test_paper_mode_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "collide.json"
    path.write_text('{"n": 3, "targets": [1, 2, 3]}')
    out = str(tmp_path / "pi.json")
    assert main(["synth", "--targets", path.as_posix(), "--variant",
                 "pi-sigma", "--out", out, "--mode", "paper"]) == 4
    assert "mode='exact'" in capsys.readouterr().err
    assert main(["synth", "--targets", path.as_posix(), "--variant",
                 "pi-sigma", "--out", out, "--mode", "exact"]) == 0


def test_compare_point(capsys):
    assert main(["compare", "--n", "1000", "--s", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "conventional"
    assert report["Gamma_exact"] >= 1


def test_compare_report(target_file, capsys):
    assert main(["compare", "--targets", target_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["U"] == 6
    assert report["counts"]["pi_sigma"] == 12


def test_compare_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["compare", "--sweep", "n=1000", "gamma=0.05:0.95:0.05",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "gamma", "Gamma", "dominates"]
    flags = {float(g): int(d) for _, g, _, d in rows[1:]}
    assert flags[0.5] == 1 and flags[0.9] == 0


@pytest.mark.parametrize("grid, points", [("0.05:0.95:0.01", 91),
                                          ("0.05:0.95:0.05", 19),
                                          ("0.5:0.5:0.1", 1),
                                          ("0.1,0.2", 2)])
def test_compare_sweep_grid_points(tmp_path, grid, points):
    out = tmp_path / "sweep.csv"
    assert main(["compare", "--sweep", "n=10,1000", f"gamma={grid}",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 2 * points
    if points == 91:
        assert [g for _, g, _, _ in rows[:points]] == [
            f"{0.05 + 0.01 * i:.6g}" for i in range(points)]


@pytest.mark.parametrize("sweep", [
    ["n=10", "gamma=0.1:0.9:0"],
    ["n=10", "gamma=0.1:0.9:-0.1"],
    ["n=10", "gamma=0:1:1e-9"],
    ["n=10,100", "gamma=0:1:0.00001"],
    ["n=abc", "gamma=0.1"],
])
def test_compare_bad_sweep_writes_nothing(tmp_path, capsys, sweep):
    out = tmp_path / "sweep.csv"
    assert main(["compare", "--sweep", *sweep, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gamma", [
    "nan", "inf", "-0.1", "1.5", "0.5,1.5",
    "nan:0.5:0.1", "-0.1:0.5:0.1", "0.5:1.5:0.5", "0:inf:0.5",
])
def test_compare_sweep_rejects_impossible_density(tmp_path, capsys, gamma):
    out = tmp_path / "sweep.csv"
    assert main(["compare", "--sweep", "n=10", f"gamma={gamma}",
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--n", "0", "--s", "1"],
    ["--n", "-1", "--s", "1"],
    ["--sweep", "n=0", "gamma=0.5"],
])
def test_compare_rejects_nonpositive_n(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert main(["compare", *argv, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_compare_rejects_negative_k(target_file, capsys):
    assert main(["compare", "--targets", target_file, "--k", "-7"]) == 2
    captured = capsys.readouterr()
    assert "iteration count -7 out of range" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("k", ["-1", "3000000"])
def test_simulate_iteration_limit_before_allocation(target_file, capsys,
                                                    monkeypatch, k):
    def refuse(n):
        raise AssertionError(f"allocated a {n}-qubit state")

    monkeypatch.setattr(engine, "uniform_state", refuse)
    for variant in engine.VARIANTS:
        assert main(["simulate", "--targets", target_file,
                     "--variant", variant, "--k", k]) == 2
        captured = capsys.readouterr()
        assert "out of range" in captured.err and captured.out == ""
    assert main(["compare", "--targets", target_file, "--k", k]) == 2


def test_validation_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("hello\n")
    assert main(["simulate", "--targets", str(path),
                 "--variant", "conventional", "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    '{"n": "x", "targets": [1]}',
    '{"n": 3, "targets": [null]}',
    '{"n": 3, "targets": 5}',
    '{"n": 3, "targets": [1.5, 2]}',
    '{"n": 3, "targets": [true]}',
    '{"n": 2.7, "targets": [1]}',
])
def test_json_targets_need_integers(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_text(body)
    assert main(["simulate", "--targets", str(path),
                 "--variant", "conventional", "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_needs_arguments(capsys):
    assert main(["compare"]) == 2
