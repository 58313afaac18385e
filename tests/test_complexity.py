import numpy as np
import pytest
from conftest import random_target_set, target_sets
from hypothesis import example, given, settings

from grover_forge import (Circuit, Controlled, PatternPhase, Single,
                          TargetSet, ValidationError, bound_pi, bound_U,
                          bound_U_tilde, build_O_conv, build_oracle,
                          build_pi_sigma, build_report, build_U, build_U_tilde,
                          canonical_targets, count, gamma_approx, gamma_ratio,
                          sweep_gamma)
from grover_forge import reduced
from grover_forge.complexity import gate_cost, total_reduced_cost
from grover_forge.ir import H, X


def test_cost_model_default():
    assert [gate_cost(m) for m in range(5)] == [1, 1, 4, 9, 16]


def test_count_by_gate_kind():
    circuit = Circuit(3, (Single(H, 0),
                          Controlled.from_pairs(((0, 1),), X, 1),
                          Controlled.from_pairs(((0, 1), (1, 0)), X, 2),
                          PatternPhase("010", -1)))
    # 1 + 1 + 4 + (4 + 2*2) for the flip with two zero positions.
    assert count(circuit) == 14


def test_bound_values():
    assert bound_U(1, 5) == 1
    assert bound_U(3, 4) == 4 + 16 + 1
    assert bound_U_tilde(0) == 1
    assert bound_U_tilde(3) == 1 + 2 + 16
    assert bound_pi(3, 4) == 4 * 3 * 4


@pytest.mark.parametrize("seed", range(10))
def test_counts_respect_bounds(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(2, 9))
    targets = random_target_set(rng, n)
    s = targets.size
    _, l = canonical_targets(targets)
    assert count(build_U(targets)) <= bound_U(n, s)
    assert count(build_U_tilde(s, n)) <= bound_U_tilde(l)
    pi_circ, _ = build_pi_sigma(targets, "paper", validate=False)
    assert count(pi_circ) <= bound_pi(n, s)
    assert count(build_O_conv(targets)) <= s * (2 * n + gate_cost(n - 1))


def test_gamma_ratio_small_case_by_hand():
    # n=4, s=2: l=1, sqrt(2^n/s) = sqrt(8).
    exact, _ = gamma_ratio(4, 2)
    root = np.sqrt(8)
    want = (2 * 4 ** 3 * 2 + 2 * (4 ** 2 + 1 * 2) * root) \
        / (4 ** 2 * 3 * root)
    assert exact == pytest.approx(want, rel=1e-12)


def test_gamma_ratio_large_n_no_overflow():
    exact, approx = gamma_ratio(10_000, 2 ** 100)
    assert np.isfinite(exact) and np.isfinite(approx)
    assert exact < 1 and approx < 1


def test_gamma_ratio_validation():
    with pytest.raises(ValidationError):
        gamma_ratio(3, 0)
    with pytest.raises(ValidationError):
        gamma_ratio(3, 9)
    with pytest.raises(ValidationError, match="qubit count must be positive"):
        gamma_ratio(0, 1)


def test_gamma_ratio_huge_n():
    # The range check reads bit lengths, so 2^n is never built.  At |S|=1
    # only the flat terms remain: 2 n^2 / (n^2 (|S| + 1)), and 2 at l = 0.
    assert gamma_ratio(10 ** 20, 1) == (1.0, 2.0)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"),
                                   float("-inf"), -0.1, 1.5])
def test_gamma_approx_rejects_impossible_density(gamma):
    with pytest.raises(ValidationError, match="density"):
        gamma_approx(10, gamma)
    with pytest.raises(ValidationError, match="density"):
        sweep_gamma([10], [0.5, gamma])


def test_gamma_approx_limits():
    # gamma -> 0 keeps only the dominated-oracle terms; for large n the
    # ratio tends to 2 gamma^2.
    n = 100_000
    for gamma in (0.1, 0.3, 0.5):
        assert gamma_approx(n, gamma) == pytest.approx(2 * gamma ** 2,
                                                       abs=1e-6)


def test_crossover_near_inverse_sqrt2():
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    rows = sweep_gamma([1000], grid)
    flips = [g for _, g, _, dom in rows if not dom]
    assert min(flips) == pytest.approx(0.75, abs=0.051)
    assert all(dom for _, g, _, dom in rows if g <= 0.70)


def test_total_reduced_cost():
    assert total_reduced_cost(3, 4, 1) == 2 * 27 * 4 + 2 * 9 + 2 * 2 * 4 * 2


def test_build_report_example(example_targets):
    report = build_report(example_targets)
    assert (report.n, report.s, report.l) == (3, 4, 2)
    assert report.k == 1
    assert report.counts["U"] == 6
    assert report.counts["U_tilde"] == 2
    assert report.counts["pi_sigma"] == 12
    for name in ("U", "U_tilde", "pi_sigma"):
        assert report.counts[name] <= report.bounds[name]
    blob = report.to_json()
    assert blob["verdict"] in ("reduced", "conventional")
    assert blob["counts"]["oracle_conv"] <= blob["bounds"]["oracle_conv"]


def test_report_verdict_tracks_ratio():
    small = build_report(TargetSet(20, (3, 5)))
    assert small.gamma_exact < 1 and small.verdict == "reduced"
    dense = build_report(TargetSet(4, tuple(range(12))), k=1)
    assert dense.gamma_exact > 1 and dense.verdict == "conventional"


def test_report_accepts_colliding_paper_mode(monkeypatch):
    # Counting must not reject sets whose paper-mode chains collide: the
    # chain 011 -> 010 -> 000 passes through the target 010.  pi_sigma is
    # counted from its plan, two 2-controlled X gates, and none is built.
    def refuse(*args):
        raise AssertionError("built a pi_sigma gate")

    monkeypatch.setattr(reduced, "_transposition_gate", refuse)
    assert build_report(TargetSet(3, (1, 2, 3))).counts["pi_sigma"] == 8


@settings(max_examples=40, deadline=None)
@given(target_sets(1, 7))
@example(TargetSet(1, (1,)))
@example(TargetSet(3, (1, 2, 3)))
def test_report_counts_the_built_oracle(targets):
    counts = build_report(targets, k=1).counts
    assert counts["oracle"] == count(build_oracle(targets))
    assert counts["pi_sigma"] == count(
        build_pi_sigma(targets, "paper", validate=False)[0])
