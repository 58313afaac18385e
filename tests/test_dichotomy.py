import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import target_sets
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_forge import (TargetSet, ValidationError, build_prefix_table,
                          conditional_prob, marginal_prob, parse_target_file)
from grover_forge.targets import bitstring, prefix_of


def brute_force_counts(targets):
    """Enumerate |{x in S : first m bits of x == alpha}| directly."""
    n = targets.n
    table = {}
    for m in range(1, n + 1):
        for alpha in range(1 << m):
            c = sum(1 for x in targets.labels if prefix_of(x, m, n) == alpha)
            if c:
                table[(m, alpha)] = c
    return table


def test_example_counts(example_targets):
    table = build_prefix_table(example_targets)
    assert table.levels[0] == {0: 3, 1: 1}
    assert table.levels[1] == {0: 2, 1: 1, 2: 1}
    assert table.levels[2] == {0: 1, 1: 1, 2: 1, 4: 1}


def test_singleton_single_path():
    targets = TargetSet(4, (0b1011,))
    table = build_prefix_table(targets)
    for m in range(1, 5):
        assert table.levels[m - 1] == {0b1011 >> (4 - m): 1}


@pytest.mark.parametrize("seed", range(4))
def test_counts_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    from conftest import random_target_set
    targets = random_target_set(rng, 4)
    table = build_prefix_table(targets)
    expected = brute_force_counts(targets)
    got = {(m, a): c for m in range(1, 5)
           for a, c in table.levels[m - 1].items()}
    assert got == expected


def test_marginal_paper_value(example_targets):
    table = build_prefix_table(example_targets)
    assert marginal_prob(table, 1, 0) == Fraction(3, 4)
    assert marginal_prob(table, 1, 1) == Fraction(1, 4)


def test_marginal_depth_n_is_uniform(example_targets):
    table = build_prefix_table(example_targets)
    for x in example_targets.labels:
        assert marginal_prob(table, 3, x) == Fraction(1, 4)
    assert marginal_prob(table, 3, 3) == 0


@pytest.mark.parametrize("seed", range(3))
def test_marginals_match_brute_force(seed):
    rng = np.random.default_rng(100 + seed)
    from conftest import random_target_set
    targets = random_target_set(rng, 5)
    table = build_prefix_table(targets)
    expected = brute_force_counts(targets)
    for m in range(1, 6):
        for alpha in range(1 << m):
            want = Fraction(expected.get((m, alpha), 0), targets.size)
            assert marginal_prob(table, m, alpha) == want


def test_conditional_paper_value(example_targets):
    table = build_prefix_table(example_targets)
    assert conditional_prob(table, 1, 0, 0) == Fraction(2, 3)
    assert conditional_prob(table, 1, 1, 0) == Fraction(1, 3)


def test_conditional_forced_branch():
    # 5 = 101: given the first bit 1, the second bit is forced to 0.
    table = build_prefix_table(TargetSet(3, (5,)))
    assert conditional_prob(table, 1, 0, 1) == 1
    assert conditional_prob(table, 1, 1, 1) == 0


@pytest.mark.parametrize("seed", range(3))
def test_bayes_identity_exact(seed):
    rng = np.random.default_rng(200 + seed)
    from conftest import random_target_set
    targets = random_target_set(rng, 5)
    table = build_prefix_table(targets)
    for m in range(1, 5):
        for alpha in table.support(m):
            for i in (0, 1):
                lhs = conditional_prob(table, m, i, alpha) \
                    * marginal_prob(table, m, alpha)
                assert lhs == marginal_prob(table, m + 1, 2 * alpha + i)


@pytest.mark.parametrize("seed", range(3))
def test_table_invariants(seed):
    rng = np.random.default_rng(300 + seed)
    from conftest import random_target_set
    targets = random_target_set(rng, 6)
    table = build_prefix_table(targets)
    for m in range(1, 7):
        level = table.levels[m - 1]
        assert sum(level.values()) == targets.size
        assert sum(marginal_prob(table, m, a) for a in level) == 1
        if m < 6:
            child = table.levels[m]
            for alpha, c in level.items():
                assert child.get(2 * alpha, 0) + child.get(2 * alpha + 1, 0) == c
    assert table.support(6) == targets.label_set


def test_errors():
    with pytest.raises(ValidationError, match="empty target set"):
        TargetSet(3, ())
    with pytest.raises(ValidationError):
        TargetSet(3, (1, 1))
    with pytest.raises(ValidationError):
        TargetSet(2, (4,))
    table = build_prefix_table(TargetSet(3, (0,)))
    with pytest.raises(ValidationError, match="out of range"):
        marginal_prob(table, 0, 0)
    with pytest.raises(ValidationError, match="out of range"):
        marginal_prob(table, 1, 2)
    with pytest.raises(ValidationError, match="empty branch"):
        conditional_prob(table, 1, 0, 1)


@pytest.mark.parametrize("n, labels", [
    (3, (0.5, 1.0)), (3, (True,)), (3, (1, 2.0)),
    (True, (0,)), (3.0, (1,)), ("3", (1,)), (-1, (0,)),
])
def test_target_set_rejects_non_integers(n, labels):
    with pytest.raises(ValidationError):
        TargetSet(n, labels)


def test_target_set_stores_ints():
    targets = TargetSet(np.int64(3), (np.int64(1), 5))
    assert type(targets.n) is int
    assert [type(x) for x in targets.labels] == [int, int]
    with pytest.raises(ValidationError, match="qubit count"):
        TargetSet.from_labels(2.0, ["01"])


def test_bitstrings_are_msb_first():
    targets = TargetSet.from_labels(3, ["100"])
    assert targets.labels == (4,)


def test_parse_text_file(tmp_path):
    path = tmp_path / "targets.txt"
    path.write_text("n=3\n000\n001\n010\n100\n")
    targets = parse_target_file(path)
    assert targets.n == 3 and targets.labels == (0, 1, 2, 4)


def test_parse_json_file(tmp_path):
    path = tmp_path / "targets.json"
    path.write_text('{"n": 3, "targets": [4, 0, 2, 1]}')
    targets = parse_target_file(path)
    assert targets.labels == (0, 1, 2, 4)


@settings(derandomize=True, deadline=None)
@given(target_sets(1, 8, max_size=40), st.randoms(use_true_random=False))
def test_target_file_round_trip(targets, rnd):
    labels = list(targets.labels)
    rnd.shuffle(labels)
    bodies = {"s.json": json.dumps({"n": targets.n, "targets": labels}),
              "s.txt": "\n".join([f"n={targets.n}",
                                  *(bitstring(x, targets.n)
                                    for x in targets.labels)])}
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in bodies.items():
            path = Path(tmp) / name
            path.write_text(body)
            assert parse_target_file(path) == targets


def test_parse_rejects_duplicates(tmp_path):
    path = tmp_path / "targets.txt"
    path.write_text("n=2\n01\n01\n")
    with pytest.raises(ValidationError):
        parse_target_file(path)
