"""Gate counting and the closed-form cost comparison of the two pipelines.

The cost model charges one elementary gate for an uncontrolled or singly
controlled gate and m^2 for m >= 2 controls.  Bounds are the exact sums
behind the asymptotic headlines, so the inequalities are testable; the
crossover ratio is evaluated in log space to stay finite for thousands of
qubits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .ir import Circuit, Controlled, PatternPhase
from .engine import analytic_schedule, check_iterations
from .reduced import build_U_tilde, plan_pi_sigma, target_bits
from .synth import build_D, build_O_conv, build_P, build_U
from .targets import TargetSet, check_target_count


def gate_cost(m: int) -> int:
    """Elementary-gate charge of a gate with m controls."""
    return 1 if m <= 1 else m * m


def count(circuit: Circuit) -> int:
    """Total elementary-gate charge of a circuit.

    A basis-state phase flip on n qubits is charged as an (n-1)-controlled
    gate plus the X conjugation on its zero positions.
    """
    total = 0
    for gate in circuit.gates:
        if isinstance(gate, Controlled):
            total += gate_cost(gate.mask.bit_count())
        elif isinstance(gate, PatternPhase):
            n = len(gate.pattern)
            total += gate_cost(n - 1) + 2 * gate.pattern.count("0")
        else:
            total += gate_cost(0)
    return total


def bound_U(n: int, s: int) -> int:
    """Exact sum behind the n^3 |S| / 6 headline for the full preparation."""
    return sum(m * m * s for m in range(1, n)) + 1


def bound_U_tilde(l: int) -> int:
    """Exact sum behind the l^2 2^l headline for the compressed preparation."""
    return 1 + sum(m * m * (1 << m) for m in range(1, l))


def bound_pi(n: int, s: int) -> int:
    """At most s pairs, n gray steps each, n-1 controls per step."""
    return s * n * (n - 1) ** 2


def bound_O_conv(n: int, s: int) -> int:
    """One basis-state phase flip per target: an (n-1)-controlled gate and
    at most 2n X gates around it."""
    return s * (2 * n + gate_cost(n - 1))


def total_reduced_cost(n: int, s: int, k: int) -> int:
    """Headline cost of the permuted pipeline after k iterations."""
    l = target_bits(s)
    return 2 * n ** 3 * s + 2 * k * n ** 2 + 2 * k * l * l * (1 << l)


def _check_density(gamma: float) -> None:
    """A target density l/n lies in [0, 1]; NaN and infinities do not."""
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(
            f"target density must lie in [0, 1], got {gamma}")


def gamma_approx(n: int, gamma: float) -> float:
    """Large-n approximation of the cost ratio at target density l/n."""
    check_target_count(n, 1)
    _check_density(gamma)
    ln2 = math.log(2)
    terms = [math.log(n) - n * (1 - gamma) / 2 * ln2, -n * gamma * ln2]
    value = gamma * gamma
    for t in terms:
        try:
            value += math.exp(t)
        except OverflowError:
            raise ValidationError("cost ratio overflows at these parameters")
    return 2 * value


def gamma_ratio(n: int, s: int) -> tuple[float, float]:
    """(exact, approximate) ratio of permuted-pipeline cost to conventional
    oracle cost at the square-root iteration budget."""
    check_target_count(n, s)
    l = target_bits(s)
    # First term 2 n^3 s / (n^2 (s+1) sqrt(2^n / s)) in log space: it
    # underflows harmlessly for large n instead of overflowing.
    ln = math.log
    log_term = (ln(2) + 3 * ln(n) + ln(s) - 2 * ln(n) - ln(s + 1)
                - 0.5 * (n * ln(2) - ln(s)))
    try:
        synth_term = math.exp(log_term)
    except OverflowError:
        raise ValidationError("cost ratio overflows at these parameters")
    flat_term = 2 * (n * n + l * l * (1 << l)) / (n * n * (s + 1))
    exact = synth_term + flat_term
    return exact, gamma_approx(n, l / n)


def verdict_of(gamma_exact: float) -> str:
    """The cheaper pipeline at a given exact cost ratio."""
    return "reduced" if gamma_exact < 1.0 else "conventional"


def sweep_gamma(n_list, gamma_grid) -> list[tuple[int, float, float, bool]]:
    """Rows (n, gamma, ratio, dominates) over a grid of target densities."""
    rows = []
    for n in n_list:
        for gamma in gamma_grid:
            ratio = gamma_approx(n, gamma)
            rows.append((int(n), float(gamma), ratio, ratio <= 1.0))
    return rows


@dataclass(frozen=True)
class ComplexityReport:
    """Counted costs, paper bounds, and the crossover ratio for one set."""

    n: int
    s: int
    l: int
    k: int
    counts: dict
    bounds: dict
    gamma: float
    gamma_exact: float
    gamma_approximate: float

    @property
    def verdict(self) -> str:
        return verdict_of(self.gamma_exact)

    def to_json(self) -> dict:
        return {
            "n": self.n, "s": self.s, "l": self.l, "k": self.k,
            # pi_sigma is always counted from its paper-mode plan.
            "pi_mode": "paper",
            "counts": dict(self.counts), "bounds": dict(self.bounds),
            "gamma": self.gamma,
            "Gamma_exact": self.gamma_exact,
            "Gamma_approx": self.gamma_approximate,
            "verdict": self.verdict,
        }


def build_report(targets: TargetSet, k: int | None = None
                 ) -> ComplexityReport:
    """Count every construction for one target set.

    pi_sigma is counted from its paper-mode plan, one (n-1)-controlled X
    per swap, and no gate of it is built.  Counting does not require the
    gray-code chains to be semantically valid, so paper mode is never
    rejected here.  The oracle U P U^dagger is counted from its parts.
    """
    n, s = targets.n, targets.size
    l = target_bits(s)
    if k is None:
        k = analytic_schedule(n, s).k_star
    else:
        check_iterations(k)
    prep = build_U(targets)
    prep_tilde = build_U_tilde(s, n)
    swaps = plan_pi_sigma(targets, "paper", validate=False).swaps()
    oracle_conv = build_O_conv(targets)
    u_cost, p_cost = count(prep), count(build_P(n))
    counts = {
        "U": u_cost,
        "U_tilde": count(prep_tilde),
        "pi_sigma": gate_cost(n - 1) * len(swaps),
        "oracle": 2 * u_cost + p_cost,
        "oracle_conv": count(oracle_conv),
        "D": count(build_D(n)),
        "P": p_cost,
    }
    counts["reduced_run"] = (2 * counts["pi_sigma"]
                             + k * (counts["U_tilde"] * 2 + counts["P"]
                                    + counts["D"]))
    counts["conventional_run"] = k * (counts["oracle_conv"] + counts["D"])
    bounds = {
        "U": bound_U(n, s),
        "U_tilde": bound_U_tilde(l),
        "pi_sigma": bound_pi(n, s),
        "oracle_conv": bound_O_conv(n, s),
        "reduced_run": total_reduced_cost(n, s, k),
    }
    exact, approx = gamma_ratio(n, s)
    return ComplexityReport(n=n, s=s, l=l, k=k, counts=counts, bounds=bounds,
                            gamma=l / n, gamma_exact=exact,
                            gamma_approximate=approx)
