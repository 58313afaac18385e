"""Circuit synthesis and exact simulation for multi-target database search."""

from .complexity import (ComplexityReport, bound_pi, bound_U, bound_U_tilde,
                         build_report, count, gamma_approx, gamma_ratio,
                         sweep_gamma, total_reduced_cost)
from .dichotomy import PrefixTable, build_prefix_table, conditional_prob, marginal_prob
from .engine import (AnalyticSchedule, analytic_schedule, grover_run,
                     grover_states, success_probability, uniform_state)
from .errors import PermutationValidationError, SimulatorLimitError, ValidationError
from .ir import (Circuit, Controlled, PatternPhase, Single, StateVector,
                 apply_circuit, circuit_from_json, circuit_to_json,
                 load_circuit, ry_from_probs, save_circuit, unitary_of)
from .lowering import lower
from .qasm import to_qasm
from .reduced import (PermutationPlan, build_pi_sigma, build_U_tilde,
                      canonical_targets, gray_path)
from .synth import (build_D, build_O_conv, build_oracle, build_P, build_stage,
                    build_U)
from .targets import TargetSet, parse_target_file

__all__ = [
    "AnalyticSchedule", "Circuit", "ComplexityReport", "Controlled",
    "PatternPhase", "PermutationPlan",
    "PermutationValidationError", "PrefixTable", "SimulatorLimitError",
    "Single", "StateVector", "TargetSet", "ValidationError",
    "analytic_schedule", "apply_circuit", "bound_U",
    "bound_U_tilde", "bound_pi", "build_D", "build_O_conv", "build_P",
    "build_U", "build_U_tilde", "build_oracle", "build_pi_sigma",
    "build_prefix_table", "build_report", "build_stage",
    "canonical_targets", "circuit_from_json", "circuit_to_json",
    "conditional_prob", "count", "gamma_approx", "gamma_ratio", "gray_path",
    "grover_run", "grover_states", "load_circuit", "lower", "marginal_prob",
    "parse_target_file", "ry_from_probs", "save_circuit",
    "success_probability", "sweep_gamma", "to_qasm", "total_reduced_cost",
    "uniform_state", "unitary_of",
]

__version__ = "0.1.0"
