"""Fair, interpretable resource-eligibility matching policies from observational data."""

from .core import (CATEMatrix, Dataset, FlowMatrix, MCMSInstance, MatchingTopology,
                   Policy, policy_from_flows, policy_value, rationalize,
                   validate_instance)
from .queuing import (CRPDecomposition, FlowSolveError, check_admissible,
                      crp_components, steady_state_flows)
from .optimizer import (BigMConstants, FairnessSpec, InexactFlowError,
                        InfeasibleModelError, MIOModel, OptimizationResult,
                        PoolingCutLimitError, SolverLimitError,
                        add_non_affirmative_links, build_mio, compute_bigM,
                        enumerate_oracle, solve, write_lp_text)
from .desim import SimulationStats, simulate, simulate_replay, write_event_log
from .ope import (ValueEstimate, evaluate_all, evaluate_dm, evaluate_dr,
                  evaluate_gt, evaluate_ipw, per_group_values,
                  reliability_bins, within_group_calibration)
from .synth import (SynthParams, alpha_variant, generate, run_alpha_sweep,
                    run_pipeline, run_queue_sweep)

__all__ = [
    "CATEMatrix", "Dataset", "FlowMatrix", "MCMSInstance", "MatchingTopology",
    "Policy", "policy_from_flows", "policy_value", "rationalize",
    "validate_instance", "CRPDecomposition", "FlowSolveError", "check_admissible",
    "crp_components", "steady_state_flows", "BigMConstants", "FairnessSpec",
    "InexactFlowError", "InfeasibleModelError", "MIOModel", "OptimizationResult",
    "PoolingCutLimitError", "SolverLimitError",
    "add_non_affirmative_links", "build_mio", "compute_bigM", "enumerate_oracle",
    "solve", "write_lp_text", "SimulationStats", "simulate", "simulate_replay",
    "write_event_log", "ValueEstimate", "evaluate_all", "evaluate_dm",
    "evaluate_dr", "evaluate_gt", "evaluate_ipw", "per_group_values",
    "reliability_bins", "within_group_calibration", "SynthParams",
    "alpha_variant", "generate", "run_alpha_sweep", "run_pipeline",
    "run_queue_sweep",
]
