"""Fair, interpretable resource-eligibility matching policies from observational data."""

from .core import (CATEMatrix, Dataset, FlowMatrix, MCMSInstance, MatchingTopology,
                   Policy, policy_from_flows, policy_value, rationalize)
from .queuing import (CRPDecomposition, FlowSolveError, check_admissible,
                      crp_components, steady_state_flows)
from .optimizer import (BigMConstants, FairnessSpec, InexactFlowError,
                        InfeasibleModelError, MIOModel, OptimizationResult,
                        PoolingCutLimitError, SolverLimitError,
                        add_non_affirmative_links, build_mio, compute_bigM,
                        enumerate_oracle, solve)
from .desim import SimulationStats, simulate
from .ope import (ValueEstimate, evaluate_all, evaluate_dm, evaluate_dr,
                  evaluate_gt, evaluate_ipw, per_group_values)
from .synth import (SynthParams, alpha_variant, generate, run_alpha_sweep,
                    run_pipeline, run_queue_sweep)

__all__ = [
    "CATEMatrix", "Dataset", "FlowMatrix", "MCMSInstance", "MatchingTopology",
    "Policy", "policy_from_flows", "policy_value", "rationalize",
    "CRPDecomposition", "FlowSolveError", "check_admissible",
    "crp_components", "steady_state_flows", "BigMConstants", "FairnessSpec",
    "InexactFlowError", "InfeasibleModelError", "MIOModel", "OptimizationResult",
    "PoolingCutLimitError", "SolverLimitError",
    "add_non_affirmative_links", "build_mio", "compute_bigM", "enumerate_oracle",
    "solve", "SimulationStats", "simulate", "ValueEstimate", "evaluate_all",
    "evaluate_dm", "evaluate_dr", "evaluate_gt", "evaluate_ipw", "per_group_values",
    "SynthParams", "alpha_variant", "generate", "run_alpha_sweep", "run_pipeline",
    "run_queue_sweep",
]
