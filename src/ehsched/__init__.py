"""Throughput-optimal scheduling for an energy-harvesting multi-antenna
broadcast transmitter with hybrid (fast + lossy bulk) energy storage.

The package covers the full pipeline: zero-forcing dirty-paper channel
decomposition, weighted water-filling, the optimal single-epoch burst
rule under circuit power, whole-horizon offline optimization with dual
certificates, causal online policies, and a Monte-Carlo benchmark
harness with a small CLI.
"""

from .channels import (
    ChannelSet,
    CovarianceSet,
    EffectiveChannels,
    UserConfig,
    channelset_from_json,
    channelset_to_json,
    decompose_zf_dpc,
    generate_channels,
    weighted_rate,
)
from .energy import (
    ArrivalSplit,
    EpochTimeline,
    FeasibilityReport,
    HybridStorage,
    build_timeline,
    check_feasibility,
    generate_compound_poisson,
)
from .experiments import (
    ExperimentSpec,
    default_parameters,
    reference_profile,
    run_sweep,
    run_trial,
)
from .offline import (
    DualCertificate,
    OfflineInstance,
    OfflineSolution,
    Schedule,
    SolverError,
    solve_offline_circuit,
    solve_offline_ideal,
)
from .online import OnlineResult, policy_circuit, policy_ideal, run_online, split_arrival
from .oracle import (
    LemmaCheck,
    LemmaReport,
    TransformedVariables,
    brute_force_oracle,
    objective_from_covariances,
    objective_from_transformed,
    verify_structure,
)
from .single_epoch import solve_p_o, solve_single_epoch
from .waterfill import (
    WaterLevelSolution,
    WaterSystem,
    covariances_for_level,
    solve_budget,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSet",
    "CovarianceSet",
    "EffectiveChannels",
    "UserConfig",
    "channelset_from_json",
    "channelset_to_json",
    "decompose_zf_dpc",
    "generate_channels",
    "weighted_rate",
    "ArrivalSplit",
    "EpochTimeline",
    "FeasibilityReport",
    "HybridStorage",
    "build_timeline",
    "check_feasibility",
    "generate_compound_poisson",
    "ExperimentSpec",
    "default_parameters",
    "reference_profile",
    "run_sweep",
    "run_trial",
    "DualCertificate",
    "LemmaCheck",
    "LemmaReport",
    "OfflineInstance",
    "OfflineSolution",
    "Schedule",
    "SolverError",
    "TransformedVariables",
    "brute_force_oracle",
    "objective_from_covariances",
    "objective_from_transformed",
    "solve_offline_circuit",
    "solve_offline_ideal",
    "verify_structure",
    "OnlineResult",
    "policy_circuit",
    "policy_ideal",
    "run_online",
    "split_arrival",
    "solve_p_o",
    "solve_single_epoch",
    "WaterLevelSolution",
    "WaterSystem",
    "covariances_for_level",
    "solve_budget",
    "__version__",
]
