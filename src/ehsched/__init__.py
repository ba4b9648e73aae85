"""Throughput-optimal scheduling for an energy-harvesting multi-antenna
broadcast transmitter with hybrid (fast + lossy bulk) energy storage.

The package covers the full pipeline: zero-forcing dirty-paper channel
decomposition, weighted water-filling, the efficiency-optimal burst power
under circuit power, whole-horizon offline optimization with dual
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
from .online import OnlineResult, run_online
from .single_epoch import solve_p_o
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
    "OfflineInstance",
    "OfflineSolution",
    "Schedule",
    "SolverError",
    "solve_offline_circuit",
    "solve_offline_ideal",
    "OnlineResult",
    "run_online",
    "solve_p_o",
    "WaterLevelSolution",
    "WaterSystem",
    "covariances_for_level",
    "solve_budget",
    "__version__",
]
