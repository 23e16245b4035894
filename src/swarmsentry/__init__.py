"""Detection of position-spoofing UAVs in cooperative swarms.

The pipeline: generate a swarm, corrupt reports with noise, inject an attack,
initialize a suspect partition from distance comparisons, then shrink the
suspect set with feasibility-check driven detectors.
"""

from .swarm import (
    InvalidParameterError,
    MeasurementSet,
    NoiseParams,
    Swarm,
    Uav,
    apply_position_noise,
    generate_swarm,
    measure_distances,
    neighbor_set,
)
from .attacks import (
    AttackPlan,
    AttackedScenario,
    apply_collusion,
    apply_distributed,
    apply_mixed,
    build_attack,
    default_collusion_target,
    select_malicious,
)
from .suspects import ReportedDistanceMatrix, SuspectSets, build_reported_matrix, initial_suspects
from .sdp import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    FeasibilityProblem,
    OracleOptions,
    OracleResult,
    assemble,
    check_feasibility,
    lift_positions,
    pair_constraint_matrix,
)
from .detectors import (
    DetectionResult,
    DetectorOptions,
    cdi,
    detect,
    ecdi,
    nlos_baseline,
    random_baseline,
)
from .experiments import ExperimentConfig, MetricsRow, preset, run_sweep, run_trial
from .metrics import malicious_ratio, precision_recall_f1

__version__ = "0.1.0"
