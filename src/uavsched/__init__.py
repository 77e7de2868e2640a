"""Energy-minimal handover scheduling for replacing relays in SDN UAV networks."""

from .errors import InstanceTooLarge, IoFailure, Unreachable, UavschedError
from .model import (
    DEFAULT_TIMINGS,
    EnergyReport,
    FlowSpec,
    InstanceBuild,
    ReplacementInstance,
    RuleCounts,
    RuleTimings,
    Schedule,
    build_instance,
    compute_energy,
    evaluate_order,
    handover_time,
    instance_from_json,
    instance_from_parts,
    instance_to_json,
    rule_counts_from_route,
)
from .netgen import (
    HoverParams,
    NetworkParams,
    RadioParams,
    UavNetwork,
    generate_network,
    hover_power,
    path_loss,
    sample_scenario,
    shortest_route,
)
from .ordering import (
    IlpModel,
    TotalOrderMatrix,
    build_ilp,
    ilp_objective,
    order_to_schedule,
    schedule_to_canonical_order,
    validate_total_order,
)
from .sched import (
    ScoreTable,
    SolverResult,
    brute_force_schedule,
    exact_schedule,
    exact_schedule_dp,
    heuristic_schedule,
    random_schedule,
    score_table,
)
from .experiment import (
    CellStats,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"
