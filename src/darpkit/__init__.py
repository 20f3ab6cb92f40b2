"""Event-based graph tooling for the static dial-a-ride problem.

The package turns a request list into a state-expanded event graph,
assembles mixed-integer models on top of it in two flavours, exports
them as solver-neutral MPS/LP files, and can check any claimed
solution against an exhaustive oracle and a semantics-level validator.
"""

from .errors import (
    DarpkitError, DataError, InfeasibleError, ParseError, SolutionError,
)
from .instance import (
    FLEET_SIZES, INBOUND, OUTBOUND, GeneratorConfig, Instance, Request,
    TravelMetric, generate_synthetic, instance_from_json, instance_sha256,
    instance_to_json, parse_cordeau, tighten_time_windows,
)
from .schedule import compatible_pairs, minimal_schedule
from .event_graph import (
    ArcTable, EventGraph, EventNode, arc_count_closed_form,
    build_event_graph, graph_stats, node_count_closed_form, to_dot,
)
from .model import (
    MODEL2, MODEL3, OBJECTIVES, VARIANTS, MilpModel, ObjectiveSpec,
    ObjectiveValue, build_model, combine_components, read_mapping,
    variable_mapping, write_lp, write_mapping, write_mps,
)
from .solve import (
    ORACLE_LIMIT, Schedule, Solution, ValidationReport, Violation,
    evaluate_objective, import_solution, max_acceptance, oracle_solve,
    solution_from_json, solution_to_json, validate_solution,
)
from .backend import (
    MilpResult, ParsedMip, parse_mps, read_assignment, solve_mip,
    write_assignment,
)

__version__ = "0.1.0"

__all__ = [
    "DarpkitError", "DataError", "InfeasibleError", "ParseError",
    "SolutionError",
    "FLEET_SIZES", "INBOUND", "OUTBOUND", "GeneratorConfig", "Instance",
    "Request", "TravelMetric", "generate_synthetic", "instance_from_json",
    "instance_sha256", "instance_to_json", "parse_cordeau",
    "tighten_time_windows", "compatible_pairs",
    "ArcTable", "EventGraph", "EventNode", "arc_count_closed_form",
    "build_event_graph", "graph_stats", "node_count_closed_form", "to_dot",
    "MODEL2", "MODEL3", "OBJECTIVES", "VARIANTS", "MilpModel",
    "ObjectiveSpec", "ObjectiveValue", "build_model", "combine_components",
    "read_mapping", "variable_mapping", "write_lp", "write_mapping",
    "write_mps",
    "ORACLE_LIMIT", "Schedule", "Solution", "ValidationReport", "Violation",
    "evaluate_objective", "import_solution", "max_acceptance",
    "minimal_schedule", "oracle_solve", "solution_from_json", "solution_to_json", "validate_solution",
    "MilpResult", "ParsedMip", "parse_mps", "read_assignment", "solve_mip",
    "write_assignment",
    "__version__",
]
