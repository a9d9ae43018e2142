"""The public names of the ``tekit`` package.

A name leaves this list only on purpose, with its reason stated in
CHANGES.md; a name that goes by accident fails here.
"""

import inspect

import tekit

PUBLIC_NAMES = [
    "AlgorithmKind", "BuildConfig", "Edge", "EmptyWindowError", "ErrorReport",
    "FlowSolution", "GravityState", "InsufficientHistoryError",
    "LengthMismatchError", "MissingPathsError", "MwConfig",
    "NoEligibleSinkError", "ParseError", "Path", "PhaseLimitError",
    "PredictorConfig", "RoutingTree", "Scheme", "SchemeDriver", "SimConfig",
    "SimReport", "StepMetrics", "Summary", "Topology", "TopologyError",
    "TrafficMatrix", "TreeDistribution", "UnreachablePair", "ZeroDemandError",
    "bundled_topology_names", "choose_window", "churn", "demand_envelope",
    "diurnal_scale", "ecmp", "evaluate_scheme", "failure_schedule",
    "flash_burst", "frt_tree", "generate_sequences", "gravity_tm", "ksp",
    "load_bundled_topology", "load_topology", "make_scheme",
    "max_min_allocate", "mcf_mw", "metrics_rollup", "mh_step",
    "oblivious_scheme", "parse_topology", "paths_from_distribution",
    "perturb_for_prediction", "predict_next", "prediction_error_report",
    "prune_to_budget", "raecke_distribution", "read_tm_sequence",
    "recover_global", "recover_local", "report_to_csv", "semi_mcf",
    "semi_mcf_ft_env", "simulate", "spf", "stretch", "validate_scheme", "vlb",
    "write_tm_sequence",
]


def test_public_names_are_listed():
    """Submodules are left out: which of them are attributes of the
    package depends on what else has been imported."""
    names = sorted(name for name, value in vars(tekit).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES
