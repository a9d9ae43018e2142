"""tekit: a wide-area traffic engineering toolkit.

Routing algorithms (shortest-path baselines, routing-tree based oblivious
routing, adaptive min-max-congestion flow solving), synthetic demand
generation, demand predictors, and a discrete-step network simulator with
failure and flash-burst models.
"""

from .algorithms import BuildConfig, SchemeDriver, make_scheme, oblivious_scheme
from .baseline import ecmp, ksp, spf, vlb
from .demand import (GravityState, NoEligibleSinkError, ZeroDemandError,
                     diurnal_scale, flash_burst, generate_sequences,
                     gravity_tm, mh_step, perturb_for_prediction)
from .fileio import (ParseError, bundled_topology_names, load_bundled_topology,
                     load_topology, parse_topology, read_tm_sequence,
                     write_tm_sequence)
from .mcf import (EmptyWindowError, FlowSolution, MissingPathsError, MwConfig,
                  PhaseLimitError, demand_envelope, evaluate_scheme, mcf_mw,
                  semi_mcf, semi_mcf_ft_env)
from .model import (AlgorithmKind, Edge, Path, Scheme, Topology, TopologyError,
                    TrafficMatrix, UnreachablePair, churn, prune_to_budget,
                    validate_scheme)
from .predict import (ErrorReport, InsufficientHistoryError,
                      LengthMismatchError, PredictorConfig, choose_window,
                      predict_next, prediction_error_report)
from .raecke import (RoutingTree, TreeDistribution, frt_tree,
                     paths_from_distribution, raecke_distribution, stretch)
from .sim import (SimConfig, SimReport, StepMetrics, Summary, failure_schedule,
                  max_min_allocate, metrics_rollup, recover_global,
                  recover_local, report_to_csv, simulate)

__version__ = "0.1.0"
