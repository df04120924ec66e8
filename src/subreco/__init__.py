"""Reconfiguration of feasible subsets under submodular objectives.

The package answers questions of the form: given two good subsets X and Y of
a ground set and a set function f, can X be transformed into Y by elementary
steps (exchanges, additions, removals) so that every intermediate subset
keeps a high value of f?  It provides validated sequence objects, concrete
oracles, two approximation algorithms with guarantees, an A* search for
shortest feasible sequences, an exact bottleneck solver, and the standard
hardness reductions.
"""

from .core import (
    AdjacencyRule,
    BudgetExceededError,
    GroundSet,
    OracleDomainError,
    ProblemInstance,
    ReconfigSequence,
    SetFunctionOracle,
    Subset,
    UniverseMismatchError,
    Verdict,
    check_monotone,
    check_submodular,
    is_adjacent,
    neighbors,
    residual,
    sequence_value,
    total_curvature,
    validate_sequence,
)
from .oracles import (
    CnfFormula,
    CoverageSpec,
    GramMatrix,
    NotPositiveDefiniteError,
    RrSetCollection,
    WeightedGraph,
    coverage_oracle,
    cut_oracle,
    directionalize,
    incidence_oracle,
    influence_oracle,
    inverse_indegree_probabilities,
    is_vertex_cover,
    logdet_oracle,
    modular_oracle,
    nae_clause_oracle,
    sample_rr_sets,
    shifted_incidence_oracle,
)
from .algorithms import (
    AstarConfig,
    AstarResult,
    GreedyTrace,
    astar,
    default_heuristic,
    greedy,
    interchangeable_greedy,
    swap_reconfigure,
    tjar_reconfigure,
)
from .exact import (
    StateGraphSummary,
    build_value_table,
    optimal_sequence,
    optimal_value,
)
from .reductions import (
    SatAssignment,
    VcReconfigInstance,
    inapprox_gadget,
    minvc_to_usreco_tjar,
    nae3sat_to_usreco_tar,
    obs52_instance,
    obs54_instance,
    obs55_instance,
    sat_reconfig_to_vc_reconfig,
    vc_to_msreco,
)
from .fileio import (
    InstanceParseError,
    format_ids_1indexed,
    load_cnf,
    load_edge_list,
    load_gram,
    load_instance,
    load_rr_collection,
    load_sequence_csv,
    parse_ids_1indexed,
    save_rr_collection,
    write_cnf,
    write_edge_list,
    write_gram,
    write_instance,
    write_sequence_csv,
)
from .experiment import (
    ExperimentConfig,
    Report,
    make_synthetic_gram,
    run_experiment,
)

__version__ = "0.1.0"
