"""Approximate one-to-one alignment of functions between two call graphs.

The pipeline: load two attributed call graphs, score function pairs with a
weighted Canberra similarity, assemble a sparse network alignment problem
whose objective mirrors graph edit cost, and solve it with max-product
belief propagation (or one of the simpler baseline matchers).
"""

from .bp import BpConfig, BpDiagnostics, BpState, bp_iterate, estimate_mode, init_state, solve_nap
from .errors import (CompositionError, DataError, FormatError, GraphMismatchError,
                     MappingError, SearchSpaceError)
from .evaluation import GroundTruth, ScoreReport, extrapolate, load_ground_truth, \
    mapping_to_keys, save_ground_truth, score
from .graphs import (CallGraph, load_call_graph, parse_call_graph, save_call_graph,
                     serialize_call_graph, validate_pair)
from .matchers import (brute_force_optimum, max_weight_matching, node_weight_map,
                       solve_mcs_greedy, solve_mwm)
from .nap import (Candidates, Mapping, NapProblem, baseline_cost, build_candidates,
                  build_problem, count_squares, ged_cost_direct, ged_cost_editpath,
                  mapping_problem, nap_objective)
from .similarity import (SimilarityConfig, SimilarityMatrix, build_similarity_matrix,
                         canberra_similarity)
from .synthetic import MutationSpec, generate_graph, mutate

__version__ = "0.1.0"

__all__ = [
    "BpConfig", "BpDiagnostics", "BpState", "CallGraph", "Candidates", "CompositionError",
    "DataError", "FormatError", "GraphMismatchError",
    "GroundTruth", "Mapping", "MappingError", "MutationSpec", "NapProblem",
    "ScoreReport", "SearchSpaceError", "SimilarityConfig", "SimilarityMatrix",
    "baseline_cost", "bp_iterate", "brute_force_optimum", "build_candidates", "build_problem",
    "build_similarity_matrix", "canberra_similarity", "count_squares", "estimate_mode",
    "extrapolate", "ged_cost_direct", "ged_cost_editpath", "generate_graph",
    "init_state", "load_call_graph", "load_ground_truth", "mapping_problem", "mapping_to_keys",
    "max_weight_matching", "mutate",
    "nap_objective", "node_weight_map", "parse_call_graph", "save_call_graph",
    "save_ground_truth", "score", "serialize_call_graph", "solve_mcs_greedy",
    "solve_mwm", "solve_nap", "validate_pair",
]
