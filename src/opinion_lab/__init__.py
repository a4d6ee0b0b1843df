"""Heterogeneous bounded-confidence / bounded-influence opinion dynamics.

Synchronous averaging over state-dependent proximity digraphs, with the
graph/spectral classification, equilibrium machinery, stability conditions,
and Monte Carlo experiment harness built on top of it.
"""

from opinion_lab.state import Model, OpinionState
from opinion_lab.graph import (
    Classification,
    ProximityDigraph,
    SccClass,
    build_digraph,
    classify,
    strongly_connected_components,
)
from opinion_lab.matrix import (
    CanonicalDecomposition,
    adjacency_matrix,
    canonical_decomposition,
    fvct,
    m_star,
    spectral_radius,
)
from opinion_lab.dynamics import (
    PseudoStableVerdict,
    Termination,
    Trajectory,
    digraph_hash,
    per_step_factor,
    pseudo_stable_check,
    simulate,
    step,
)
from opinion_lab.stability import (
    AgreementSufficiency,
    StabilityReport,
    check_agreement_sufficient,
    check_equal_topology,
    check_limit_equilibrium,
    equi_topology_distance,
    in_neighborhood,
    invariant_equi_topology_distance,
    is_agreement_vector,
    is_equilibrium,
    stability_report,
)
from opinion_lab.leader import (
    LeaderAssignment,
    leader_assignment,
    verify_direction_prediction,
    verify_rate_prediction,
)
from opinion_lab.experiment import (
    ExperimentConfig,
    RunRecord,
    draw_state,
    emit_results,
    run_campaign,
    run_seed,
    run_single,
)

__version__ = "0.1.0"

__all__ = [
    "Model",
    "OpinionState",
    "ProximityDigraph",
    "Classification",
    "SccClass",
    "build_digraph",
    "classify",
    "strongly_connected_components",
    "CanonicalDecomposition",
    "adjacency_matrix",
    "canonical_decomposition",
    "spectral_radius",
    "m_star",
    "fvct",
    "Trajectory",
    "Termination",
    "PseudoStableVerdict",
    "step",
    "simulate",
    "per_step_factor",
    "pseudo_stable_check",
    "digraph_hash",
    "StabilityReport",
    "AgreementSufficiency",
    "equi_topology_distance",
    "invariant_equi_topology_distance",
    "in_neighborhood",
    "check_equal_topology",
    "is_equilibrium",
    "is_agreement_vector",
    "check_agreement_sufficient",
    "check_limit_equilibrium",
    "stability_report",
    "LeaderAssignment",
    "leader_assignment",
    "verify_rate_prediction",
    "verify_direction_prediction",
    "ExperimentConfig",
    "RunRecord",
    "draw_state",
    "run_campaign",
    "run_seed",
    "run_single",
    "emit_results",
]
