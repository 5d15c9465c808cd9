"""Exact facet counting for symmetric edge polytopes of sparse graphs:
combinatorial enumeration, closed-form family counts, exhaustive and
formula-based verification sweeps, and seeded chain sampling."""

from .graph import (
    Graph,
    MultigraphError,
    ParseError,
    PathVector,
    adjacency,
    biconnected_blocks,
    cycle,
    cycle_with_tail,
    double_cycle,
    graph_from_json,
    graph_to_json,
    is_connected,
    parallel_paths,
    parse_graph,
    path,
    serialize_graph,
    theta,
    wedge,
    windmill,
)
from .facets import (
    facet_count,
    facet_count_via_subgraphs,
    facet_functions,
    facet_subgraphs,
)
from .formulas import (
    FamilySpec,
    binom,
    closed_form_count,
    cycle_count,
    cycle_with_tail_count,
    double_cycle_count,
    double_cycle_max,
    parallel_paths_count,
    same_parity_count,
    theta_count,
    tree_count,
    windmill_count,
)
from .enumeration import (
    GuardExceeded,
    canonical_form,
    canonical_graph,
    connected_graphs,
    trees,
)
from .conjectures import ConjectureReport
from .sampler import ChainConfig, SampleRecord, run_chain

__version__ = "0.1.0"
