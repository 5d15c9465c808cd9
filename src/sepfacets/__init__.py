"""Exact facet counting for symmetric edge polytopes of sparse graphs:
combinatorial enumeration, closed-form family counts, exhaustive and
formula-based verification sweeps, and seeded chain sampling."""

from .graph import cycle, parallel_paths, wedge, windmill
from .facets import facet_count, facet_count_via_subgraphs, facet_functions
from .formulas import cycle_count, double_cycle_max, parallel_paths_count, windmill_count

__version__ = "0.1.0"
