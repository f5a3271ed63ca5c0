"""Graphs: ADT, DIMACS I/O, benchmark generators, cliques, heuristics."""

from .analysis import connected_components, is_bipartite
from .cliques import clique_lower_bound, greedy_clique, is_clique, max_clique
from .coloring_heuristics import dsatur, greedy_coloring, welsh_powell
from .dimacs import read_dimacs_graph, write_dimacs_graph
from .generators import (
    book_graph,
    games_graph,
    geometric_graph,
    gnm_graph,
    gnp_graph,
    interference_graph,
    mycielski_graph,
    mycielski_step,
    queens_graph,
)
from .graph import Graph, disjoint_union

__all__ = [
    "Graph",
    "book_graph",
    "clique_lower_bound",
    "connected_components",
    "disjoint_union",
    "is_bipartite",
    "dsatur",
    "games_graph",
    "geometric_graph",
    "gnm_graph",
    "gnp_graph",
    "greedy_clique",
    "greedy_coloring",
    "interference_graph",
    "is_clique",
    "max_clique",
    "mycielski_graph",
    "mycielski_step",
    "queens_graph",
    "read_dimacs_graph",
    "welsh_powell",
    "write_dimacs_graph",
]
