"""Graph substrate used by the pebbling model.

This subpackage is a small, self-contained graph library providing exactly
the structures the paper's model needs:

- :class:`~repro.graphs.simple.Graph` — a general undirected graph, used for
  line graphs ``L(G)``, TSP(1,2) instances, and hardness gadgets.
- :class:`~repro.graphs.bipartite.BipartiteGraph` — the *join graph* of a
  join problem instance (paper §2).
- the one-pass component split (Lemma 2.2) and the 0th Betti number
  (paper Def 2.2),
- line-graph construction and claw-freeness (paper §2.2),
- maximum matchings, Hamiltonian-path search, generators and serialization.

``networkx`` is deliberately *not* used here; the test-suite uses it only as
an independent oracle to cross-check this implementation.
"""

from repro.graphs.simple import Graph
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.components import (
    Decomposition,
    betti_number,
    decompose,
    disjoint_union,
    is_connected,
)
from repro.graphs.line_graph import is_claw_free, line_graph
from repro.graphs.matching import greedy_maximal_matching, hopcroft_karp
from repro.graphs.hamiltonian import (
    find_hamiltonian_path,
    has_hamiltonian_path,
    hamiltonian_path_endpoints,
)

__all__ = [
    "Graph",
    "BipartiteGraph",
    "Decomposition",
    "betti_number",
    "decompose",
    "disjoint_union",
    "is_connected",
    "line_graph",
    "is_claw_free",
    "hopcroft_karp",
    "greedy_maximal_matching",
    "find_hamiltonian_path",
    "has_hamiltonian_path",
    "hamiltonian_path_endpoints",
]
