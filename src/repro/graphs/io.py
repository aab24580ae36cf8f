"""Serialization of graphs to and from a small text format.

The format is line-oriented and human-editable:

.. code-block:: text

    # bipartite
    L u0 u1 u2
    R v0 v1
    E u0 v0
    E u1 v0
    E u2 v1

``L``/``R`` lines declare vertices (so isolated vertices survive a round
trip); ``E`` lines declare edges.  Plain graphs use ``V`` instead of
``L``/``R`` and a ``# graph`` header; :func:`load_any_graph` reads either.
Vertex names may not contain whitespace.
"""

from __future__ import annotations

from repro.errors import GraphError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.simple import Graph


def _checked(name) -> str:
    text = str(name)
    if any(c.isspace() for c in text):
        raise GraphError(
            f"vertex name {text!r} contains whitespace and cannot be "
            "serialized; relabel the graph first"
        )
    return text


def dump_bipartite(graph: BipartiteGraph) -> str:
    """Serialize a bipartite graph; inverse of :func:`load_bipartite`.

    Vertex names must be whitespace-free once stringified (relabel graphs
    with tuple vertices before dumping).
    """
    lines = ["# bipartite"]
    if graph.left:
        lines.append("L " + " ".join(_checked(v) for v in graph.left))
    if graph.right:
        lines.append("R " + " ".join(_checked(v) for v in graph.right))
    for u, v in graph.edges():
        lines.append(f"E {_checked(u)} {_checked(v)}")
    return "\n".join(lines) + "\n"


def load_bipartite(text: str) -> BipartiteGraph:
    """Parse the output of :func:`dump_bipartite`.

    Vertex names are restored as strings.
    """
    graph = BipartiteGraph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, *fields = line.split()
        if tag == "L":
            for name in fields:
                graph.add_left_vertex(name)
        elif tag == "R":
            for name in fields:
                graph.add_right_vertex(name)
        elif tag == "E":
            if len(fields) != 2:
                raise GraphError(f"line {lineno}: E needs two vertex names")
            graph.add_edge(fields[0], fields[1])
        else:
            raise GraphError(f"line {lineno}: unknown tag {tag!r}")
    return graph


def dump_graph(graph: Graph) -> str:
    """Serialize a plain graph; inverse of :func:`load_graph`."""
    lines = ["# graph"]
    if graph.vertices:
        lines.append("V " + " ".join(_checked(v) for v in graph.vertices))
    for u, v in graph.edges():
        lines.append(f"E {_checked(u)} {_checked(v)}")
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> Graph:
    """Parse the output of :func:`dump_graph` (vertex names as strings)."""
    graph = Graph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, *fields = line.split()
        if tag == "V":
            for name in fields:
                graph.add_vertex(name)
        elif tag == "E":
            if len(fields) != 2:
                raise GraphError(f"line {lineno}: E needs two vertex names")
            graph.add_edge(fields[0], fields[1])
        else:
            raise GraphError(f"line {lineno}: unknown tag {tag!r}")
    return graph


def load_any_graph(text: str) -> Graph | BipartiteGraph:
    """Parse either variant, sniffing which from the text.

    The first non-blank line decides: a ``#`` header naming ``graph`` but
    not ``bipartite``, or a ``V`` line, means a plain graph
    (:func:`load_graph`); anything else is parsed as bipartite
    (:func:`load_bipartite`).
    """
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            plain = "graph" in line and "bipartite" not in line
        else:
            plain = line.split(None, 1)[0] == "V"
        if plain:
            return load_graph(text)
        break
    return load_bipartite(text)
