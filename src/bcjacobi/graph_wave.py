"""Discrete wave equation on metric graphs with the variational vertex rule.

Interior points follow the free stencil; an internal vertex v of degree p
updates by

    u(v, t+1) = (2/p) sum_{edges e at v} u^e_{neighbor, t} - u(v, t-1),

which is the stationarity condition of the discrete action (for p = 2 it
reduces to the interior stencil).  Boundary vertices carry Dirichlet
controls, applied from t = 1 with zero initial state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _json_int, _require_size
from .errors import InvalidInputError

__all__ = ["Edge", "GraphSpec", "GraphField", "simulate"]


@dataclass(frozen=True)
class Edge:
    tail: str  # vertex at slot 0
    head: str  # vertex at slot n_seg
    n_seg: int  # number of unit lattice intervals on the edge

    def __post_init__(self):
        _require_size("edge lattice interval count", self.n_seg)


@dataclass(frozen=True)
class GraphSpec:
    """Discrete metric graph: vertices with boundary flags, oriented edges.

    Each edge carries nodes 0..n_seg; slot 0 attaches to `tail`, slot n_seg
    to `head`.  Boundary vertices must have degree 1; the graph must be
    connected.
    """

    vertices: tuple  # of (id, boundary flag)
    edges: tuple  # of Edge

    def __post_init__(self):
        ids = [v for v, _ in self.vertices]
        if not ids:
            raise InvalidInputError("a graph needs at least one vertex")
        if len(set(ids)) != len(ids):
            raise InvalidInputError("duplicate vertex ids")
        deg = {v: 0 for v in ids}
        for e in self.edges:
            if e.tail not in deg or e.head not in deg:
                raise InvalidInputError(f"edge {e} references an unknown vertex")
            deg[e.tail] += 1
            deg[e.head] += 1
        for v, boundary in self.vertices:
            if boundary and deg[v] != 1:
                raise InvalidInputError(f"boundary vertex {v} must have degree 1")
            if deg[v] == 0:
                raise InvalidInputError(f"isolated vertex {v}")
        # connectivity by union of edge endpoints
        seen = {ids[0]}
        frontier = [ids[0]]
        adj = {v: [] for v in ids}
        for e in self.edges:
            adj[e.tail].append(e.head)
            adj[e.head].append(e.tail)
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if seen != set(ids):
            raise InvalidInputError("graph is not connected")

    @property
    def boundary(self) -> list:
        return [v for v, b in self.vertices if b]

    @property
    def internal(self) -> list:
        return [v for v, b in self.vertices if not b]

    @staticmethod
    def path(n_seg: int) -> "GraphSpec":
        """Single edge with one controlled and one clamped end."""
        return GraphSpec(
            vertices=(("in", True), ("out", True)),
            edges=(Edge("in", "out", n_seg),),
        )

    @staticmethod
    def star(arms: int, n_seg: int) -> "GraphSpec":
        """Star with `arms` edges of equal length around one internal vertex."""
        verts = [("c", False)] + [(f"b{i}", True) for i in range(arms)]
        edges = tuple(Edge(f"b{i}", "c", n_seg) for i in range(arms))
        return GraphSpec(vertices=tuple(verts), edges=edges)

    def to_json(self) -> dict:
        return {
            "vertices": [{"id": v, "boundary": bool(b)} for v, b in self.vertices],
            "edges": [{"from": e.tail, "to": e.head, "n_interior": e.n_seg} for e in self.edges],
        }

    @staticmethod
    def from_json(obj: dict) -> "GraphSpec":
        try:
            vertices = tuple((v["id"], v["boundary"]) for v in obj["vertices"])
            edges = [(e["from"], e["to"], e["n_interior"]) for e in obj["edges"]]
        except (LookupError, TypeError) as exc:
            raise InvalidInputError(f"malformed graph JSON: {type(exc).__name__} {exc}") from None
        if not all(isinstance(v, str) and isinstance(b, bool) for v, b in vertices):
            raise InvalidInputError("malformed graph JSON: a vertex needs a string id and a bool boundary")
        if not all(isinstance(t, str) and isinstance(h, str) and _json_int(n) for t, h, n in edges):
            raise InvalidInputError("malformed graph JSON: an edge needs string ends and an int n_interior")
        return GraphSpec(vertices=vertices, edges=tuple(Edge(*e) for e in edges))


@dataclass(frozen=True)
class GraphField:
    """Per-edge arrays u[e][j, t] (j = 0..n_seg, t = 0..T) plus controls.

    Controls are keyed by boundary vertex id; missing keys mean clamped (0).
    Every vertex is one node, so the endpoint slots of its edges agree.
    """

    graph: GraphSpec
    u: tuple  # u[e] is an (n_seg+1) x (T+1) array
    controls: dict


def _layout(graph: GraphSpec):
    """Number each vertex once, then the interior points of each edge in order.

    Returns (node count, vertex node by id, slot -> node array of each edge,
    groups), where groups maps each degree p to the free nodes of that degree
    and their (p, n) neighbour columns: (right, left) at interior points, the
    neighbour along each incident edge end in edge order at internal vertices.
    """
    node = {v: i for i, (v, _) in enumerate(graph.vertices)}
    slots, nbrs = [], {v: [] for v in graph.internal}
    base = len(node)
    for e in graph.edges:
        s = np.r_[node[e.tail], base : base + e.n_seg - 1, node[e.head]]
        base += e.n_seg - 1
        slots.append(s)
        for v, j in ((e.tail, s[1]), (e.head, s[-2])):
            if v in nbrs:
                nbrs[v].append(j)
    parts = {2: [(s[1:-1], np.stack((s[2:], s[:-2]))) for s in slots]}
    for v, nb in nbrs.items():
        parts.setdefault(len(nb), []).append(([node[v]], np.array(nb)[:, None]))
    groups = {p: (np.concatenate([f for f, _ in fc]), np.concatenate([c for _, c in fc], axis=1))
              for p, fc in parts.items()}
    return base, node, slots, groups


def simulate(graph: GraphSpec, controls: dict, T: int) -> tuple:
    """Run T steps from the zero state; returns (field, energy log).

    The energy log row t holds (t, T_D(t), U_D(t), T_D + U_D) for t = 1..T,
    with flat 1/2 weights: kinetic sums squared time differences over
    interior points and vertices, potential sums squared spatial differences
    over every edge segment.  The flat sum is exactly conserved on plateau
    segments (and identically on p = 2 chains); it dips transiently while a
    pulse crosses a vertex of degree != 2.
    """
    _require_size("T", T, low=0)
    ctr = {k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in controls.items()}
    for k, v in ctr.items():
        if k not in graph.boundary:
            raise InvalidInputError(f"control key {k!r} is not a boundary vertex")
        if v.size < T + 1:
            raise InvalidInputError(f"control for {k!r} must cover t = 0..T")
    n, node, slots, groups = _layout(graph)
    x = np.zeros((T + 1, n))  # x[t, node]
    for k, v in ctr.items():
        x[1:, node[k]] = v[1 : T + 1]
    for t in range(T):
        cur, prev = x[t], x[max(t - 1, 0)]  # u^{-1} = u^0 = 0
        for p, (free, cols) in groups.items():
            nb = cur[cols[0]]  # a copy; the columns are added in order, not pairwise
            for c in cols[1:]:
                nb += cur[c]
            x[t + 1, free] = (2.0 / p) * nb - prev[free]  # 2/2 = 1 scales exactly
    # `take` keeps each time level a C-contiguous row, so each sum below is the
    # pairwise sum np.sum gives one level (x[:, s] would be F-ordered)
    dx = np.diff(x, axis=0)
    kin, pot = np.zeros(T), np.zeros(T)
    for s in slots:
        kin += 0.5 * np.sum(dx.take(s[1:-1], axis=1) ** 2, axis=1)
        pot += 0.5 * np.sum(np.diff(x[1:].take(s, axis=1), axis=1) ** 2, axis=1)
    for i in node.values():
        kin += 0.5 * dx[:, i] * dx[:, i]
    log = np.column_stack((np.arange(1.0, T + 1), kin, pot, kin + pot))
    return GraphField(graph=graph, u=tuple(x[:, s].T for s in slots), controls=ctr), log
