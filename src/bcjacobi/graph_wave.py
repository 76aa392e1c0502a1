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

from .core import _json_int
from .errors import InvalidInputError

__all__ = ["Edge", "GraphSpec", "GraphField", "step", "energies", "simulate"]


@dataclass(frozen=True)
class Edge:
    tail: str  # vertex at slot 0
    head: str  # vertex at slot n_seg
    n_seg: int  # number of unit lattice intervals on the edge

    def __post_init__(self):
        if self.n_seg < 1:
            raise InvalidInputError("edges need at least one lattice interval")


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

    def degree(self, v: str) -> int:
        return sum((e.tail == v) + (e.head == v) for e in self.edges)

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


@dataclass
class GraphField:
    """Per-edge arrays u[e][j, t] (j = 0..n_seg, t = 0..T) plus controls.

    Controls are keyed by boundary vertex id; missing keys mean clamped (0).
    Vertex continuity holds by construction: endpoint slots of incident edges
    always carry the same value.
    """

    graph: GraphSpec
    u: list  # u[e] is an (n_seg+1) x (T+1) array
    controls: dict
    t_filled: int = 0

    @staticmethod
    def zero(graph: GraphSpec, controls: dict, T: int) -> "GraphField":
        ctr = {k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in controls.items()}
        for k, v in ctr.items():
            if k not in graph.boundary:
                raise InvalidInputError(f"control key {k!r} is not a boundary vertex")
            if v.size < T + 1:
                raise InvalidInputError(f"control for {k!r} must cover t = 0..T")
        u = [np.zeros((e.n_seg + 1, T + 1)) for e in graph.edges]
        return GraphField(graph=graph, u=u, controls=ctr, t_filled=0)

    def vertex_value(self, v: str, t: int) -> float:
        for e, arr in zip(self.graph.edges, self.u):
            if e.tail == v:
                return arr[0, t]
            if e.head == v:
                return arr[e.n_seg, t]
        raise KeyError(v)


def _incidences(graph: GraphSpec, v: str):
    """(edge index, endpoint slot) pairs for the edges at v."""
    out = []
    for i, e in enumerate(graph.edges):
        if e.tail == v:
            out.append((i, 0))
        if e.head == v:
            out.append((i, e.n_seg))
    return out


def step(field: GraphField, t: int) -> None:
    """Advance the field from time level t to t + 1 in place.

    Requires levels up to t to be populated (and t - 1 for t >= 1).
    """
    g = field.graph
    u = field.u
    if t != field.t_filled:
        raise InvalidInputError(f"field is populated through t = {field.t_filled}, not {t}")
    if t + 1 >= u[0].shape[1]:
        raise InvalidInputError("field storage exhausted")
    # interior points
    for arr in u:
        n = arr.shape[0] - 1
        prev = arr[1:n, t - 1] if t >= 1 else 0.0
        arr[1:n, t + 1] = arr[2 : n + 1, t] + arr[0 : n - 1, t] - prev
    # internal vertices
    for v in g.internal:
        inc = _incidences(g, v)
        p = len(inc)
        nb = 0.0
        for ei, slot in inc:
            j = 1 if slot == 0 else slot - 1  # |F - 1| resolves the orientation
            nb += u[ei][j, t]
        prev = field.vertex_value(v, t - 1) if t >= 1 else 0.0
        val = (2.0 / p) * nb - prev
        for ei, slot in inc:
            u[ei][slot, t + 1] = val
    # boundary vertices: Dirichlet controls (zero when absent)
    for v in g.boundary:
        ctl = field.controls.get(v)
        val = float(ctl[t + 1]) if ctl is not None else 0.0
        for ei, slot in _incidences(g, v):
            u[ei][slot, t + 1] = val
    field.t_filled = t + 1


def energies(field: GraphField, t: int):
    """(T_D(t), U_D(t)) exactly as displayed: flat 1/2 weights.

    Kinetic sums squared time differences over interior points and vertices;
    potential sums squared spatial differences over every edge segment.
    The flat sum is exactly conserved on plateau segments (and identically on
    p = 2 chains); it dips transiently while a pulse crosses a vertex of
    degree != 2.
    """
    if t < 1:
        raise InvalidInputError("kinetic energy needs t >= 1")
    g = field.graph
    kin = 0.0
    pot = 0.0
    for arr in field.u:
        n = arr.shape[0] - 1
        kin += 0.5 * float(np.sum((arr[1:n, t] - arr[1:n, t - 1]) ** 2))
        pot += 0.5 * float(np.sum((arr[1 : n + 1, t] - arr[0:n, t]) ** 2))
    for v, _ in g.vertices:
        dv = field.vertex_value(v, t) - field.vertex_value(v, t - 1)
        kin += 0.5 * dv * dv
    return kin, pot


def simulate(graph: GraphSpec, controls: dict, T: int) -> tuple:
    """Run T steps from the zero state; returns (field, energy log).

    The energy log row t holds (t, T_D(t), U_D(t), T_D + U_D) for t = 1..T.
    """
    field = GraphField.zero(graph, controls, T)
    for t in range(T):
        step(field, t)
    log = np.zeros((T, 4))
    for t in range(1, T + 1):
        kin, pot = energies(field, t)
        log[t - 1] = (t, kin, pot, kin + pot)
    return field, log
