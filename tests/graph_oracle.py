"""Test oracle: the per-edge graph stepper and per-t energy audit.

Every vertex keeps one copy per incident edge, kept equal by writing all of
them; internal vertices are found by scanning the edges at every step, and
the energies are summed one time level at a time.  `graph_wave.simulate`
steps one flat node array instead and must agree with this bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from bcjacobi.core import _require_size
from bcjacobi.errors import InvalidInputError
from bcjacobi.graph_wave import GraphSpec


@dataclass
class EdgeField:
    """Per-edge arrays u[e][j, t] (j = 0..n_seg, t = 0..T) plus controls."""

    graph: GraphSpec
    u: list  # u[e] is an (n_seg+1) x (T+1) array
    controls: dict
    t_filled: int = 0

    @staticmethod
    def zero(graph: GraphSpec, controls: dict, T: int) -> "EdgeField":
        _require_size("T", T, low=0)
        ctr = {k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in controls.items()}
        for k, v in ctr.items():
            if k not in graph.boundary:
                raise InvalidInputError(f"control key {k!r} is not a boundary vertex")
            if v.size < T + 1:
                raise InvalidInputError(f"control for {k!r} must cover t = 0..T")
        u = [np.zeros((e.n_seg + 1, T + 1)) for e in graph.edges]
        return EdgeField(graph=graph, u=u, controls=ctr, t_filled=0)

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


def step(field: EdgeField, t: int) -> None:
    """Advance the field from time level t to t + 1 in place."""
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


def energies(field: EdgeField, t: int):
    """(T_D(t), U_D(t)) with flat 1/2 weights."""
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
    """Run T steps from the zero state; returns (field, energy log)."""
    field = EdgeField.zero(graph, controls, T)
    for t in range(T):
        step(field, t)
    log = np.zeros((T, 4))
    for t in range(1, T + 1):
        kin, pot = energies(field, t)
        log[t - 1] = (t, kin, pot, kin + pot)
    return field, log
